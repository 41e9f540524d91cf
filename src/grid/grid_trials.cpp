#include "grid/grid_trials.hpp"

#include <algorithm>
#include <mutex>

namespace nbx {

std::string grid_alive_map(const NanoBoxGrid& grid) {
  std::string map;
  map.reserve(grid.rows() * grid.cols());
  for (std::uint8_t r = 0; r < grid.rows(); ++r) {
    for (std::uint8_t c = 0; c < grid.cols(); ++c) {
      map += grid.cell(CellId{r, c}).alive() ? '#' : 'x';
    }
  }
  return map;
}

namespace {

/// The system-level TrialBackend: one item = one spec's full three-phase
/// grid run. Everything an item touches (grid, control processor,
/// result slot) is its own, except the optional ProgressReporter, which
/// is serialized under `progress_mu`.
struct GridTrialBackend {
  const std::vector<GridTrialSpec>& specs;
  std::vector<GridTrialResult>& results;
  obs::ProgressReporter* progress;
  std::mutex& progress_mu;
  obs::Profiler* profiler;       // null: untimed
  std::size_t st_manufacture;    // profiler->stage_index("manufacture")

  [[nodiscard]] std::size_t item_count() const { return specs.size(); }
  [[nodiscard]] std::string_view stage() const { return "grid_trial"; }

  void run_item(std::size_t i) const {
    const GridTrialSpec& spec = specs[i];
    GridTrialResult& out = results[i];
    out.label = spec.label;
    // Manufacture: build the grid (every cell's fabric and defect map),
    // condemn infeasible remaps and load the program pipelines; the
    // remainder of the item is the run.
    const double manufacture_start =
        profiler != nullptr ? profiler->now_seconds() : 0.0;
    NanoBoxGrid grid(spec.rows, spec.cols, spec.cell);
    if (spec.trace != nullptr) {
      grid.attach_trace(spec.trace);
    }
    if (spec.condemn_infeasible_remaps) {
      out.cells_condemned = condemn_infeasible(grid, spec.min_live_cells);
    }
    std::vector<ProcessorCell*> loaded;
    if (!spec.program.empty()) {
      loaded = load_programs(spec, grid);
    }
    if (profiler != nullptr) {
      profiler->record(st_manufacture, manufacture_start,
                       profiler->now_seconds() - manufacture_start);
    }
    if (!spec.program.empty()) {
      run_program_trial(spec, loaded, out);
    } else {
      ControlProcessor cp(grid, spec.cp_seed);
      out.output = cp.run_image_op(spec.image, spec.op, spec.options,
                                   &out.report);
    }
    out.alive_map = grid_alive_map(grid);
    out.control_corrupted = 0;
    for (ProcessorCell* c : grid.all_cells()) {
      out.control_corrupted += c->control().corrupted_decisions();
      out.manufactured_defects += c->manufactured_defects();
      out.effective_defects += c->alu_defects().defect_count();
    }
    if (progress != nullptr) {
      const std::lock_guard<std::mutex> lock(progress_mu);
      progress->tick();
    }
  }

  /// Loads the NBXS stream into the 4-deep pipeline of every live cell
  /// and returns the cells that accepted it. Each cell's pipeline seeds
  /// from (cell seed, pipeline seed, cell id), so loading every cell
  /// before running any draws exactly what interleaving them would.
  static std::vector<ProcessorCell*> load_programs(const GridTrialSpec& spec,
                                                   NanoBoxGrid& grid) {
    std::vector<ProcessorCell*> loaded;
    for (ProcessorCell* c : grid.all_cells()) {
      // An unknown execute ALU fails the load: the config error
      // surfaces as 0 program cells.
      if (c->alive() && c->load_program(spec.program)) {
        loaded.push_back(c);
      }
    }
    return loaded;
  }

  /// Program-driven trial: every loaded cell runs its pipeline; per-stage
  /// counters sum across the grid and percent-correct is scored against
  /// the architectural reference, pooled over all (cell, instruction)
  /// pairs.
  static void run_program_trial(const GridTrialSpec& spec,
                                const std::vector<ProcessorCell*>& loaded,
                                GridTrialResult& out) {
    out.program_mode = true;
    std::size_t total = 0;
    std::size_t correct = 0;
    for (ProcessorCell* c : loaded) {
      const PipelineRunResult r = c->run_program(spec.program_max_cycles);
      ++out.program_cells;
      out.pipeline += c->pipeline()->counters();
      total += r.program_length;
      correct += r.correct;
    }
    out.pipeline_percent_correct =
        total == 0 ? 100.0
                   : 100.0 * static_cast<double>(correct) /
                         static_cast<double>(total);
  }

  /// Pre-run salvage: force-fail (router surviving) cells whose remap
  /// plan could not clear their defects, worst manufactured-defect count
  /// first, never dropping below `min_live`. Deterministic: candidates
  /// sort by (defect count desc, cell order asc).
  static std::size_t condemn_infeasible(NanoBoxGrid& grid,
                                        std::size_t min_live) {
    std::vector<ProcessorCell*> candidates;
    std::size_t live = 0;
    for (ProcessorCell* c : grid.all_cells()) {
      if (!c->alive()) {
        continue;
      }
      ++live;
      if (!c->remap_feasible()) {
        candidates.push_back(c);
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const ProcessorCell* a, const ProcessorCell* b) {
                       return a->manufactured_defects() >
                              b->manufactured_defects();
                     });
    std::size_t condemned = 0;
    for (ProcessorCell* c : candidates) {
      if (live <= std::max<std::size_t>(min_live, 1)) {
        break;
      }
      c->force_fail(/*router_survives=*/true);
      --live;
      ++condemned;
    }
    return condemned;
  }
};

}  // namespace

std::vector<GridTrialResult> run_grid_trials(
    const TrialEngine& engine, const std::vector<GridTrialSpec>& specs,
    obs::ProgressReporter* progress) {
  std::vector<GridTrialResult> results(specs.size());
  std::mutex progress_mu;
  obs::Profiler* profiler = engine.parallel().profiler;
  GridTrialBackend backend{
      specs, results, progress, progress_mu, profiler,
      profiler != nullptr ? profiler->stage_index("manufacture") : 0};
  engine.execute(backend);
  return results;
}

}  // namespace nbx
