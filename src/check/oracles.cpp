#include "check/oracles.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "alu/alu_factory.hpp"
#include "alu/cmos_core_alu.hpp"
#include "cell/processor_cell.hpp"
#include "coding/hamming.hpp"
#include "coding/hsiao.hpp"
#include "coding/majority.hpp"
#include "coding/reed_solomon.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/defect_map.hpp"
#include "fault/mask_generator.hpp"
#include "fault/remap.hpp"
#include "fault/scenario.hpp"
#include "lut/coded_lut.hpp"
#include "lut/truth_table.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "sim/trial_engine.hpp"
#include "workload/instruction_stream.hpp"

namespace nbx::check {
namespace {

// ---------------------------------------------------------------- shared

/// Full-precision double rendering for failure messages (json_double is
/// used for the serialized case itself).
std::string show(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

const JsonValue* require(const JsonValue& doc, const char* key,
                         JsonValue::Kind kind) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr || v->kind() != kind) {
    return nullptr;
  }
  return v;
}

/// All case documents carry a "family" tag so a repro file replayed
/// against the wrong property is rejected at load instead of producing a
/// confusing verdict.
bool family_matches(const JsonValue& doc, const char* name) {
  const JsonValue* fam = require(doc, "family", JsonValue::Kind::kString);
  return fam != nullptr && fam->as_string() == name;
}

std::optional<Opcode> opcode_by_name(const std::string& name) {
  for (Opcode op : kAllOpcodes) {
    if (opcode_name(op) == name) {
      return op;
    }
  }
  return std::nullopt;
}

// ------------------------------------------------- engine-differential

constexpr const char* kEngineName = "engine-differential";

/// Percent pool for generated sweeps: the low-rate half of the paper
/// sweep. High percentages add runtime without adding scheduling
/// diversity (the differential contract is about execution paths, not
/// fault physics).
const std::vector<double> kPercentPool = {0.0, 0.05, 0.1, 0.5, 1.0,
                                          2.0, 3.0,  5.0, 10.0};

struct EngineCase {
  std::string alu;
  std::vector<double> percents;
  int trials = 1;
  std::uint64_t seed = 0;
  std::string policy = "round";  // round | floor | bernoulli | burst
  std::size_t burst_length = 1;
  std::string scope = "all";  // all | datapath
  std::size_t datapath_sites = 0;
  unsigned lanes = 2;    // batched-engine lanes for the batched variants
  unsigned threads = 2;  // pool width for the threaded variants
};

std::optional<FaultCountPolicy> parse_policy(const std::string& s) {
  if (s == "round") return FaultCountPolicy::kRoundNearest;
  if (s == "floor") return FaultCountPolicy::kFloor;
  if (s == "bernoulli") return FaultCountPolicy::kBernoulli;
  if (s == "burst") return FaultCountPolicy::kBurst;
  return std::nullopt;
}

EngineCase generate_engine_case(Gen& g) {
  const std::vector<AluSpec>& specs = all_specs();
  const AluSpec& spec = specs[g.below(specs.size())];
  EngineCase c;
  c.alu = spec.name;
  const std::size_t n_percents = g.length(1, 3);
  for (std::uint64_t i :
       g.distinct_below(kPercentPool.size(), n_percents)) {
    c.percents.push_back(kPercentPool[i]);
  }
  // Mostly cheap cases; occasionally enough trials to spill past the
  // first 64-lane word so multi-group cells, the multi-word active masks
  // and cross-word scoring run with more than a partial group.
  c.trials = static_cast<int>(g.boolean(0.25) ? g.in_range(65, 140)
                                              : g.in_range(1, 4));
  c.seed = g.u64();
  c.policy = g.pick({std::string("round"), std::string("floor"),
                     std::string("bernoulli"), std::string("burst")});
  c.burst_length = c.policy == "burst" ? g.in_range(1, 4) : 1;
  if (g.boolean(0.3)) {
    c.scope = "datapath";
    c.datapath_sites = g.in_range(1, spec.expected_sites);
  }
  // Full wide-engine range: 1..64 exercises the single-word layout,
  // 65..512 the multi-word SIMD substrate (2/4/8 lane words).
  c.lanes = static_cast<unsigned>(g.in_range(1, 512));
  c.threads = static_cast<unsigned>(g.in_range(2, 4));
  return c;
}

std::string engine_case_json(const EngineCase& c) {
  std::ostringstream os;
  os << "{\"family\": \"" << kEngineName << "\", \"alu\": \""
     << json_escape(c.alu) << "\", \"percents\": [";
  for (std::size_t i = 0; i < c.percents.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_double(c.percents[i]);
  }
  os << "], \"trials\": " << c.trials << ", \"seed\": " << c.seed
     << ", \"policy\": \"" << c.policy
     << "\", \"burst_length\": " << c.burst_length << ", \"scope\": \""
     << c.scope << "\", \"datapath_sites\": " << c.datapath_sites
     << ", \"lanes\": " << c.lanes << ", \"threads\": " << c.threads
     << "}";
  return os.str();
}

std::optional<EngineCase> engine_case_from_json(const JsonValue& doc) {
  if (!family_matches(doc, kEngineName)) {
    return std::nullopt;
  }
  const JsonValue* alu = require(doc, "alu", JsonValue::Kind::kString);
  const JsonValue* percents =
      require(doc, "percents", JsonValue::Kind::kArray);
  const JsonValue* trials = require(doc, "trials", JsonValue::Kind::kNumber);
  const JsonValue* seed = require(doc, "seed", JsonValue::Kind::kNumber);
  const JsonValue* policy = require(doc, "policy", JsonValue::Kind::kString);
  const JsonValue* burst =
      require(doc, "burst_length", JsonValue::Kind::kNumber);
  const JsonValue* scope = require(doc, "scope", JsonValue::Kind::kString);
  const JsonValue* dp =
      require(doc, "datapath_sites", JsonValue::Kind::kNumber);
  const JsonValue* lanes = require(doc, "lanes", JsonValue::Kind::kNumber);
  const JsonValue* threads =
      require(doc, "threads", JsonValue::Kind::kNumber);
  if (alu == nullptr || percents == nullptr || trials == nullptr ||
      seed == nullptr || policy == nullptr || burst == nullptr ||
      scope == nullptr || dp == nullptr || lanes == nullptr ||
      threads == nullptr) {
    return std::nullopt;
  }
  EngineCase c;
  c.alu = alu->as_string();
  for (const JsonValue& p : percents->items()) {
    if (!p.is_number()) {
      return std::nullopt;
    }
    c.percents.push_back(p.as_double().value_or(0.0));
  }
  c.trials = static_cast<int>(trials->as_i64().value_or(1));
  c.seed = seed->as_u64().value_or(0);
  c.policy = policy->as_string();
  c.burst_length =
      static_cast<std::size_t>(burst->as_u64().value_or(1));
  c.scope = scope->as_string();
  c.datapath_sites = static_cast<std::size_t>(dp->as_u64().value_or(0));
  c.lanes = static_cast<unsigned>(lanes->as_u64().value_or(1));
  c.threads = static_cast<unsigned>(threads->as_u64().value_or(2));
  return c;
}

std::optional<std::string> compare_points(
    const std::vector<DataPoint>& base, const std::vector<DataPoint>& got,
    const char* variant) {
  auto fail = [&](std::size_t i, const char* field, const std::string& b,
                  const std::string& g) {
    std::ostringstream os;
    os << variant << " diverges from scalar-serial baseline at point " << i
       << ": " << field << " " << g << " != " << b;
    return os.str();
  };
  if (got.size() != base.size()) {
    std::ostringstream os;
    os << variant << " returned " << got.size() << " points, baseline "
       << base.size();
    return os.str();
  }
  for (std::size_t i = 0; i < base.size(); ++i) {
    const DataPoint& b = base[i];
    const DataPoint& g = got[i];
    if (g.alu != b.alu) {
      return fail(i, "alu", b.alu, g.alu);
    }
    if (g.fault_percent != b.fault_percent) {
      return fail(i, "fault_percent", show(b.fault_percent),
                  show(g.fault_percent));
    }
    if (g.mean_percent_correct != b.mean_percent_correct) {
      return fail(i, "mean_percent_correct", show(b.mean_percent_correct),
                  show(g.mean_percent_correct));
    }
    if (g.stddev != b.stddev) {
      return fail(i, "stddev", show(b.stddev), show(g.stddev));
    }
    if (g.ci95 != b.ci95) {
      return fail(i, "ci95", show(b.ci95), show(g.ci95));
    }
    if (g.samples != b.samples) {
      return fail(i, "samples", std::to_string(b.samples),
                  std::to_string(g.samples));
    }
  }
  return std::nullopt;
}

std::optional<std::string> run_engine_case(const EngineCase& c) {
  const std::unique_ptr<IAlu> alu = make_alu(c.alu);
  if (alu == nullptr) {
    return "invalid case: unknown alu '" + c.alu + "'";
  }
  const std::optional<FaultCountPolicy> policy = parse_policy(c.policy);
  if (!policy.has_value()) {
    return "invalid case: unknown policy '" + c.policy + "'";
  }
  if (c.scope != "all" && c.scope != "datapath") {
    return "invalid case: unknown scope '" + c.scope + "'";
  }
  if (c.percents.empty() || c.trials < 1 || c.lanes < 1 ||
      c.burst_length < 1) {
    return "invalid case: empty percents or non-positive knob";
  }
  if (c.scope == "datapath" &&
      (c.datapath_sites < 1 || c.datapath_sites > alu->fault_sites())) {
    return "invalid case: datapath_sites out of [1, fault_sites]";
  }

  SweepSpec spec;
  spec.percents = c.percents;
  spec.trials_per_workload = c.trials;
  spec.seed = c.seed;
  spec.policy = *policy;
  spec.burst_length = c.burst_length;
  spec.scope = c.scope == "datapath" ? InjectionScope::kDatapathOnly
                                     : InjectionScope::kAll;
  spec.datapath_sites = c.scope == "datapath" ? c.datapath_sites : 0;

  const std::vector<std::vector<Instruction>> streams =
      paper_streams(c.seed);

  const auto engine = [](unsigned threads, unsigned lanes) {
    ParallelConfig par;
    par.threads = threads;
    par.batch_lanes = lanes;
    return TrialEngine(par);
  };

  // Baseline: scalar trials, serial schedule.
  const std::vector<DataPoint> base =
      engine(1, 0).sweep(*alu, streams, spec);

  struct Variant {
    const char* name;
    unsigned threads;
    unsigned lanes;
  };
  const Variant variants[] = {
      {"scalar-threaded", c.threads, 0},
      {"batched-serial", 1, c.lanes},
      {"batched-threaded", c.threads, c.lanes},
  };
  for (const Variant& v : variants) {
    if (std::optional<std::string> msg = compare_points(
            base, engine(v.threads, v.lanes).sweep(*alu, streams, spec),
            v.name)) {
      return msg;
    }
  }

  // Anatomy variants: points must still match the plain baseline
  // (accounting is passive), and the counters themselves must be
  // bit-identical scalar-vs-batched under different schedules.
  const SweepAnatomy scalar_anatomy =
      engine(1, 0).sweep_anatomy(*alu, streams, spec);
  if (std::optional<std::string> msg = compare_points(
          base, scalar_anatomy.points, "anatomy-scalar-serial")) {
    return msg;
  }
  const SweepAnatomy batched_anatomy =
      engine(c.threads, c.lanes).sweep_anatomy(*alu, streams, spec);
  if (std::optional<std::string> msg = compare_points(
          base, batched_anatomy.points, "anatomy-batched-threaded")) {
    return msg;
  }
  if (scalar_anatomy.metrics.size() != batched_anatomy.metrics.size()) {
    return "anatomy metrics count differs scalar vs batched";
  }
  for (std::size_t i = 0; i < scalar_anatomy.metrics.size(); ++i) {
    if (!(scalar_anatomy.metrics[i] == batched_anatomy.metrics[i])) {
      std::ostringstream os;
      os << "anatomy counters diverge scalar vs batched at percent index "
         << i << " (" << show(spec.percents[i]) << "%)";
      return os.str();
    }
  }
  return std::nullopt;
}

std::vector<EngineCase> shrink_engine_case(const EngineCase& c) {
  std::vector<EngineCase> out;
  if (c.percents.size() > 1) {
    for (std::size_t i = 0; i < c.percents.size(); ++i) {
      EngineCase s = c;
      s.percents.erase(s.percents.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(s));
    }
  }
  if (c.trials > 1) {
    EngineCase s = c;
    s.trials = 1;
    out.push_back(std::move(s));
  }
  if (c.policy != "round") {
    EngineCase s = c;
    s.policy = "round";
    s.burst_length = 1;
    out.push_back(std::move(s));
  }
  if (c.scope != "all") {
    EngineCase s = c;
    s.scope = "all";
    s.datapath_sites = 0;
    out.push_back(std::move(s));
  }
  if (c.lanes > 64) {
    // First shrink multi-word layouts back to the single-word substrate;
    // only then all the way to one lane.
    EngineCase s = c;
    s.lanes = 64;
    out.push_back(std::move(s));
  }
  if (c.lanes > 1) {
    EngineCase s = c;
    s.lanes = 1;
    out.push_back(std::move(s));
  }
  if (c.threads > 2) {
    EngineCase s = c;
    s.threads = 2;
    out.push_back(std::move(s));
  }
  return out;
}

// --------------------------------------------- scenario-differential

constexpr const char* kScenarioName = "scenario-differential";

/// A generated FaultScenario — wear-out rate schedule plus 2-D burst
/// geometry — checked two ways in one case. First the generator laws
/// directly: the schedule anchors at the base rate, ramps monotonically
/// to clamp(base * end_factor), and stays in [0, 100]; every burst flip
/// lands inside a declared L×R strike neighbourhood (anchors replayed
/// from a twin Rng); a remap plan is injective and, when feasible,
/// never reads a known-defective site. Then the differential: the
/// scenario sweep must be bit-identical through scalar-serial,
/// scalar-threaded, the serial wide engine at the generated lane count,
/// and the threaded wide engine — and when the schedule degenerates to
/// i.i.d. (constant kind or end_factor == 1) with 1-D bursts, it must
/// reproduce the default-scenario sweep bitwise, seeds and all.
struct ScenarioCase {
  std::string alu;
  std::vector<double> percents;
  int trials = 1;
  std::uint64_t seed = 0;
  std::string policy = "round";  // round | floor | bernoulli | burst
  std::size_t burst_length = 1;
  std::size_t burst_rows = 1;
  std::size_t burst_row_stride = 0;  // 0 = historical 1-D runs
  std::string schedule = "constant";  // constant | linear | weibull
  double end_factor = 1.0;
  double shape = 1.0;
  unsigned lanes = 2;    // 1..512 wide-engine lanes
  unsigned threads = 2;  // pool width for the threaded variants
};

std::optional<RateScheduleKind> parse_schedule(const std::string& s) {
  if (s == "constant") return RateScheduleKind::kConstant;
  if (s == "linear") return RateScheduleKind::kLinear;
  if (s == "weibull") return RateScheduleKind::kWeibull;
  return std::nullopt;
}

ScenarioCase generate_scenario_case(Gen& g) {
  const std::vector<AluSpec>& specs = all_specs();
  ScenarioCase c;
  c.alu = specs[g.below(specs.size())].name;
  const std::size_t n_percents = g.length(1, 2);
  for (std::uint64_t i :
       g.distinct_below(kPercentPool.size(), n_percents)) {
    c.percents.push_back(kPercentPool[i]);
  }
  // Schedules only vary with the trial index, so most cases carry enough
  // trials for the ramp to actually move; a few spill past the first
  // 64-lane word so per-lane generators cross word boundaries.
  c.trials = static_cast<int>(g.boolean(0.2) ? g.in_range(65, 110)
                                             : g.in_range(2, 8));
  c.seed = g.u64();
  c.policy = g.pick({std::string("round"), std::string("floor"),
                     std::string("bernoulli"), std::string("burst")});
  if (c.policy == "burst") {
    c.burst_length = g.in_range(1, 4);
    if (g.boolean(0.6)) {
      c.burst_rows = g.in_range(1, 3);
      c.burst_row_stride = g.pick({std::size_t{4}, std::size_t{8},
                                   std::size_t{16}, std::size_t{24}});
    }
  }
  c.schedule = g.pick({std::string("constant"), std::string("linear"),
                       std::string("weibull")});
  // end_factor 1.0 on a non-constant kind is the deliberate edge case:
  // the scheduled path must still reproduce the i.i.d. sweep bitwise.
  c.end_factor = g.pick({0.0, 0.5, 1.0, 2.0, 6.0});
  c.shape = c.schedule == "weibull" ? g.pick({0.5, 2.0, 3.0}) : 1.0;
  c.lanes = static_cast<unsigned>(g.in_range(1, 512));
  c.threads = static_cast<unsigned>(g.pick({2u, 4u, 8u}));
  return c;
}

std::string scenario_case_json(const ScenarioCase& c) {
  std::ostringstream os;
  os << "{\"family\": \"" << kScenarioName << "\", \"alu\": \""
     << json_escape(c.alu) << "\", \"percents\": [";
  for (std::size_t i = 0; i < c.percents.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_double(c.percents[i]);
  }
  os << "], \"trials\": " << c.trials << ", \"seed\": " << c.seed
     << ", \"policy\": \"" << c.policy
     << "\", \"burst_length\": " << c.burst_length
     << ", \"burst_rows\": " << c.burst_rows
     << ", \"burst_row_stride\": " << c.burst_row_stride
     << ", \"schedule\": \"" << c.schedule
     << "\", \"end_factor\": " << json_double(c.end_factor)
     << ", \"shape\": " << json_double(c.shape)
     << ", \"lanes\": " << c.lanes << ", \"threads\": " << c.threads
     << "}";
  return os.str();
}

std::optional<ScenarioCase> scenario_case_from_json(const JsonValue& doc) {
  if (!family_matches(doc, kScenarioName)) {
    return std::nullopt;
  }
  const JsonValue* alu = require(doc, "alu", JsonValue::Kind::kString);
  const JsonValue* percents =
      require(doc, "percents", JsonValue::Kind::kArray);
  const JsonValue* trials = require(doc, "trials", JsonValue::Kind::kNumber);
  const JsonValue* seed = require(doc, "seed", JsonValue::Kind::kNumber);
  const JsonValue* policy = require(doc, "policy", JsonValue::Kind::kString);
  const JsonValue* burst =
      require(doc, "burst_length", JsonValue::Kind::kNumber);
  const JsonValue* rows =
      require(doc, "burst_rows", JsonValue::Kind::kNumber);
  const JsonValue* stride =
      require(doc, "burst_row_stride", JsonValue::Kind::kNumber);
  const JsonValue* schedule =
      require(doc, "schedule", JsonValue::Kind::kString);
  const JsonValue* ef =
      require(doc, "end_factor", JsonValue::Kind::kNumber);
  const JsonValue* shape = require(doc, "shape", JsonValue::Kind::kNumber);
  const JsonValue* lanes = require(doc, "lanes", JsonValue::Kind::kNumber);
  const JsonValue* threads =
      require(doc, "threads", JsonValue::Kind::kNumber);
  if (alu == nullptr || percents == nullptr || trials == nullptr ||
      seed == nullptr || policy == nullptr || burst == nullptr ||
      rows == nullptr || stride == nullptr || schedule == nullptr ||
      ef == nullptr || shape == nullptr || lanes == nullptr ||
      threads == nullptr) {
    return std::nullopt;
  }
  ScenarioCase c;
  c.alu = alu->as_string();
  for (const JsonValue& p : percents->items()) {
    if (!p.is_number()) {
      return std::nullopt;
    }
    c.percents.push_back(p.as_double().value_or(0.0));
  }
  c.trials = static_cast<int>(trials->as_i64().value_or(1));
  c.seed = seed->as_u64().value_or(0);
  c.policy = policy->as_string();
  c.burst_length =
      static_cast<std::size_t>(burst->as_u64().value_or(1));
  c.burst_rows = static_cast<std::size_t>(rows->as_u64().value_or(1));
  c.burst_row_stride =
      static_cast<std::size_t>(stride->as_u64().value_or(0));
  c.schedule = schedule->as_string();
  c.end_factor = ef->as_double().value_or(1.0);
  c.shape = shape->as_double().value_or(1.0);
  c.lanes = static_cast<unsigned>(lanes->as_u64().value_or(1));
  c.threads = static_cast<unsigned>(threads->as_u64().value_or(2));
  return c;
}

/// The generator-law half of a scenario case: pure checks on the
/// schedule curve, the burst neighbourhood, and the remap plan, no
/// engine involved. Counterexamples here shrink exactly like
/// differential ones.
std::optional<std::string> scenario_laws(const ScenarioCase& c,
                                         const IAlu& alu,
                                         const RateSchedule& sched) {
  const auto trials = static_cast<std::size_t>(c.trials);
  for (const double base : c.percents) {
    // Trial 0 is the base rate, bit-for-bit: this is what keeps trial
    // seeds (and therefore every pinned golden) unmoved at the start of
    // a wear-out ramp.
    if (std::bit_cast<std::uint64_t>(sched.at(base, 0, trials)) !=
        std::bit_cast<std::uint64_t>(base)) {
      return "schedule law: at(" + show(base) + ", 0, n) != base bitwise";
    }
    const bool constant = sched.kind == RateScheduleKind::kConstant ||
                          sched.end_factor == 1.0;
    const bool up = constant || sched.end_factor >= 1.0;
    double prev = base;
    for (std::size_t t = 1; t < trials; ++t) {
      const double r = sched.at(base, t, trials);
      if (r < 0.0 || r > 100.0) {
        return "schedule law: rate " + show(r) + " escapes [0, 100] at trial " +
               std::to_string(t);
      }
      if (up ? r < prev : r > prev) {
        std::ostringstream os;
        os << "schedule law: not monotone at trial " << t << " (base "
           << show(base) << "): " << show(r) << (up ? " < " : " > ")
           << show(prev);
        return os.str();
      }
      prev = r;
    }
    if (trials > 1) {
      const double want =
          constant ? base : std::clamp(base * sched.end_factor, 0.0, 100.0);
      const double got = sched.at(base, trials - 1, trials);
      if (std::fabs(got - want) > 1e-9 * (1.0 + std::fabs(want))) {
        return "schedule law: endpoint " + show(got) +
               " misses clamp(base*end_factor) = " + show(want);
      }
    }
  }

  const std::size_t sites = alu.fault_sites();
  if (c.policy == "burst" && !c.percents.empty()) {
    const MaskGenerator gen(sites, c.percents.back(),
                            FaultCountPolicy::kBurst, c.burst_length,
                            c.burst_rows, c.burst_row_stride);
    if (const std::size_t strikes = gen.strikes_per_computation();
        strikes > 0) {
      // Replay the strike anchors from a twin Rng: every flipped site
      // must sit inside some declared L-columns-by-R-rows neighbourhood
      // (clipped at the row edge and the end of the site space).
      Rng draw(derive_seed({c.seed, 0xb1}));
      Rng replay(derive_seed({c.seed, 0xb1}));
      const BitVec mask = gen.generate(draw);
      BitVec allowed(sites);
      const std::size_t stride = c.burst_row_stride;
      for (std::size_t s = 0; s < strikes; ++s) {
        const auto anchor = static_cast<std::size_t>(replay.below(sites));
        if (stride == 0) {
          for (std::size_t i = 0;
               i < c.burst_length && anchor + i < sites; ++i) {
            allowed.set(anchor + i, true);
          }
          continue;
        }
        const std::size_t row = anchor / stride;
        const std::size_t col = anchor % stride;
        for (std::size_t r = 0; r < c.burst_rows; ++r) {
          for (std::size_t k = 0;
               k < c.burst_length && col + k < stride; ++k) {
            const std::size_t site = (row + r) * stride + col + k;
            if (site < sites) {
              allowed.set(site, true);
            }
          }
        }
      }
      for (std::size_t i = 0; i < sites; ++i) {
        if (mask.get(i) && !allowed.get(i)) {
          return "burst law: flipped site " + std::to_string(i) +
                 " lies outside every declared strike neighbourhood";
        }
      }
    }
  }

  // Remap law on a part manufactured from the case seed: the plan is
  // injective, and a feasible plan leaves zero logical defects — a
  // remapped placement never reads a known-defective site.
  {
    Rng rng(derive_seed({c.seed, 0x5e}));
    const DefectMap physical =
        DefectMap::manufacture(sites + sites / 8 + 1, 0.03, rng);
    const RemapPlan plan = remap_around_defects(physical, sites);
    if (plan.logical_to_physical.size() != sites) {
      return "remap law: plan covers " +
             std::to_string(plan.logical_to_physical.size()) +
             " logical sites, expected " + std::to_string(sites);
    }
    std::vector<char> seen(physical.sites(), 0);
    for (std::size_t i = 0; i < sites; ++i) {
      const std::uint32_t p = plan.logical_to_physical[i];
      if (p >= physical.sites()) {
        return "remap law: logical " + std::to_string(i) +
               " maps outside the physical site space";
      }
      if (seen[p] != 0) {
        return "remap law: physical site " + std::to_string(p) +
               " backs two logical sites (plan not injective)";
      }
      seen[p] = 1;
      if (plan.feasible && physical.is_defective(p)) {
        return "remap law: feasible plan reads known-defective physical "
               "site " + std::to_string(p);
      }
    }
    const DefectMap residual = remap_logical_defects(physical, plan);
    if (plan.feasible && residual.defect_count() != 0) {
      return "remap law: feasible plan left " +
             std::to_string(residual.defect_count()) + " logical defects";
    }
  }
  return std::nullopt;
}

std::optional<std::string> run_scenario_case(const ScenarioCase& c) {
  const std::unique_ptr<IAlu> alu = make_alu(c.alu);
  if (alu == nullptr) {
    return "invalid case: unknown alu '" + c.alu + "'";
  }
  const std::optional<FaultCountPolicy> policy = parse_policy(c.policy);
  if (!policy.has_value()) {
    return "invalid case: unknown policy '" + c.policy + "'";
  }
  const std::optional<RateScheduleKind> kind = parse_schedule(c.schedule);
  if (!kind.has_value()) {
    return "invalid case: unknown schedule '" + c.schedule + "'";
  }
  if (c.percents.empty() || c.trials < 1 || c.lanes < 1 ||
      c.lanes > kMaxBatchLanes || c.burst_length < 1 || c.burst_rows < 1) {
    return "invalid case: empty percents or knob out of range";
  }
  if (c.burst_rows > 1 && c.burst_row_stride == 0) {
    return "invalid case: burst_rows > 1 requires a row stride";
  }
  if (!(c.end_factor >= 0.0) || !(c.shape > 0.0)) {
    return "invalid case: end_factor must be >= 0 and shape > 0";
  }

  SweepSpec spec;
  spec.percents = c.percents;
  spec.trials_per_workload = c.trials;
  spec.seed = c.seed;
  spec.policy = *policy;
  spec.burst_length = c.burst_length;
  spec.scenario.schedule.kind = *kind;
  spec.scenario.schedule.end_factor = c.end_factor;
  spec.scenario.schedule.shape = c.shape;
  spec.scenario.burst_rows = c.burst_rows;
  spec.scenario.burst_row_stride = c.burst_row_stride;

  if (std::optional<std::string> msg =
          scenario_laws(c, *alu, spec.scenario.schedule)) {
    return msg;
  }

  const std::vector<std::vector<Instruction>> streams =
      paper_streams(c.seed);

  const auto engine = [](unsigned threads, unsigned lanes) {
    ParallelConfig par;
    par.threads = threads;
    par.batch_lanes = lanes;
    return TrialEngine(par);
  };
  const auto compare_anatomy = [&](const SweepAnatomy& base,
                                   const SweepAnatomy& got,
                                   const std::string& variant)
      -> std::optional<std::string> {
    if (std::optional<std::string> msg =
            compare_points(base.points, got.points, variant.c_str())) {
      return msg;
    }
    if (base.metrics.size() != got.metrics.size()) {
      return variant + ": anatomy metrics count differs from baseline";
    }
    for (std::size_t i = 0; i < base.metrics.size(); ++i) {
      if (!(base.metrics[i] == got.metrics[i])) {
        std::ostringstream os;
        os << variant
           << ": anatomy counters (incl. scenario) diverge at percent "
              "index "
           << i << " (" << show(spec.percents[i]) << "%)";
        return os.str();
      }
    }
    return std::nullopt;
  };

  // Baseline: scalar trials, serial schedule, anatomy on (the scenario
  // counters ride the comparison).
  const SweepAnatomy base = engine(1, 0).sweep_anatomy(*alu, streams, spec);

  // An i.i.d.-degenerate schedule with 1-D bursts IS today's fault
  // model: it must reproduce the default-scenario sweep bit-for-bit —
  // same trial seeds, same points, same non-scenario counters.
  if (spec.scenario.is_iid() && c.burst_row_stride == 0) {
    SweepSpec plain = spec;
    plain.scenario = FaultScenario{};
    const SweepAnatomy iid =
        engine(1, 0).sweep_anatomy(*alu, streams, plain);
    if (std::optional<std::string> msg = compare_points(
            iid.points, base.points, "iid-degenerate-schedule")) {
      return msg;
    }
  }

  if (std::optional<std::string> msg = compare_anatomy(
          base, engine(c.threads, 0).sweep_anatomy(*alu, streams, spec),
          "scalar-" + std::to_string(c.threads) + "-threads")) {
    return msg;
  }

  if (std::optional<std::string> msg = compare_anatomy(
          base, engine(1, c.lanes).sweep_anatomy(*alu, streams, spec),
          "wide@" + std::to_string(c.lanes) + "-lanes")) {
    return msg;
  }

  return compare_anatomy(
      base, engine(c.threads, c.lanes).sweep_anatomy(*alu, streams, spec),
      "wide-threaded@" + std::to_string(c.lanes) + "-lanes");
}

std::vector<ScenarioCase> shrink_scenario_case(const ScenarioCase& c) {
  std::vector<ScenarioCase> out;
  if (c.percents.size() > 1) {
    for (std::size_t i = 0; i < c.percents.size(); ++i) {
      ScenarioCase s = c;
      s.percents.erase(s.percents.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(s));
    }
  }
  if (c.trials > 2) {
    ScenarioCase s = c;
    s.trials = 2;
    out.push_back(std::move(s));
  }
  if (c.policy != "round") {
    ScenarioCase s = c;
    s.policy = "round";
    s.burst_length = 1;
    s.burst_rows = 1;
    s.burst_row_stride = 0;
    out.push_back(std::move(s));
  }
  if (c.burst_row_stride > 0) {
    ScenarioCase s = c;
    s.burst_rows = 1;
    s.burst_row_stride = 0;
    out.push_back(std::move(s));
  }
  if (c.schedule != "constant") {
    ScenarioCase s = c;
    s.schedule = "constant";
    s.end_factor = 1.0;
    s.shape = 1.0;
    out.push_back(std::move(s));
  }
  if (c.end_factor != 1.0) {
    ScenarioCase s = c;
    s.end_factor = 1.0;
    out.push_back(std::move(s));
  }
  if (c.lanes > 64) {
    ScenarioCase s = c;
    s.lanes = 64;
    out.push_back(std::move(s));
  }
  if (c.lanes > 1) {
    ScenarioCase s = c;
    s.lanes = 1;
    out.push_back(std::move(s));
  }
  if (c.threads > 2) {
    ScenarioCase s = c;
    s.threads = 2;
    out.push_back(std::move(s));
  }
  return out;
}

// ------------------------------------------------------- alu-vs-cmos

constexpr const char* kAluName = "alu-vs-cmos";

struct AluInstr {
  Opcode op = Opcode::kAnd;
  std::uint8_t a = 0;
  std::uint8_t b = 0;
};

struct AluCase {
  std::string alu;
  std::vector<AluInstr> instrs;
};

/// ALU construction (especially the space-redundant variants) is the
/// expensive part of an alu-vs-cmos case, and the shrinker re-runs the
/// same ALU dozens of times — so instances are cached per name.
const IAlu* cached_alu(const std::string& name) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<IAlu>> cache;
  const std::scoped_lock lock(mu);
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, make_alu(name)).first;
  }
  return it->second.get();
}

AluCase generate_alu_case(Gen& g) {
  const std::vector<AluSpec>& specs = all_specs();
  AluCase c;
  c.alu = specs[g.below(specs.size())].name;
  const std::size_t n = g.length(1, 32);
  c.instrs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AluInstr instr;
    instr.op = kAllOpcodes[g.below(4)];
    instr.a = g.byte();
    instr.b = g.byte();
    c.instrs.push_back(instr);
  }
  return c;
}

std::optional<std::string> run_alu_case(const AluCase& c) {
  const IAlu* alu = cached_alu(c.alu);
  if (alu == nullptr) {
    return "invalid case: unknown alu '" + c.alu + "'";
  }
  static const CmosCoreAlu cmos;
  for (std::size_t i = 0; i < c.instrs.size(); ++i) {
    const AluInstr& in = c.instrs[i];
    const std::uint8_t golden = golden_alu(in.op, in.a, in.b);
    const std::uint8_t gate = cmos.eval(in.op, in.a, in.b, {}, nullptr);
    const AluOutput out = alu->compute(in.op, in.a, in.b, {}, nullptr);
    std::ostringstream os;
    os << "instr " << i << " (" << opcode_name(in.op) << " "
       << int{in.a} << ", " << int{in.b} << "): ";
    if (gate != golden) {
      os << "cmos netlist " << int{gate} << " != golden_alu "
         << int{golden};
      return os.str();
    }
    if (out.value != golden) {
      os << c.alu << " value " << int{out.value} << " != golden_alu "
         << int{golden} << " under zero faults";
      return os.str();
    }
    if (!out.valid) {
      os << c.alu << " reported invalid result under zero faults";
      return os.str();
    }
    if (out.disagreement) {
      os << c.alu << " reported replica disagreement under zero faults";
      return os.str();
    }
  }
  return std::nullopt;
}

std::string alu_case_json(const AluCase& c) {
  std::ostringstream os;
  os << "{\"family\": \"" << kAluName << "\", \"alu\": \""
     << json_escape(c.alu) << "\", \"instrs\": [";
  for (std::size_t i = 0; i < c.instrs.size(); ++i) {
    const AluInstr& in = c.instrs[i];
    os << (i == 0 ? "" : ", ") << "[\"" << opcode_name(in.op) << "\", "
       << int{in.a} << ", " << int{in.b} << "]";
  }
  os << "]}";
  return os.str();
}

std::optional<AluCase> alu_case_from_json(const JsonValue& doc) {
  if (!family_matches(doc, kAluName)) {
    return std::nullopt;
  }
  const JsonValue* alu = require(doc, "alu", JsonValue::Kind::kString);
  const JsonValue* instrs = require(doc, "instrs", JsonValue::Kind::kArray);
  if (alu == nullptr || instrs == nullptr) {
    return std::nullopt;
  }
  AluCase c;
  c.alu = alu->as_string();
  for (const JsonValue& triple : instrs->items()) {
    if (triple.kind() != JsonValue::Kind::kArray ||
        triple.items().size() != 3) {
      return std::nullopt;
    }
    const std::vector<JsonValue>& t = triple.items();
    if (!t[0].is_string() || !t[1].is_number() || !t[2].is_number()) {
      return std::nullopt;
    }
    const std::optional<Opcode> op = opcode_by_name(t[0].as_string());
    const std::optional<std::uint64_t> a = t[1].as_u64();
    const std::optional<std::uint64_t> b = t[2].as_u64();
    if (!op.has_value() || !a.has_value() || *a > 255 || !b.has_value() ||
        *b > 255) {
      return std::nullopt;
    }
    c.instrs.push_back({*op, static_cast<std::uint8_t>(*a),
                        static_cast<std::uint8_t>(*b)});
  }
  return c;
}

std::vector<AluCase> shrink_alu_case(const AluCase& c) {
  std::vector<AluCase> out;
  const std::size_t n = c.instrs.size();
  // Most aggressive first: halves, then single drops, then operand zeroing.
  if (n > 1) {
    AluCase first = c;
    first.instrs.resize(n / 2);
    out.push_back(std::move(first));
    AluCase second = c;
    second.instrs.erase(second.instrs.begin(),
                        second.instrs.begin() +
                            static_cast<std::ptrdiff_t>(n / 2));
    out.push_back(std::move(second));
    for (std::size_t i = 0; i < n; ++i) {
      AluCase s = c;
      s.instrs.erase(s.instrs.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(s));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (c.instrs[i].a != 0) {
      AluCase s = c;
      s.instrs[i].a = 0;
      out.push_back(std::move(s));
    }
    if (c.instrs[i].b != 0) {
      AluCase s = c;
      s.instrs[i].b = 0;
      out.push_back(std::move(s));
    }
  }
  return out;
}

// ----------------------------------------------------- decode-t-error

constexpr const char* kDecodeName = "decode-t-error";

/// For the three information codes, `data_bits` is the word width and
/// `flips` are stored-bit positions in [data | checks] order. For the
/// TMR layouts, `data_bits` is the (power-of-two) table size and `flips`
/// index the triplicated store: kTmr keeps the copies as three blocks
/// (entry = pos % n), kTmrInterleaved keeps the three copies of each
/// entry adjacent (entry = pos / 3).
struct DecodeCase {
  std::string code;  // hamming | hsiao | rs | tmr | tmr-interleaved
  std::size_t data_bits = 1;
  std::string data;  // MSB-first bit string, length data_bits
  std::vector<std::size_t> flips;
};

const char* hamming_status_name(HammingStatus s) {
  switch (s) {
    case HammingStatus::kNoError:
      return "kNoError";
    case HammingStatus::kCorrected:
      return "kCorrected";
    case HammingStatus::kUncorrectable:
      return "kUncorrectable";
  }
  return "?";
}

const char* hsiao_status_name(HsiaoStatus s) {
  switch (s) {
    case HsiaoStatus::kNoError:
      return "kNoError";
    case HsiaoStatus::kCorrected:
      return "kCorrected";
    case HsiaoStatus::kDoubleDetected:
      return "kDoubleDetected";
    case HsiaoStatus::kUncorrectable:
      return "kUncorrectable";
  }
  return "?";
}

const char* rs_status_name(RsStatus s) {
  switch (s) {
    case RsStatus::kNoError:
      return "kNoError";
    case RsStatus::kCorrected:
      return "kCorrected";
    case RsStatus::kUncorrectable:
      return "kUncorrectable";
  }
  return "?";
}

std::string flips_string(const std::vector<std::size_t>& flips) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < flips.size(); ++i) {
    os << (i == 0 ? "" : ", ") << flips[i];
  }
  os << "]";
  return os.str();
}

/// Fills `data` with `bits` random bits (bits <= 64 by construction).
std::string random_word(Gen& g, std::size_t bits) {
  BitVec v(bits);
  v.deposit(0, bits, g.u64());
  return v.to_string();
}

DecodeCase generate_decode_case(Gen& g) {
  DecodeCase c;
  c.code = g.pick({std::string("hamming"), std::string("hsiao"),
                   std::string("rs"), std::string("tmr"),
                   std::string("tmr-interleaved")});
  if (c.code == "hamming") {
    c.data_bits = g.length(1, 57);
    const HammingCode code(c.data_bits);
    if (g.in_range(0, 1) == 1) {
      c.flips.push_back(g.below(code.codeword_bits()));
    }
  } else if (c.code == "hsiao") {
    c.data_bits = g.length(1, 57);
    const HsiaoCode code(c.data_bits);
    const std::size_t n_flips = g.in_range(0, 2);
    for (std::uint64_t p : g.distinct_below(code.codeword_bits(), n_flips)) {
      c.flips.push_back(static_cast<std::size_t>(p));
    }
  } else if (c.code == "rs") {
    c.data_bits = 4 * g.length(1, 13);
    const std::size_t symbols = c.data_bits / 4 + 2;
    const std::size_t n_flips = g.in_range(0, 4);
    if (n_flips > 0) {
      // All flips inside ONE codeword symbol: parity symbols s in {0, 1}
      // live at check bits [4s, 4s+4) (stored positions data_bits + ...),
      // data symbol i at data bits [4i, 4i+4).
      const std::size_t s = g.below(symbols);
      for (std::uint64_t off : g.distinct_below(4, n_flips)) {
        const std::size_t bit = static_cast<std::size_t>(off);
        c.flips.push_back(s < 2 ? c.data_bits + 4 * s + bit
                                : 4 * (s - 2) + bit);
      }
    }
  } else {
    const int k = static_cast<int>(g.length(1, kMaxLutInputs));
    c.data_bits = std::size_t{1} << k;
    const std::size_t n = c.data_bits;
    const std::size_t n_flips = g.length(0, std::min<std::size_t>(n, 6));
    const bool interleaved = c.code == "tmr-interleaved";
    for (std::uint64_t entry : g.distinct_below(n, n_flips)) {
      const std::size_t copy = g.below(3);
      c.flips.push_back(interleaved
                            ? static_cast<std::size_t>(entry) * 3 + copy
                            : copy * n + static_cast<std::size_t>(entry));
    }
  }
  c.data = random_word(g, c.data_bits);
  return c;
}

std::optional<std::string> run_info_code_case(const DecodeCase& c) {
  std::unique_ptr<HammingCode> hamming;
  std::unique_ptr<HsiaoCode> hsiao;
  std::unique_ptr<Rs16Code> rs;
  std::size_t check_bits = 0;
  std::size_t max_flips = 0;
  if (c.code == "hamming") {
    hamming = std::make_unique<HammingCode>(c.data_bits);
    check_bits = hamming->check_bits();
    max_flips = 1;
  } else if (c.code == "hsiao") {
    hsiao = std::make_unique<HsiaoCode>(c.data_bits);
    check_bits = hsiao->check_bits();
    max_flips = 2;
  } else {
    if (c.data_bits % 4 != 0 || c.data_bits < 4 || c.data_bits > 52) {
      return "invalid case: rs data_bits must be a multiple of 4 in [4,52]";
    }
    rs = std::make_unique<Rs16Code>(c.data_bits);
    check_bits = rs->check_bits();
    max_flips = 4;
  }
  if (c.flips.size() > max_flips) {
    return "invalid case: too many flips for " + c.code;
  }
  const std::size_t codeword_bits = c.data_bits + check_bits;
  for (std::size_t p : c.flips) {
    if (p >= codeword_bits) {
      return "invalid case: flip position out of codeword";
    }
  }
  if (rs != nullptr && !c.flips.empty()) {
    // All flips must hit one codeword symbol.
    auto symbol_of = [&](std::size_t p) {
      return p < c.data_bits ? 2 + p / 4 : (p - c.data_bits) / 4;
    };
    const std::size_t s0 = symbol_of(c.flips[0]);
    for (std::size_t p : c.flips) {
      if (symbol_of(p) != s0) {
        return "invalid case: rs flips span multiple symbols";
      }
    }
  }

  const BitVec data = BitVec::from_string(c.data);
  if (data.size() != c.data_bits) {
    return "invalid case: data string length != data_bits";
  }
  const BitVec checks = hamming != nullptr
                            ? hamming->generate_check_bits(data)
                        : hsiao != nullptr
                            ? hsiao->generate_check_bits(data)
                            : rs->generate_check_bits(data);

  BitVec faulted_data = data;
  BitVec faulted_checks = checks;
  for (std::size_t p : c.flips) {
    if (p < c.data_bits) {
      faulted_data.flip(p);
    } else {
      faulted_checks.flip(p - c.data_bits);
    }
  }
  const BitVec pre_decode_data = faulted_data;

  std::ostringstream os;
  os << c.code << "(" << c.data_bits << ") data=" << c.data
     << " flips=" << flips_string(c.flips) << ": ";
  if (hamming != nullptr) {
    const HammingStatus st =
        hamming->detect_and_correct(faulted_data, faulted_checks);
    const HammingStatus want = c.flips.empty() ? HammingStatus::kNoError
                                               : HammingStatus::kCorrected;
    if (st != want) {
      os << "status " << hamming_status_name(st) << ", expected "
         << hamming_status_name(want);
      return os.str();
    }
    if (!(faulted_data == data)) {
      os << "data not restored after <=1-bit error: got "
         << faulted_data.to_string();
      return os.str();
    }
  } else if (hsiao != nullptr) {
    const HsiaoStatus st =
        hsiao->detect_and_correct(faulted_data, faulted_checks);
    const HsiaoStatus want = c.flips.empty() ? HsiaoStatus::kNoError
                             : c.flips.size() == 1
                                 ? HsiaoStatus::kCorrected
                                 : HsiaoStatus::kDoubleDetected;
    if (st != want) {
      os << "status " << hsiao_status_name(st) << ", expected "
         << hsiao_status_name(want);
      return os.str();
    }
    if (c.flips.size() <= 1) {
      if (!(faulted_data == data)) {
        os << "data not restored after <=1-bit error: got "
           << faulted_data.to_string();
        return os.str();
      }
    } else if (!(faulted_data == pre_decode_data)) {
      // SEC-DED contract: a detected double must never be "corrected".
      os << "decoder modified data on a detected double error: got "
         << faulted_data.to_string();
      return os.str();
    }
  } else {
    const RsStatus st = rs->detect_and_correct(faulted_data, faulted_checks);
    const RsStatus want =
        c.flips.empty() ? RsStatus::kNoError : RsStatus::kCorrected;
    if (st != want) {
      os << "status " << rs_status_name(st) << ", expected "
         << rs_status_name(want);
      return os.str();
    }
    if (!(faulted_data == data)) {
      os << "data not restored after single-symbol error: got "
         << faulted_data.to_string();
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> run_tmr_case(const DecodeCase& c) {
  const std::size_t n = c.data_bits;
  if (n < 2 || (n & (n - 1)) != 0 ||
      n > (std::size_t{1} << kMaxLutInputs)) {
    return "invalid case: tmr table size must be a power of two in [2, " +
           std::to_string(std::size_t{1} << kMaxLutInputs) + "]";
  }
  const bool interleaved = c.code == "tmr-interleaved";
  std::vector<bool> entry_hit(n, false);
  for (std::size_t p : c.flips) {
    if (p >= 3 * n) {
      return "invalid case: flip position out of the triplicated store";
    }
    const std::size_t entry = interleaved ? p / 3 : p % n;
    if (entry_hit[entry]) {
      return "invalid case: two flips on copies of the same entry";
    }
    entry_hit[entry] = true;
  }
  const BitVec tt = BitVec::from_string(c.data);
  if (tt.size() != n) {
    return "invalid case: data string length != table size";
  }
  const CodedLut lut(tt, interleaved ? LutCoding::kTmrInterleaved
                                     : LutCoding::kTmr);
  BitVec mask(lut.fault_sites());
  for (std::size_t p : c.flips) {
    mask.flip(p);
  }
  LutAccessStats stats;
  for (std::size_t addr = 0; addr < n; ++addr) {
    const bool got = lut.read(static_cast<std::uint32_t>(addr),
                              MaskView(mask, 0, mask.size()), &stats);
    if (got != tt.get(addr)) {
      std::ostringstream os;
      os << c.code << "(" << n << ") data=" << c.data
         << " flips=" << flips_string(c.flips) << ": majority vote at addr "
         << addr << " returned " << got << ", golden " << tt.get(addr)
         << " (one faulted copy must never win)";
      return os.str();
    }
  }
  if (stats.tmr_disagreements != c.flips.size()) {
    std::ostringstream os;
    os << c.code << "(" << n << ") flips=" << flips_string(c.flips)
       << ": tmr_disagreements " << stats.tmr_disagreements
       << " over one full read pass, expected one per flipped entry ("
       << c.flips.size() << ")";
    return os.str();
  }
  return std::nullopt;
}

std::optional<std::string> run_decode_case(const DecodeCase& c) {
  if (c.code == "tmr" || c.code == "tmr-interleaved") {
    return run_tmr_case(c);
  }
  if (c.code == "hamming" || c.code == "hsiao" || c.code == "rs") {
    return run_info_code_case(c);
  }
  return "invalid case: unknown code '" + c.code + "'";
}

std::string decode_case_json(const DecodeCase& c) {
  std::ostringstream os;
  os << "{\"family\": \"" << kDecodeName << "\", \"code\": \"" << c.code
     << "\", \"data_bits\": " << c.data_bits << ", \"data\": \"" << c.data
     << "\", \"flips\": [";
  for (std::size_t i = 0; i < c.flips.size(); ++i) {
    os << (i == 0 ? "" : ", ") << c.flips[i];
  }
  os << "]}";
  return os.str();
}

std::optional<DecodeCase> decode_case_from_json(const JsonValue& doc) {
  if (!family_matches(doc, kDecodeName)) {
    return std::nullopt;
  }
  const JsonValue* code = require(doc, "code", JsonValue::Kind::kString);
  const JsonValue* bits =
      require(doc, "data_bits", JsonValue::Kind::kNumber);
  const JsonValue* data = require(doc, "data", JsonValue::Kind::kString);
  const JsonValue* flips = require(doc, "flips", JsonValue::Kind::kArray);
  if (code == nullptr || bits == nullptr || data == nullptr ||
      flips == nullptr) {
    return std::nullopt;
  }
  DecodeCase c;
  c.code = code->as_string();
  const std::optional<std::uint64_t> n = bits->as_u64();
  if (!n.has_value() || *n == 0 || *n > 4096) {
    return std::nullopt;
  }
  c.data_bits = static_cast<std::size_t>(*n);
  c.data = data->as_string();
  for (char ch : c.data) {
    if (ch != '0' && ch != '1') {
      return std::nullopt;
    }
  }
  for (const JsonValue& f : flips->items()) {
    const std::optional<std::uint64_t> p = f.as_u64();
    if (!p.has_value()) {
      return std::nullopt;
    }
    c.flips.push_back(static_cast<std::size_t>(*p));
  }
  return c;
}

std::vector<DecodeCase> shrink_decode_case(const DecodeCase& c) {
  std::vector<DecodeCase> out;
  for (std::size_t i = 0; i < c.flips.size(); ++i) {
    DecodeCase s = c;
    s.flips.erase(s.flips.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(s));
  }
  if (c.data.find('1') != std::string::npos) {
    DecodeCase s = c;
    s.data.assign(c.data.size(), '0');
    out.push_back(std::move(s));
  }
  return out;
}

// ------------------------------------------- pipeline-differential

constexpr const char* kPipelineName = "pipeline-differential";

/// A generated cell program checked against the pipelined cell's own
/// architectural contracts. Mode "program" drives the 4-deep
/// CellPipeline: under zero faults every instruction must retire, in
/// program order, with the fault-free reference value; flipping
/// forwarding must change timing only (never a retired value, never
/// making the forwarded run slower); and a faulted run replayed after
/// reset() must be bit-identical, counters included. Mode "legacy"
/// drives the full ProcessorCell flit/mode machinery: a zero-fault cell
/// must round-trip every instruction packet to a result packet carrying
/// golden_alu, and two identically-configured faulted cells fed the same
/// flits must emit identical packets.
struct PipelineCase {
  std::string mode;  // legacy | program
  std::string alu;   // execute-stage ALU (program mode only)
  std::size_t length = 1;
  std::uint64_t seed = 0;
  std::size_t registers = 8;
  bool forwarding = true;
  double fetch_percent = 0.0;
  double decode_percent = 0.0;
  double execute_percent = 0.0;
  double writeback_percent = 0.0;
};

PipelineCase generate_pipeline_case(Gen& g) {
  PipelineCase c;
  c.mode = g.pick({std::string("legacy"), std::string("program")});
  const std::vector<AluSpec>& specs = all_specs();
  c.alu = specs[g.below(specs.size())].name;
  // Legacy programs must fit the cell's 32-word memory in one shift-in.
  c.length = g.length(1, c.mode == "legacy" ? 16 : 48);
  c.seed = g.u64();
  c.registers = static_cast<std::size_t>(g.in_range(2, 8));
  c.forwarding = g.boolean();
  const auto rate = [&g]() -> double {
    return kPercentPool[g.below(kPercentPool.size())];
  };
  if (g.boolean(0.7)) {
    c.fetch_percent = rate();
    c.decode_percent = rate();
    c.execute_percent = rate();
    c.writeback_percent = rate();
  }
  return c;
}

std::string pipeline_case_json(const PipelineCase& c) {
  std::ostringstream os;
  os << "{\"family\": \"" << kPipelineName << "\", \"mode\": \"" << c.mode
     << "\", \"alu\": \"" << json_escape(c.alu)
     << "\", \"length\": " << c.length << ", \"seed\": " << c.seed
     << ", \"registers\": " << c.registers << ", \"forwarding\": "
     << (c.forwarding ? "true" : "false")
     << ", \"fetch_percent\": " << json_double(c.fetch_percent)
     << ", \"decode_percent\": " << json_double(c.decode_percent)
     << ", \"execute_percent\": " << json_double(c.execute_percent)
     << ", \"writeback_percent\": " << json_double(c.writeback_percent)
     << "}";
  return os.str();
}

std::optional<PipelineCase> pipeline_case_from_json(const JsonValue& doc) {
  if (!family_matches(doc, kPipelineName)) {
    return std::nullopt;
  }
  const JsonValue* mode = require(doc, "mode", JsonValue::Kind::kString);
  const JsonValue* alu = require(doc, "alu", JsonValue::Kind::kString);
  const JsonValue* length = require(doc, "length", JsonValue::Kind::kNumber);
  const JsonValue* seed = require(doc, "seed", JsonValue::Kind::kNumber);
  const JsonValue* registers =
      require(doc, "registers", JsonValue::Kind::kNumber);
  const JsonValue* forwarding = doc.find("forwarding");
  const JsonValue* fp =
      require(doc, "fetch_percent", JsonValue::Kind::kNumber);
  const JsonValue* dp =
      require(doc, "decode_percent", JsonValue::Kind::kNumber);
  const JsonValue* ep =
      require(doc, "execute_percent", JsonValue::Kind::kNumber);
  const JsonValue* wp =
      require(doc, "writeback_percent", JsonValue::Kind::kNumber);
  if (mode == nullptr || alu == nullptr || length == nullptr ||
      seed == nullptr || registers == nullptr || forwarding == nullptr ||
      forwarding->kind() != JsonValue::Kind::kBool || fp == nullptr ||
      dp == nullptr || ep == nullptr || wp == nullptr) {
    return std::nullopt;
  }
  PipelineCase c;
  c.mode = mode->as_string();
  c.alu = alu->as_string();
  c.length = static_cast<std::size_t>(length->as_u64().value_or(1));
  c.seed = seed->as_u64().value_or(0);
  c.registers = static_cast<std::size_t>(registers->as_u64().value_or(8));
  c.forwarding = forwarding->as_bool();
  c.fetch_percent = fp->as_double().value_or(0.0);
  c.decode_percent = dp->as_double().value_or(0.0);
  c.execute_percent = ep->as_double().value_or(0.0);
  c.writeback_percent = wp->as_double().value_or(0.0);
  return c;
}

/// The generated NBXS program of a pipeline case — a pure function of
/// the case seed, so replayed cases rebuild it exactly.
std::vector<Instruction> pipeline_case_program(const PipelineCase& c) {
  Rng rng(derive_seed({c.seed, fnv1a64("pipeline-case-program")}));
  return random_stream(c.length, rng);
}

std::optional<std::string> retired_mismatch(
    const std::vector<RetiredOp>& base, const std::vector<RetiredOp>& got,
    const char* variant) {
  if (got.size() != base.size()) {
    return std::string(variant) + " retired " + std::to_string(got.size()) +
           " instructions, baseline " + std::to_string(base.size());
  }
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (got[i].index != base[i].index ||
        got[i].instr_id != base[i].instr_id ||
        got[i].value != base[i].value) {
      std::ostringstream os;
      os << variant << " diverges at retirement " << i << ": (index "
         << got[i].index << ", id " << got[i].instr_id << ", value "
         << int{got[i].value} << ") != baseline (index " << base[i].index
         << ", id " << base[i].instr_id << ", value "
         << int{base[i].value} << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> run_program_pipeline_case(const PipelineCase& c) {
  const std::vector<Instruction> program = pipeline_case_program(c);

  PipelineConfig ideal;
  ideal.registers = c.registers;
  ideal.forwarding = c.forwarding;
  ideal.execute_alu = c.alu;
  ideal.seed = c.seed;
  CellPipeline pipe(ideal, CellId{1, 2});
  if (!pipe.load(program)) {
    return "invalid case: unknown execute alu '" + c.alu + "'";
  }
  const PipelineRunResult res = pipe.run();
  std::ostringstream os;
  os << "program[" << program.size() << "] alu=" << c.alu << " regs="
     << c.registers << (c.forwarding ? " fwd" : " no-fwd") << ": ";
  if (!res.completed) {
    os << "zero-fault run hit the cycle bound with work in flight";
    return os.str();
  }
  const std::vector<std::uint8_t> ref =
      CellPipeline::reference_results(program, c.registers);
  if (pipe.retired().size() != program.size()) {
    os << "zero-fault run retired " << pipe.retired().size() << " of "
       << program.size() << " instructions";
    return os.str();
  }
  for (std::size_t i = 0; i < program.size(); ++i) {
    const RetiredOp& r = pipe.retired()[i];
    if (r.index != i || r.value != ref[i]) {
      os << "zero-fault retirement " << i << " is (index " << r.index
         << ", value " << int{r.value} << "), reference (index " << i
         << ", value " << int{ref[i]} << ")";
      return os.str();
    }
  }
  if (res.correct != program.size() || res.percent_correct != 100.0) {
    os << "zero-fault scoring counted " << res.correct << "/"
       << program.size() << " correct";
    return os.str();
  }

  // Forwarding is a timing optimisation only: flipping it must not move
  // any retired value, and the forwarded schedule never runs slower.
  PipelineConfig flipped = ideal;
  flipped.forwarding = !ideal.forwarding;
  CellPipeline other(flipped, CellId{1, 2});
  if (!other.load(program)) {
    return "invalid case: unknown execute alu '" + c.alu + "'";
  }
  (void)other.run();
  if (std::optional<std::string> msg = retired_mismatch(
          pipe.retired(), other.retired(), "forwarding-flipped")) {
    os << *msg;
    return os.str();
  }
  const std::uint64_t fwd_cycles =
      ideal.forwarding ? pipe.counters().cycles : other.counters().cycles;
  const std::uint64_t stall_cycles =
      ideal.forwarding ? other.counters().cycles : pipe.counters().cycles;
  if (fwd_cycles > stall_cycles) {
    os << "forwarding ran " << fwd_cycles << " cycles, stalling only "
       << stall_cycles;
    return os.str();
  }

  // Faulted determinism: reset() re-arms the per-stage RNG streams, so
  // an identical re-run must be bit-identical — retired list, per-stage
  // fault counters, everything.
  PipelineConfig faulted = ideal;
  faulted.fetch.fault_percent = c.fetch_percent;
  faulted.decode.fault_percent = c.decode_percent;
  faulted.execute.fault_percent = c.execute_percent;
  faulted.writeback.fault_percent = c.writeback_percent;
  CellPipeline noisy(faulted, CellId{1, 2});
  if (!noisy.load(program)) {
    return "invalid case: unknown execute alu '" + c.alu + "'";
  }
  (void)noisy.run();
  const std::vector<RetiredOp> first = noisy.retired();
  const obs::PipelineCounters counters = noisy.counters();
  noisy.reset();
  (void)noisy.run();
  if (std::optional<std::string> msg = retired_mismatch(
          first, noisy.retired(), "faulted-replay")) {
    os << *msg;
    return os.str();
  }
  if (!(noisy.counters() == counters)) {
    os << "faulted replay moved the pipeline counters";
    return os.str();
  }
  return std::nullopt;
}

/// Shift-in → compute → shift-out round trip of one legacy cell:
/// returns the result packets it emits toward the control processor.
std::vector<Packet> run_legacy_cell(const CellConfig& cfg,
                                    const std::vector<Instruction>& program) {
  ProcessorCell cell(CellId{0, 0}, cfg);
  cell.set_mode(CellMode::kShiftIn);
  for (const Instruction& in : program) {
    Packet p;
    p.kind = PacketKind::kInstruction;
    p.dest = CellId{0, 0};
    p.instr_id = in.id;
    p.op = in.op;
    p.operand1 = in.a;
    p.operand2 = in.b;
    for (std::uint8_t f : encode_packet_flits(p)) {
      cell.receive_flit(Port::kTop, f);
      cell.step();
    }
  }
  cell.set_mode(CellMode::kCompute);
  for (std::size_t i = 0; i < cell.memory().capacity() + 8; ++i) {
    cell.step();
  }
  cell.set_mode(CellMode::kShiftOut);
  PacketAssembler rx;
  std::vector<Packet> results;
  const std::size_t budget = (program.size() + 2) * (kPacketFlits + 2);
  for (std::size_t i = 0; i < budget; ++i) {
    cell.step();
    if (const std::optional<std::uint8_t> f = cell.pop_output(Port::kTop)) {
      if (const std::optional<Packet> p = rx.push(*f)) {
        results.push_back(*p);
      }
    }
  }
  return results;
}

std::optional<std::string> run_legacy_pipeline_case(const PipelineCase& c) {
  const std::vector<Instruction> program = pipeline_case_program(c);

  // Zero faults: every instruction packet round-trips to a result packet
  // carrying the behavioural golden, in storage order.
  CellConfig ideal;
  ideal.seed = c.seed;
  const std::vector<Packet> clean = run_legacy_cell(ideal, program);
  std::ostringstream os;
  os << "legacy[" << program.size() << "]: ";
  if (clean.size() != program.size()) {
    os << "zero-fault cell emitted " << clean.size() << " results for "
       << program.size() << " instructions";
    return os.str();
  }
  for (std::size_t i = 0; i < program.size(); ++i) {
    const Instruction& in = program[i];
    const Packet& out = clean[i];
    if (out.kind != PacketKind::kResult || out.instr_id != in.id ||
        out.result != golden_alu(in.op, in.a, in.b)) {
      os << "instr " << i << " (" << opcode_name(in.op) << " " << int{in.a}
         << ", " << int{in.b} << "): result packet (id " << out.instr_id
         << ", value " << int{out.result} << ") != golden (id " << in.id
         << ", value " << int{golden_alu(in.op, in.a, in.b)} << ")";
      return os.str();
    }
  }

  // Faulted determinism: two identically-configured cells fed the same
  // flits must emit identical packets — the degenerate 1-deep pipeline
  // draws its fault masks from the cell seed alone.
  CellConfig faulted = ideal;
  faulted.alu_fault_percent = c.execute_percent;
  faulted.memory_upsets_per_cycle = c.fetch_percent / 100.0;
  const std::vector<Packet> a = run_legacy_cell(faulted, program);
  const std::vector<Packet> b = run_legacy_cell(faulted, program);
  if (a.size() != b.size()) {
    os << "faulted twin cells emitted " << a.size() << " vs " << b.size()
       << " packets";
    return os.str();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {
      os << "faulted twin cells diverge at packet " << i << " (id "
         << a[i].instr_id << " vs " << b[i].instr_id << ", value "
         << int{a[i].result} << " vs " << int{b[i].result} << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> run_pipeline_case(const PipelineCase& c) {
  if (c.length < 1 || (c.mode == "legacy" && c.length > 16) ||
      c.length > 4096) {
    return "invalid case: length out of range for mode '" + c.mode + "'";
  }
  if (c.registers < 2 || c.registers > 8) {
    return "invalid case: registers out of [2, 8]";
  }
  const double rates[] = {c.fetch_percent, c.decode_percent,
                          c.execute_percent, c.writeback_percent};
  for (const double r : rates) {
    if (!(r >= 0.0) || r > 100.0) {
      return "invalid case: stage percent out of [0, 100]";
    }
  }
  if (c.mode == "program") {
    return run_program_pipeline_case(c);
  }
  if (c.mode == "legacy") {
    return run_legacy_pipeline_case(c);
  }
  return "invalid case: unknown mode '" + c.mode + "'";
}

std::vector<PipelineCase> shrink_pipeline_case(const PipelineCase& c) {
  std::vector<PipelineCase> out;
  if (c.length > 1) {
    PipelineCase s = c;
    s.length = c.length / 2;
    out.push_back(std::move(s));
    PipelineCase one = c;
    one.length = 1;
    out.push_back(std::move(one));
  }
  const auto zero = [&out, &c](double PipelineCase::* field) {
    if (c.*field != 0.0) {
      PipelineCase s = c;
      s.*field = 0.0;
      out.push_back(std::move(s));
    }
  };
  zero(&PipelineCase::fetch_percent);
  zero(&PipelineCase::decode_percent);
  zero(&PipelineCase::execute_percent);
  zero(&PipelineCase::writeback_percent);
  if (!c.forwarding) {
    PipelineCase s = c;
    s.forwarding = true;
    out.push_back(std::move(s));
  }
  if (c.registers != 8) {
    PipelineCase s = c;
    s.registers = 8;
    out.push_back(std::move(s));
  }
  if (c.alu != "aluns") {
    PipelineCase s = c;
    s.alu = "aluns";
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

Property engine_differential_property() {
  PropertyDef<EngineCase> def;
  def.name = kEngineName;
  def.generate = generate_engine_case;
  def.run = run_engine_case;
  def.shrink = shrink_engine_case;
  def.to_json = engine_case_json;
  def.from_json = engine_case_from_json;
  return Property::make(std::move(def));
}

Property scenario_differential_property() {
  PropertyDef<ScenarioCase> def;
  def.name = kScenarioName;
  def.generate = generate_scenario_case;
  def.run = run_scenario_case;
  def.shrink = shrink_scenario_case;
  def.to_json = scenario_case_json;
  def.from_json = scenario_case_from_json;
  return Property::make(std::move(def));
}

Property alu_vs_cmos_property() {
  PropertyDef<AluCase> def;
  def.name = kAluName;
  def.generate = generate_alu_case;
  def.run = run_alu_case;
  def.shrink = shrink_alu_case;
  def.to_json = alu_case_json;
  def.from_json = alu_case_from_json;
  return Property::make(std::move(def));
}

Property decode_t_error_property() {
  PropertyDef<DecodeCase> def;
  def.name = kDecodeName;
  def.generate = generate_decode_case;
  def.run = run_decode_case;
  def.shrink = shrink_decode_case;
  def.to_json = decode_case_json;
  def.from_json = decode_case_from_json;
  return Property::make(std::move(def));
}

Property pipeline_differential_property() {
  PropertyDef<PipelineCase> def;
  def.name = kPipelineName;
  def.generate = generate_pipeline_case;
  def.run = run_pipeline_case;
  def.shrink = shrink_pipeline_case;
  def.to_json = pipeline_case_json;
  def.from_json = pipeline_case_from_json;
  return Property::make(std::move(def));
}

std::vector<Property> oracle_properties() {
  std::vector<Property> out;
  out.push_back(engine_differential_property());
  out.push_back(scenario_differential_property());
  out.push_back(pipeline_differential_property());
  out.push_back(alu_vs_cmos_property());
  out.push_back(decode_t_error_property());
  out.push_back(serve_differential_property());
  return out;
}

std::optional<Property> oracle_property_by_name(std::string_view name) {
  for (Property& p : oracle_properties()) {
    if (p.name() == name) {
      return std::move(p);
    }
  }
  return std::nullopt;
}

std::size_t default_smoke_cases(std::string_view property_name) {
  if (property_name == kEngineName) {
    return 24;
  }
  if (property_name == kScenarioName) {
    return 12;
  }
  if (property_name == kPipelineName) {
    return 16;
  }
  if (property_name == kAluName) {
    return 80;
  }
  if (property_name == kDecodeName) {
    return 120;
  }
  if (property_name == "serve-differential") {
    return 12;
  }
  return 50;
}

}  // namespace nbx::check
