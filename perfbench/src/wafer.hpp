// wafer.hpp — the wafer populations the `wafer` workload runs and the
// layer probes replay.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "grid/wafer_study.hpp"

namespace perfbench {

/// Defect density of every population (2% of storage sites stuck).
inline constexpr double kWaferDefectDensity = 0.02;

/// Three populations manufactured from the same seeds: oblivious
/// placement, defect-aware remap (infeasible cells condemned), and a
/// program-driven population whose live cells run one generated NBXS
/// program through their 4-deep pipelines. 3x3 grids of TMR LUT cells
/// with an eighth of their fabric as spares and a 0.5% transient overlay,
/// as bench_wafer builds them.
std::vector<std::pair<std::string, nbx::WaferSpec>> wafer_populations(
    std::uint64_t seed, std::size_t wafers);

}  // namespace perfbench
