// scenario.hpp — composable fault scenarios over the XOR-mask model.
//
// The paper's evaluation (§4) injects only i.i.d. transient faults at a
// fixed rate, yet its abstract claims tolerance of "both permanent and
// transient failures". A FaultScenario closes that gap without touching
// the mask generator's core algorithm: it composes a per-trial *rate
// schedule* (wear-out drift across a trial population — linear or
// Weibull-shaped, Lawson & Wolpert-style aging) and a 2-D *burst
// neighbourhood* (one particle strike disturbing an L×R patch of LUT
// rows) on top of the existing per-computation XOR masks, and fixes
// each trial's *manufacturing defects* (stuck-at cells that every mask
// of the trial inherits). The schedule feeds the effective rate into
// MaskGenerator::trial_seed by bit pattern, so every engine backend —
// scalar, threaded, lane groups of any width — regenerates the exact
// same mask stream for a trial regardless of execution order, and a
// constant schedule reproduces today's i.i.d. results bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nbx {

/// Shape of the per-trial-index fault-rate drift.
enum class RateScheduleKind : std::uint8_t {
  kConstant,  ///< every trial runs at the base rate (the paper's model)
  kLinear,    ///< rate ramps linearly from base to base*end_factor
  kWeibull,   ///< rate follows base * (1 + (end_factor-1) * frac^shape):
              ///< the Weibull-hazard-like wear-out curve — slow early
              ///< drift, accelerating (shape > 1) or front-loaded
              ///< (shape < 1) late-life degradation
};

/// Maps (base rate, trial index, trial count) -> effective rate.
///
/// Laws (pinned by the scenario-generators check family):
///  * at(base, 0, n) == base, bitwise — trial 0 is always pristine;
///  * at(base, n-1, n) == clamp(base * end_factor) — the schedule hits
///    its declared endpoint exactly;
///  * monotone in the trial index (non-decreasing when end_factor >= 1,
///    non-increasing otherwise);
///  * kConstant (and any schedule with end_factor == 1) returns `base`
///    with the identical bit pattern, so counter-based trial seeds — and
///    therefore every downstream result — match the i.i.d. model exactly.
struct RateSchedule {
  RateScheduleKind kind = RateScheduleKind::kConstant;
  double end_factor = 1.0;  ///< rate multiplier reached at the last trial
  double shape = 1.0;       ///< Weibull exponent (> 0; kWeibull only)

  [[nodiscard]] double at(double base_percent, std::size_t trial_index,
                          std::size_t trials) const;

  [[nodiscard]] bool operator==(const RateSchedule&) const = default;
};

/// A complete scenario: rate drift, burst geometry and manufacturing
/// defects. The default scenario is the paper's model and is guaranteed
/// to change nothing — SweepSpec carries one by value and every
/// historical spec keeps its exact results.
struct FaultScenario {
  RateSchedule schedule;
  std::size_t burst_rows = 1;        ///< strike height (kBurst only)
  std::size_t burst_row_stride = 0;  ///< sites per row; 0 = 1-D legacy
  /// Manufacturing stuck-at density (0..1) over the ALU's defectable
  /// storage (fault/defect_map.hpp). Each trial runs on its own part,
  /// manufactured from derive_seed({trial seed, fnv1a64("manufacture")})
  /// and imposed on every per-instruction mask; the transient stream is
  /// untouched. 0 = defect-free: nothing is manufactured or imposed.
  double defect_density = 0.0;

  /// True when every trial runs at the base rate (schedule is the
  /// identity), i.e. masks are i.i.d. across the trial population. The
  /// wide engine shares one MaskGenerator across a lane group iff this
  /// holds.
  [[nodiscard]] bool is_iid() const;

  [[nodiscard]] bool operator==(const FaultScenario&) const = default;
};

}  // namespace nbx
