// oracles.hpp — the differential-oracle property families.
//
// The paper's argument is statistical, so the statistics machinery gets
// the strongest oracle treatment we can afford: rather than pinning a
// handful of hand-picked goldens, six families of *generated* cases
// cross-examine independent implementations of the same contract:
//
//   engine-differential — a generated SweepSpec (ALU, percents, trials,
//       seed, fault policy, scope, burst) must produce bit-identical
//       DataPoints through every execution path of the TrialEngine:
//       scalar serial, batched lanes (1..512, single- and multi-word),
//       thread pool, and the anatomy variants (whose counters must also
//       agree scalar-vs-batched). A quarter of the cases draw 65..140
//       trials, so multi-group cells and cross-word scoring run too.
//
//   scenario-differential — a generated FaultScenario (wear-out rate
//       schedule: constant/linear/weibull toward base*end_factor, 2-D
//       burst geometry, and a manufacturing defect density from
//       {0, 0.5%, 2%}) must be bit-identical through scalar serial,
//       scalar threaded, the serial wide engine at a generated lane
//       count, and the threaded wide engine — scenario counters
//       included; an i.i.d.-degenerate schedule must reproduce the
//       default-scenario sweep bitwise. The same case also checks the
//       generator laws directly: schedule anchored at the base rate,
//       monotone to clamp(base*end_factor), in [0, 100]; burst flips
//       inside their declared L×R neighbourhood (anchors replayed from a
//       twin Rng); remap plans injective and never reading a
//       known-defective site when feasible.
//
//   pipeline-differential — a generated NBXS program through the
//       pipelined cell. Mode "program": under zero faults the 4-deep
//       CellPipeline must retire every instruction in order with the
//       architectural reference value, flipping forwarding must change
//       timing only (and never make forwarding slower), and a faulted
//       run replayed after reset() must be bit-identical, per-stage
//       counters included. Mode "legacy": the ProcessorCell's
//       shift-in/compute/shift-out machinery must round-trip every
//       instruction packet to a golden_alu result packet under zero
//       faults, and identically-seeded faulted twin cells must emit
//       identical packets.
//
//   alu-vs-cmos — generated (op, a, b) instruction streams under zero
//       faults: every catalogued ALU, the gate-level CMOS reference
//       netlist, and the behavioural golden_alu must all agree, and the
//       module layer must report no disagreement/invalid flags.
//
//   serve-differential — a generated SweepSpec (defect density
//       included) rendered to the nbxd wire format and submitted to a
//       live in-process SweepService (generated worker count) on its
//       default lane engine must return bytes identical
//       to the canonical rendering of a direct scalar TrialEngine run
//       (points AND anatomy counters); resubmitting must hit the
//       content-addressed cache — identical bytes, exactly one computed
//       job; and a truncated/bit-flipped/garbage copy of the payload must
//       always yield a structured JSON response (truncation/garbage a
//       status:"error" one), never a crash.
//
//   decode-t-error — generated codewords with generated <= t-error
//       masks: hamming (t=1) and rs (one symbol) must restore the data
//       exactly; hsiao must restore at t=1 and refuse to touch the word
//       on a detected double; TMR LUT reads must return the golden bit
//       whenever at most one copy of each entry is hit.
//
// Failures shrink and serialize through check/property.hpp; replay is
// dispatched by property name (see oracle_property_by_name).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "check/property.hpp"

namespace nbx::check {

Property engine_differential_property();
Property scenario_differential_property();
Property pipeline_differential_property();
Property alu_vs_cmos_property();
Property decode_t_error_property();
Property serve_differential_property();

/// The oracle families, in reporting order.
std::vector<Property> oracle_properties();

/// Looks up one family by its name (replay dispatch).
std::optional<Property> oracle_property_by_name(std::string_view name);

/// Per-family case count of a default nbxcheck run — what each tier-1
/// `check_<family>` ctest entry runs (one entry per family, so `ctest -j`
/// runs the families in parallel). The totals across
/// oracle_properties() exceed 200 cases.
std::size_t default_smoke_cases(std::string_view property_name);

}  // namespace nbx::check
