// lane_engine.hpp — the SIMD-wide lane engine's entry point.
//
// The trial engine picks a lane-word width W from the requested lane
// count (lane_words_for) and calls run_wide_group once per lane group.
// What crosses into the kernel translation unit (lane_engine.cpp) is
// this plain-data job description plus the worker's reusable arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/batch_bitvec.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "fault/mask_generator.hpp"
#include "obs/counters.hpp"
#include "workload/instruction_stream.hpp"

namespace nbx::simd {

class WideMirror;

/// Reusable per-worker scratch (the arena): one thread_local instance
/// per worker thread, sized on first use and reused for every lane
/// group after — the batched hot path performs zero heap allocations in
/// steady state (enforced by tests/audit/alloc_audit_test.cpp).
struct WideArena {
  BatchBitVec mask;                  ///< total_sites x lanes fault mask
  std::vector<Rng> rngs;             ///< one per lane in the group
  std::vector<std::uint32_t> incorrect;  ///< per-lane wrong-result count
  std::vector<std::uint64_t> nodes;  ///< netlist node words (W per node)
  BitVec lane_mask;                  ///< Hsiao/RS decode lane extraction
  std::vector<MaskGenerator> gens;   ///< per-lane generators (wear-out
                                     ///< schedules only; empty when the
                                     ///< group shares WideGroupJob::gen)

  /// Approximate resident size of this arena's buffers, for the
  /// engine_arena_bytes gauge. Capacities, not sizes — the arena never
  /// shrinks, so this is what the worker actually holds.
  [[nodiscard]] std::size_t bytes() const {
    return mask.sites() * mask.lane_words() * sizeof(std::uint64_t) +
           rngs.capacity() * sizeof(Rng) +
           incorrect.capacity() * sizeof(std::uint32_t) +
           nodes.capacity() * sizeof(std::uint64_t) +
           (lane_mask.size() + 7) / 8 +
           gens.capacity() * sizeof(MaskGenerator);
  }
};

/// Everything one lane-group trial needs, flattened. The kernel runs the
/// whole instruction stream for the group: per instruction it clears the
/// mask, regenerates every lane's mask from its Rng (identical draws to
/// the scalar engine — the bit-identity contract), evaluates the mirror,
/// and scores lanes against the golden results.
struct WideGroupJob {
  const WideMirror* mirror = nullptr;
  const MaskGenerator* gen = nullptr;  ///< bound to inject_sites
  /// Per-lane generators (gens[l] for lane l), or null when every lane
  /// shares `gen`. Non-null under a FaultScenario rate schedule, where
  /// each lane is a different trial index running at its own effective
  /// rate; lane l still consumes rngs[l] draw-for-draw like the scalar
  /// engine, so bit-identity holds at every width.
  const MaskGenerator* gens = nullptr;
  const Instruction* stream = nullptr;
  std::size_t stream_len = 0;
  unsigned in_group = 0;      ///< active lanes, 1 .. 64 * lane_words
  std::size_t total_sites = 0;
  std::size_t inject_sites = 0;
  obs::Counters* anatomy = nullptr;  ///< null = anatomy off
  WideArena* arena = nullptr;  ///< mask/rngs sized by the caller;
                               ///< incorrect[] is the kernel's output
};

/// Runs one lane group (job.in_group trials) at `lane_words` words per
/// site row. lane_words must be 1, 2, 4 or 8 and the job's arena must be
/// pre-shaped by the caller (see trial_engine.cpp).
void run_wide_group(std::size_t lane_words, const WideGroupJob& job);

}  // namespace nbx::simd
