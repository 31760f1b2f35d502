// One-call simulators binding algorithm × adversary × metrics.
//
// These are the library's top-level entry points: each runs one paper
// algorithm against a caller-supplied adversary and returns the measured
// RunResult.  run_oblivious_multi_source implements the full two-phase
// orchestration of Algorithm 2 (center election, walk phase, relabelled
// phase-2 TokenSpace, metric merging) — see Section 3.2.2 and DESIGN.md.
#pragma once

#include <cstdint>

#include "adversary/adversary.hpp"
#include "core/single_source.hpp"
#include "engine/run_harness.hpp"
#include "sim/config.hpp"

namespace dyngossip {

class ThreadPool;

// Every entry point takes an optional worker pool for intra-round engine
// sharding (null: serial engine) and the run's cross-cutting planes as one
// RunEnv (engine/run_harness.hpp: fault plan, wall-clock budget, telemetry;
// the default is fault-free, unbounded and unobserved).  Both forward to
// the engine; multi-phase executions share one plan so liveness history is
// continuous across phases.  See UnicastEngineOptions::pool for the pool
// contract; results are bit-identical at any thread count.

/// Runs Algorithm 1 (Single-Source-Unicast): all k tokens start at `source`.
[[nodiscard]] RunResult run_single_source(
    std::size_t n, std::uint32_t k, NodeId source, Adversary& adversary,
    Round max_rounds, ThreadPool* pool = nullptr, const RunEnv& env = {},
    RequestPriority priority = RequestPriority::kPaper);

/// Runs Multi-Source-Unicast over an arbitrary token labelling.
[[nodiscard]] RunResult run_multi_source(std::size_t n, const TokenSpacePtr& space,
                                         Adversary& adversary, Round max_rounds,
                                         ThreadPool* pool = nullptr,
                                         const RunEnv& env = {});

/// Runs the static spanning-tree baseline (static adversary required).
[[nodiscard]] RunResult run_spanning_tree(std::size_t n, const TokenSpacePtr& space,
                                          Adversary& adversary, Round max_rounds,
                                          NodeId root = 0,
                                          ThreadPool* pool = nullptr,
                                          const RunEnv& env = {});

/// Runs naive phase flooding (local broadcast) from an arbitrary initial
/// knowledge assignment.
[[nodiscard]] RunResult run_phase_flooding(std::size_t n, std::size_t k,
                                           const std::vector<KnowledgeSet>& initial,
                                           Adversary& adversary, Round max_rounds,
                                           ThreadPool* pool = nullptr,
                                           const RunEnv& env = {});

/// Runs uniform-random flooding (local broadcast).
[[nodiscard]] RunResult run_random_flooding(std::size_t n, std::size_t k,
                                            const std::vector<KnowledgeSet>& initial,
                                            Adversary& adversary, Round max_rounds,
                                            std::uint64_t seed,
                                            ThreadPool* pool = nullptr,
                                            const RunEnv& env = {});

/// Algorithm 2 options.  The RunEnv base is shared by both phase engines:
/// phase 2 continues phase 1's fault liveness history (the plan keys it on
/// absolute round numbers), the wall-clock budget covers the whole
/// two-phase run, and probe samples carry phase-continuous round numbers so
/// the per-round series reconciles with the merged totals.
struct ObliviousMsOptions : RunEnv {
  std::uint64_t seed = 1;        ///< algorithm randomness (centers + walks)
  Round max_rounds = 0;          ///< global cap (0: derive from n·k)
  Round phase1_cap = 0;          ///< phase-1 cap (0: derive, clamped ℓ bound)
  bool pseudocode_walk_prob = false;  ///< the 1/d(u) variant (paper typo)
  bool force_phase1 = false;     ///< run phase 1 even when s is small
  /// Overrides the expected center count f (0: paper formula
  /// n^{1/2} k^{1/4} log^{5/4} n).  At laptop-scale n the log^{5/4} factor
  /// saturates the formula at f = n, collapsing phase 1; benches drop the
  /// polylog factor to reproduce the asymptotic *shape* (see EXPERIMENTS.md).
  std::size_t f_override = 0;
  /// Worker pool for intra-round sharding of both phase engines (null:
  /// serial).  Same contract as UnicastEngineOptions::pool.
  ThreadPool* pool = nullptr;
};

/// Runs Algorithm 2 (Oblivious-Multi-Source-Unicast).  The adversary must
/// be oblivious for the guarantees to apply (not enforced: benches also
/// probe it against adaptive adversaries to show where the analysis breaks).
[[nodiscard]] ObliviousMsResult run_oblivious_multi_source(
    std::size_t n, const TokenSpacePtr& space, Adversary& adversary,
    const ObliviousMsOptions& opts);

}  // namespace dyngossip
