// Per-trial fault plan: the deterministic realization of a FaultSpec.
//
// Determinism contract (the fault-plane analogue of the engines'
// order-preserving sharding): every decision is *position-keyed*, never
// order-keyed.  A delivery's fate is a pure SplitMix64 hash of
// (round, arc-index, per-arc payload sequence); a node's crash/recovery
// roll is a pure hash of (round, node).  No decision consumes stream state,
// so the engines may evaluate them in any order — serial, sharded, or
// skipped entirely for records that were already dropped — and the outcome
// is bit-identical at any thread count (enforced by
// tests/engine/sharded_identity_test.cpp and the CI 1/2/8-thread diff).
//
// The only mutable state is the liveness mask, advanced once per round by
// begin_round() on the engine's (single) driver thread before any sharded
// phase starts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "fault/fault_spec.hpp"

namespace dyngossip {

/// One trial's fault realization.  Engines hold a non-owning pointer (null
/// or inactive => the exact legacy fault-free code path).
class FaultPlan {
 public:
  /// What the network does with one delivered payload.
  enum class Fate : std::uint8_t { kDeliver = 0, kDrop = 1, kDuplicate = 2 };

  /// `trial_seed` seeds the decision stream unless the spec pins seed=.
  FaultPlan(const FaultSpec& spec, std::size_t n, std::uint64_t trial_seed);

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

  /// True when the plan can alter a run; engines branch to the fault-aware
  /// path only in that case (inactive plans preserve byte-identity).
  [[nodiscard]] bool active() const noexcept { return spec_.active(); }

  /// Advances the liveness mask into round r (crash rolls for live nodes,
  /// recovery rolls for crashed ones — state as of round start, so a node
  /// never crashes and recovers in the same round).  Must be called with
  /// strictly increasing r; multi-phase executions (Algorithm 2) continue
  /// the same plan across engines.  Serial — call before sharded phases.
  void begin_round(Round r);

  /// Liveness of node v as of the last begin_round.
  [[nodiscard]] bool is_live(NodeId v) const { return live_[v] != 0; }

  /// Number of live nodes as of the last begin_round.
  [[nodiscard]] std::size_t live_count() const noexcept { return live_count_; }

  /// Nodes that crashed in the round begin_round last advanced into
  /// (engines wipe their knowledge mirrors under amnesia).
  [[nodiscard]] const std::vector<NodeId>& crashed_this_round() const noexcept {
    return crashed_now_;
  }

  /// Nodes that recovered in the round(s) begin_round last advanced through
  /// (a node may also appear in crashed_this_round() when begin_round
  /// skipped rounds; is_live() tells its state now).
  [[nodiscard]] const std::vector<NodeId>& recovered_this_round() const noexcept {
    return recovered_now_;
  }

  [[nodiscard]] bool amnesia() const noexcept { return spec_.amnesia; }

  /// True when crashed nodes can come back (recover > 0) — an all-down
  /// execution without recovery is terminal (RunStatus::kAllDown).
  [[nodiscard]] bool can_recover() const noexcept { return spec_.recover > 0.0; }

  /// True when any per-delivery probability is nonzero (drop/dup).
  [[nodiscard]] bool has_delivery_faults() const noexcept {
    return spec_.drop > 0.0 || spec_.dup > 0.0;
  }

  /// Fate of the `seq`-th payload crossing directed arc `arc` in round r.
  /// Pure position-keyed hash: one uniform u in [0,1); u < drop => dropped,
  /// else u < drop + dup => duplicated.
  [[nodiscard]] Fate delivery_fate(Round r, std::size_t arc,
                                   std::uint32_t seq) const;

 private:
  /// Uniform [0, 1) from a position-keyed SplitMix64 hash (no state).
  [[nodiscard]] double roll(std::uint64_t salt, std::uint64_t a,
                            std::uint64_t b) const;

  FaultSpec spec_;
  std::uint64_t seed_;
  Round last_round_ = 0;
  std::size_t live_count_;
  std::vector<std::uint8_t> live_;
  std::vector<NodeId> crashed_now_;
  std::vector<NodeId> recovered_now_;
};

}  // namespace dyngossip
