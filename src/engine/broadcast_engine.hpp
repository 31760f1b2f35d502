// Synchronous round engine for the local-broadcast model (Section 2).
//
// Order of play per round r, matching the strongly adaptive model used by
// the Section-2 lower bound:
//   1. every node v commits its broadcast token i_v(r) (or ⊥) — a
//      token-forwarding algorithm may choose only tokens it already holds;
//   2. the adversary, shown all intents and all knowledge sets, fixes the
//      connected graph G_r;
//   3. every broadcast is delivered to all round-r neighbors; each local
//      broadcast counts as ONE message (Definition 1.1);
//   4. token learnings are recorded and knowledge sets grow.
//
// The engine owns the authoritative knowledge mirror (used for metrics, the
// adversary view, and the token-forwarding check); algorithms keep whatever
// internal state they need on top.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/knowledge_set.hpp"
#include "common/types.hpp"
#include "engine/graph_plane.hpp"
#include "graph/dynamic_tracker.hpp"
#include "metrics/accounting.hpp"
#include "metrics/learning_log.hpp"
#include "telemetry/telemetry.hpp"

namespace dyngossip {

class FaultPlan;
class ThreadPool;

/// Per-node algorithm interface for the local-broadcast model.
///
/// Implementations are token-forwarding: choose_broadcast must return a
/// token the node currently knows (or kNoToken for silence); the engine
/// enforces this.
class BroadcastAlgorithm {
 public:
  virtual ~BroadcastAlgorithm() = default;

  /// i_v(r): the token to locally broadcast in round r, or kNoToken (⊥).
  /// Called before the adversary fixes the round graph, so the choice cannot
  /// depend on round-r neighbors (the model gives broadcasters no
  /// neighborhood preview).
  [[nodiscard]] virtual TokenId choose_broadcast(Round r) = 0;

  /// Delivery at the end of round r: the tokens broadcast by round-r
  /// neighbors (duplicates possible; ⊥ entries are filtered out).
  virtual void on_receive(Round r, std::span<const TokenId> tokens) = 0;
};

/// Engine options.
struct BroadcastEngineOptions {
  /// Record individual learning events (O(nk) memory) in the learning log.
  bool record_learning_events = false;
  /// Worker pool for intra-round sharding; null (or a 1-worker pool) keeps
  /// the fully serial path.  Same contract as UnicastEngineOptions::pool:
  /// node algorithms must touch only node-local state, and the engine must
  /// run on a non-pool thread (see sim/runner/shard_schedule.hpp for the
  /// trial-vs-intra-round policy).  Results are bit-identical to the serial
  /// engine at any thread count.
  ThreadPool* pool = nullptr;
  /// Minimum node count before sharding engages.
  std::size_t min_parallel_nodes = 4096;
  /// Per-trial fault plan (not owned).  Null or inactive keeps the exact
  /// fault-free code path; decisions are position-keyed (fault/fault_plan.hpp)
  /// so faulty runs stay bit-identical at any thread count.
  FaultPlan* faults = nullptr;
  /// Wall-clock budget for run() in seconds (0: none); over-budget runs
  /// stop with RunStatus::kTimeout.
  double run_timeout_seconds = 0.0;
  /// Observer plane (telemetry/telemetry.hpp): an optional per-round probe
  /// and an optional wall-clock timeline, both non-owning.  Null pointers
  /// keep the exact legacy code path; attached observers only READ engine
  /// state, so payload checksums are byte-identical either way.
  Telemetry telemetry;
};

/// Drives n BroadcastAlgorithm instances against an adversary.
class BroadcastEngine {
 public:
  /// Called after each round with (round, round graph, metrics so far).
  using RoundHook = std::function<void(Round, const Graph&, const RunMetrics&)>;

  /// `initial_knowledge[v]` is K_v(0); all bitsets must have universe k.
  BroadcastEngine(std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes,
                  Adversary& adversary,
                  std::vector<KnowledgeSet> initial_knowledge, std::size_t k,
                  BroadcastEngineOptions opts = {});

  /// Executes one round; returns its number.
  Round step();

  /// Runs until every node knows all k tokens or `max_rounds` elapse;
  /// returns the final metrics (completed flag set accordingly).
  RunMetrics run(Round max_rounds);

  /// True iff every node knows all k tokens.
  [[nodiscard]] bool all_complete() const noexcept {
    return complete_nodes_ == knowledge_.size();
  }

  /// Run-level completion: all_complete() on the fault-free path; under an
  /// active fault plan, at least one live node exists and every live node
  /// is complete (crashed nodes don't count until recovery).
  [[nodiscard]] bool run_complete() const;

  /// Fraction of (node, token) pairs currently known (1.0 for an empty
  /// universe).
  [[nodiscard]] double coverage() const;

  /// Authoritative knowledge of node v.
  [[nodiscard]] const KnowledgeSet& knowledge_of(NodeId v) const {
    return knowledge_[v];
  }

  /// Metrics accumulated so far.
  [[nodiscard]] const RunMetrics& metrics() const noexcept { return metrics_; }

  /// Last executed round (0 before the first step).
  [[nodiscard]] Round round() const noexcept { return round_; }

  /// Number of nodes.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }

  /// Learning log (counts always; events if enabled).
  [[nodiscard]] const LearningLog& learning_log() const noexcept { return log_; }

  /// Installs a per-round observer (benches record series through this).
  void set_round_hook(RoundHook hook) { hook_ = std::move(hook); }

 private:
  /// Per-shard scratch: intent counter for the choose phase, inbox buffer
  /// plus learning counters for the delivery phase.  Reused across rounds.
  struct Shard {
    std::uint64_t broadcasts = 0;
    std::uint64_t learnings = 0;
    std::size_t newly_complete = 0;
    // Probe-only fault-fate counts (written only when a probe is attached),
    // folded in shard order like the metric counters.
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::vector<TokenId> inbox;
  };

  /// Number of node shards this round (1 = serial path).
  [[nodiscard]] std::size_t plan_shards() const noexcept;

  /// Records one probe sample at round r when the probe's stride says so
  /// (`flush` forces a final sample so per-round sums stay exact at any
  /// stride).  Only called with a probe attached.
  void probe_observe(Round r, std::uint64_t edges, bool flush);

  std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes_;
  Adversary& adversary_;
  std::vector<KnowledgeSet> knowledge_;
  std::size_t k_;
  std::size_t complete_nodes_ = 0;
  DynamicGraphTracker tracker_;
  RunMetrics metrics_;
  LearningLog log_;
  Round round_ = 0;
  ThreadPool* pool_;
  std::size_t min_parallel_nodes_;
  FaultPlan* faults_;
  bool fault_active_;   ///< faults_ != null && faults_->active()
  bool fault_amnesia_;  ///< fault_active_ && amnesia wipes on crash
  double run_timeout_seconds_;
  Telemetry telemetry_;
  // Probe bookkeeping (touched only when telemetry_.probe != nullptr):
  // metrics snapshot at the last recorded sample (samples carry per-round
  // deltas), fault-fate counters accumulated across stride-skipped rounds,
  // and the last round graph's edge count for the final flush sample.
  RunMetrics probe_prev_;
  std::uint64_t probe_dropped_ = 0;
  std::uint64_t probe_duplicated_ = 0;
  std::uint64_t probe_edges_ = 0;
  RoundHook hook_;
  std::vector<TokenId> intents_;       // scratch: i_v(r)
  std::vector<TokenId> inbox_scratch_; // scratch: per-node deliveries
  std::vector<Shard> shards_;          // scratch: sharded-path counters
  RoundGraphPlane plane_;              // G_r: CSR view, checks, tracker
};

}  // namespace dyngossip
