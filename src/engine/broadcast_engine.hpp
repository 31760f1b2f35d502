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
#include "engine/run_harness.hpp"
#include "graph/dynamic_tracker.hpp"
#include "metrics/accounting.hpp"
#include "metrics/learning_log.hpp"

namespace dyngossip {

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

/// Engine options; the fault plan, watchdog budget and telemetry come from
/// RunEnv (engine/run_harness.hpp).
struct BroadcastEngineOptions : RunEnv {
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
  [[nodiscard]] bool all_complete() const noexcept { return run_.all_complete(); }

  /// Authoritative knowledge of node v.
  [[nodiscard]] const KnowledgeSet& knowledge_of(NodeId v) const {
    return run_.knowledge_of(v);
  }

  /// Metrics accumulated so far.
  [[nodiscard]] const RunMetrics& metrics() const noexcept { return run_.metrics(); }

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

  std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes_;
  Adversary& adversary_;
  RunHarness run_;  ///< knowledge mirror, metrics, faults, probe, termination
  DynamicGraphTracker tracker_;
  LearningLog log_;
  Round round_ = 0;
  ThreadPool* pool_;
  std::size_t min_parallel_nodes_;
  RoundHook hook_;
  std::vector<TokenId> intents_;       // scratch: i_v(r)
  std::vector<TokenId> inbox_scratch_; // scratch: per-node deliveries
  std::vector<Shard> shards_;          // scratch: sharded-path counters
  RoundGraphPlane plane_;              // G_r: CSR view, checks, tracker
};

}  // namespace dyngossip
