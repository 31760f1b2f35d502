// Synchronous round engine for the unicast model (Section 3).
//
// Order of play per round r:
//   1. the adversary fixes the connected graph G_r (adaptive adversaries see
//      the full state and the previous round's traffic — for the paper's
//      deterministic unicast algorithms this equals strong adaptivity);
//   2. every node is told the IDs of its round-r neighbors (the model's
//      known-neighborhood assumption), with each edge's since round, and
//      emits per-neighbor messages — except that a node which declared
//      itself quiescent is not called again until an incident edge is
//      inserted, a payload is delivered to it or it recovers (the wake
//      set; see UnicastAlgorithm::quiescent);
//   3. messages are delivered at the end of the round; each payload to each
//      neighbor counts as one message (Definition 1.1, unicast mode);
//   4. token learnings are recorded; duplicate token deliveries are counted
//      separately (the paper's algorithms deliver each token to each node
//      exactly once — a tested invariant).
//
// The engine enforces the model's bandwidth restriction: at most
// `max_payloads_per_edge` payloads per directed edge per round (the paper
// allows a constant number of tokens plus O(log n) bits; the Multi-Source
// algorithm uses at most three payloads — announcement, token, request).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/knowledge_set.hpp"
#include "common/types.hpp"
#include "engine/graph_plane.hpp"
#include "engine/message.hpp"
#include "engine/run_harness.hpp"
#include "metrics/accounting.hpp"
#include "metrics/learning_log.hpp"

namespace dyngossip {

class ThreadPool;

/// Outbox handed to a node during its send step; delivery is end-of-round.
///
/// The engine points every node's outbox at one shared traffic buffer that
/// is reused across rounds (records appended since the node's send began
/// are validated against that node); a default-constructed Outbox owns its
/// records (unit-test convenience).
class Outbox {
 public:
  Outbox() : sink_(&owned_) {}

  // Non-copyable/movable: a copy's sink_ would alias the source's owned_
  // buffer (dangling once the source dies).
  Outbox(const Outbox&) = delete;
  Outbox& operator=(const Outbox&) = delete;

  /// Queues one payload to a current neighbor.
  void send(NodeId to, const Message& m) { sink_->push_back({from_, to, m}); }

 private:
  friend class UnicastEngine;
  Outbox(NodeId from, std::vector<SentRecord>& sink) : from_(from), sink_(&sink) {}

  NodeId from_ = kNoNode;
  std::vector<SentRecord>* sink_;
  std::vector<SentRecord> owned_;  ///< backing store for the default ctor only
};

/// A node's round-r neighborhood as send() sees it: the sorted neighbor
/// ids (known at round start per the model) and, aligned with them, each
/// edge's `since` round — the first round of the edge's current unbroken
/// run of presence as this node has seen it (see engine/graph_plane.hpp).
struct NeighborView {
  std::span<const NodeId> ids;
  std::span<const Round> since;
};

/// Per-node algorithm interface for the unicast model.
class UnicastAlgorithm {
 public:
  virtual ~UnicastAlgorithm() = default;

  /// Round r send step.  Messages queued on `out` are delivered to
  /// recipients at the end of the round.
  virtual void send(Round r, NeighborView neighbors, Outbox& out) = 0;

  /// Delivery of one payload at the end of round r.
  virtual void on_receive(Round r, NodeId from, const Message& m) = 0;

  /// Asked right after send(): true promises that send() would queue
  /// nothing and change no state in any later round in which, since this
  /// call, no edge to the node was inserted, no payload was delivered to
  /// it and it did not recover from a crash — whatever edges were removed.
  /// The engine then skips those calls.  The default keeps the node
  /// called in every live round.
  [[nodiscard]] virtual bool quiescent() const { return false; }
};

/// Engine options; the fault plan, watchdog budget and telemetry come from
/// RunEnv (engine/run_harness.hpp).
struct UnicastEngineOptions : RunEnv {
  /// First round number this engine executes (phase-2 engines of
  /// Algorithm 2 continue a running execution).
  Round start_round = 1;
  /// Graph plane shared by consecutive phases of one execution (its last
  /// round must be start_round - 1); if null the engine owns a fresh plane
  /// (G_0 = ∅).  It must keep since (track_since).
  RoundGraphPlane* plane = nullptr;
  /// Bandwidth cap: payloads per directed edge per round (model: O(1)).
  std::uint32_t max_payloads_per_edge = 4;
  /// Record individual learning events (O(nk) memory).
  bool record_learning_events = false;
  /// Worker pool for intra-round sharding; null (or a 1-worker pool) keeps
  /// the fully serial path.  Sharding requires that node algorithms touch
  /// only node-local state in send()/on_receive() (true for every algorithm
  /// in this repo), and the engine must run on a non-pool thread: the pool
  /// is a leaf executor (see sim/runner/thread_pool.hpp), so hand engines a
  /// pool only when trials are NOT already parallelized across it
  /// (sim/runner/shard_schedule.hpp implements that policy).  Results are
  /// bit-identical to the serial engine at any thread count: the per-shard
  /// outboxes are merged in node order and delivery preserves each
  /// recipient's serial record subsequence.
  ThreadPool* pool = nullptr;
  /// Minimum node count before sharding engages (below it fork/join
  /// overhead dominates a round).  Tests lower this to force sharding at
  /// small n.
  std::size_t min_parallel_nodes = 4096;
};

/// Drives n UnicastAlgorithm instances against an adversary.
class UnicastEngine {
 public:
  /// Called after each round with (round, round graph, metrics so far).
  using RoundHook = std::function<void(Round, const Graph&, const RunMetrics&)>;
  /// Stop predicate for run_until.
  using StopPredicate = std::function<bool(const UnicastEngine&)>;

  /// `initial_knowledge[v]` is K_v(0) over a k-token universe.
  UnicastEngine(std::vector<std::unique_ptr<UnicastAlgorithm>> nodes,
                Adversary& adversary, std::vector<KnowledgeSet> initial_knowledge,
                std::size_t k, UnicastEngineOptions opts = {});

  /// Executes one round; returns its number.
  Round step();

  /// Runs until every node knows all k tokens or the round limit; returns
  /// final metrics with the completed flag set.
  RunMetrics run(Round max_rounds);

  /// Runs until `done(*this)` or the round limit; the completed flag
  /// reflects the run-level completion predicate at exit.
  RunMetrics run_until(const StopPredicate& done, Round max_rounds);

  /// True iff every node knows all k tokens.
  [[nodiscard]] bool all_complete() const noexcept { return run_.all_complete(); }

  /// The shared per-trial state: run_complete(), coverage(), liveness.
  [[nodiscard]] const RunHarness& harness() const noexcept { return run_; }

  /// Authoritative knowledge of node v.
  [[nodiscard]] const KnowledgeSet& knowledge_of(NodeId v) const {
    return run_.knowledge_of(v);
  }

  /// Metrics accumulated by this engine (phase-local for multi-phase runs).
  [[nodiscard]] const RunMetrics& metrics() const noexcept { return run_.metrics(); }

  /// Mutable metrics hook for simulators folding in algorithm-level stats
  /// (e.g. Algorithm 2's virtual self-loop steps).
  [[nodiscard]] RunMetrics& mutable_metrics() noexcept { return run_.metrics(); }

  /// Last executed round (start_round - 1 before the first step).
  [[nodiscard]] Round round() const noexcept { return round_; }

  /// Number of nodes.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }

  /// The algorithm instance of node v (simulators downcast to read
  /// algorithm-specific stats).
  [[nodiscard]] UnicastAlgorithm& node(NodeId v) { return *nodes_[v]; }
  [[nodiscard]] const UnicastAlgorithm& node(NodeId v) const { return *nodes_[v]; }

  /// Learning log (counts always; events if enabled).
  [[nodiscard]] const LearningLog& learning_log() const noexcept { return log_; }

  /// Installs a per-round observer.
  void set_round_hook(RoundHook hook) { hook_ = std::move(hook); }

 private:
  /// Per-shard send-phase scratch (outbox + message counters), reused
  /// across rounds; merged in shard (= node) order after the joins.
  struct SendShard {
    std::vector<SentRecord> traffic;
    MessageCounts counts;
  };

  /// Per-shard delivery-phase counters, folded into the engine totals
  /// after the join.
  struct DeliverShard {
    std::uint64_t learnings = 0;
    std::uint64_t duplicates = 0;
    std::size_t newly_complete = 0;
  };

  /// Validates and accounts the records a node appended to `sink` since
  /// `mark` (shared by the serial and sharded send paths).
  void validate_sent(NodeId v, std::vector<SentRecord>& sink, std::size_t mark,
                     MessageCounts& counts);

  /// Runs node v's send step if it is live and awake, then records whether
  /// it stays awake (shared by the serial and sharded send paths).
  void send_node(Round r, NodeId v, std::vector<SentRecord>& sink,
                 MessageCounts& counts);

  /// Crash rule for the nodes that recovered into round r: each arc whose
  /// `since` is later than the node's last live round gets the value the
  /// node saw before its crash, or r for a neighbor it did not have then —
  /// so a recovered node classifies its edges exactly as if its own record
  /// had been frozen while it was down.  Called after the plane ingests G_r.
  void rebase_recovered(Round r);

  void send_phase_sharded(Round r, std::size_t shards);
  void deliver_sharded(Round r, std::size_t shards);

  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes_;
  Adversary& adversary_;
  RunHarness run_;  ///< knowledge mirror, metrics, faults, probe, termination
  LearningLog log_;
  Round round_;
  std::uint32_t max_payloads_per_edge_;
  ThreadPool* pool_;
  std::size_t min_parallel_nodes_;
  RoundHook hook_;
  std::vector<SentRecord> prev_messages_;
  std::unique_ptr<RoundGraphPlane> owned_plane_;
  RoundGraphPlane& plane_;                ///< G_r: CSR view, checks, diff, since
  /// Wake set, one byte per node: nonzero iff send() must run in the next
  /// live round (the node was not quiescent after its last send, or an
  /// incident edge was inserted, a payload delivered or it recovered since).
  /// Written by the shard that owns the node, or serially.
  std::vector<std::uint8_t> awake_;
  // Crash bookkeeping (touched only under an active fault plan): the round each
  // crashed node went down and its (neighbor, since) pairs at that moment,
  // which its recovery restores (see rebase_recovered()).
  std::vector<Round> crashed_at_;
  std::vector<std::vector<std::pair<NodeId, Round>>> crash_snapshot_;
  // Per-round scratch, reused across rounds (see step()).
  std::vector<SentRecord> traffic_;       ///< round-r records (swapped into prev)
  /// Payload counts per directed arc; zero outside a sender's own send().
  std::vector<std::uint32_t> arc_budget_;
  // Fault-path scratch (touched only under an active fault plan), reused across
  // rounds: per-record delivery fates and per-arc delivery sequences.
  std::vector<std::uint8_t> fate_;        ///< FaultPlan::Fate per traffic record
  std::vector<std::uint32_t> arc_seq_;    ///< delivery sequence per directed arc
  // Sharded-path scratch, reused across rounds.
  std::vector<SendShard> send_shards_;
  std::vector<DeliverShard> deliver_shards_;
  std::vector<std::size_t> recipient_begin_;   ///< bucket offsets per recipient
  std::vector<std::size_t> recipient_cursor_;  ///< scatter cursor per recipient
  std::vector<std::size_t> record_of_;         ///< traffic indices, bucketed
};

}  // namespace dyngossip
