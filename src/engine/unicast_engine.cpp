#include "engine/unicast_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/timeline.hpp"

namespace dyngossip {

UnicastEngine::UnicastEngine(std::vector<std::unique_ptr<UnicastAlgorithm>> nodes,
                             Adversary& adversary,
                             std::vector<KnowledgeSet> initial_knowledge,
                             std::size_t k, UnicastEngineOptions opts)
    : nodes_(std::move(nodes)),
      adversary_(adversary),
      run_(std::move(initial_knowledge), k, opts,
           RunLimits{.stall_floor = 256,
                     .stall_per_node = 2,
                     .watchdog_stride = 32,
                     .start_offset = opts.start_round - 1}),
      owned_tracker_(opts.tracker != nullptr
                         ? nullptr
                         : std::make_unique<DynamicGraphTracker>(nodes_.size())),
      tracker_(opts.tracker != nullptr ? opts.tracker : owned_tracker_.get()),
      log_(opts.record_learning_events),
      round_(opts.start_round - 1),
      max_payloads_per_edge_(opts.max_payloads_per_edge),
      pool_(opts.pool),
      min_parallel_nodes_(opts.min_parallel_nodes),
      plane_(*tracker_, opts.telemetry.timeline, /*track_since=*/true) {
  DG_CHECK(!nodes_.empty());
  DG_CHECK(nodes_.size() == run_.num_nodes());
  DG_CHECK(adversary_.num_nodes() == nodes_.size());
  DG_CHECK(opts.start_round >= 1);
  DG_CHECK(tracker_->num_nodes() == nodes_.size());
  DG_CHECK(tracker_->rounds() == round_);
  awake_.assign(nodes_.size(), 1);
  if (run_.fault_active()) {
    // A node already down when this engine starts has seen nothing here:
    // on recovery every edge counts from the recovery round.
    crashed_at_.assign(nodes_.size(), opts.start_round);
    crash_snapshot_.resize(nodes_.size());
  }
}

void UnicastEngine::validate_sent(NodeId v, std::vector<SentRecord>& sink,
                                  std::size_t mark, MessageCounts& counts) {
  const std::size_t n = nodes_.size();
  std::size_t w = mark;
  for (std::size_t i = mark; i < sink.size(); ++i) {
    const SentRecord& rec = sink[i];
    DG_CHECK(rec.to < n && rec.to != v);
    const std::size_t arc = plane_.view().arc_index(v, rec.to);
    DG_CHECK(arc != kNoArc);  // may only address current neighbors
    // Token-forwarding: only held tokens may be shipped.
    if (rec.msg.type == MsgType::kToken) {
      DG_CHECK(rec.msg.token < run_.k());
      if (!run_.knowledge_of(v).test(rec.msg.token)) {
        // Under amnesia a recovered node's algorithm state legitimately
        // diverges from its wiped knowledge mirror; such sends are filtered
        // (not counted, not delivered) instead of tripping the invariant.
        DG_CHECK(run_.fault_amnesia());
        continue;
      }
    }
    // Race-free across shards: the arcs of sender v form one contiguous
    // CSR block and v belongs to exactly one shard.
    const std::uint32_t used = ++arc_budget_[arc];
    DG_CHECK(used <= max_payloads_per_edge_);
    counts.add(rec.msg.type);
    if (w != i) sink[w] = sink[i];
    ++w;
  }
  sink.resize(w);
}

void UnicastEngine::send_node(Round r, NodeId v, std::vector<SentRecord>& sink,
                              MessageCounts& counts) {
  if (awake_[v] == 0) return;
  if (!run_.is_live(v)) return;  // crashed: silent
  UnicastAlgorithm& node = *nodes_[v];
  Outbox out(v, sink);
  const std::size_t mark = sink.size();
  node.send(r, NeighborView{plane_.view().neighbors(v), plane_.since(v)}, out);
  validate_sent(v, sink, mark, counts);
  awake_[v] = node.quiescent() ? 0 : 1;
}

void UnicastEngine::rebase_recovered(Round r) {
  const FaultPlan& faults = run_.faults();
  const RoundGraphView& csr = plane_.view();
  for (const NodeId v : faults.recovered_this_round()) {
    if (!faults.is_live(v)) continue;
    awake_[v] = 1;
    const Round last_live = crashed_at_[v] - 1;
    const std::vector<std::pair<NodeId, Round>>& seen = crash_snapshot_[v];
    const std::span<const NodeId> ids = csr.neighbors(v);
    const std::span<Round> since = plane_.mutable_since(v);
    std::size_t p = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (since[i] <= last_live) continue;  // present throughout: unchanged
      while (p < seen.size() && seen[p].first < ids[i]) ++p;
      since[i] = p < seen.size() && seen[p].first == ids[i] ? seen[p].second : r;
    }
  }
}

void UnicastEngine::send_phase_sharded(Round r, std::size_t shards) {
  const std::size_t n = nodes_.size();
  const std::size_t chunk = (n + shards - 1) / shards;
  send_shards_.resize(shards);
  parallel_for(*pool_, shards, [&](std::size_t s) {
    const TimelineSpan span(run_.telemetry().timeline, "send_shard", "shard");
    SendShard& sh = send_shards_[s];
    sh.traffic.clear();
    sh.counts = MessageCounts{};
    const auto lo = static_cast<NodeId>(s * chunk);
    const auto hi = static_cast<NodeId>(std::min(n, (s + 1) * chunk));
    for (NodeId v = lo; v < hi; ++v) send_node(r, v, sh.traffic, sh.counts);
  });
  // Deterministic reduction: shards cover [0, n) in increasing node order,
  // so appending per-shard outboxes in shard order reproduces the serial
  // traffic buffer byte-for-byte.
  std::size_t total = 0;
  for (const SendShard& sh : send_shards_) total += sh.traffic.size();
  traffic_.clear();
  traffic_.reserve(total);
  for (const SendShard& sh : send_shards_) {
    traffic_.insert(traffic_.end(), sh.traffic.begin(), sh.traffic.end());
    run_.metrics().unicast += sh.counts;
  }
}

void UnicastEngine::deliver_sharded(Round r, std::size_t shards) {
  const std::size_t n = nodes_.size();
  // Serial stable bucketization by recipient (counts → prefix sums →
  // order-preserving scatter): each recipient then sees its records in the
  // exact subsequence the serial delivery loop would hand it, which is all
  // that node-local on_receive state can observe.
  recipient_begin_.assign(n + 1, 0);
  for (const SentRecord& rec : traffic_) ++recipient_begin_[rec.to + 1];
  for (std::size_t v = 0; v < n; ++v) {
    recipient_begin_[v + 1] += recipient_begin_[v];
  }
  record_of_.resize(traffic_.size());
  recipient_cursor_.assign(recipient_begin_.begin(), recipient_begin_.end());
  for (std::size_t i = 0; i < traffic_.size(); ++i) {
    record_of_[recipient_cursor_[traffic_[i].to]++] = i;
  }
  const std::size_t chunk = (n + shards - 1) / shards;
  deliver_shards_.resize(shards);
  parallel_for(*pool_, shards, [&](std::size_t s) {
    const TimelineSpan span(run_.telemetry().timeline, "deliver_shard", "shard");
    DeliverShard& sh = deliver_shards_[s];
    sh = DeliverShard{};
    const auto lo = static_cast<NodeId>(s * chunk);
    const auto hi = static_cast<NodeId>(std::min(n, (s + 1) * chunk));
    constexpr auto kDrop = static_cast<std::uint8_t>(FaultPlan::Fate::kDrop);
    constexpr auto kDup =
        static_cast<std::uint8_t>(FaultPlan::Fate::kDuplicate);
    for (NodeId v = lo; v < hi; ++v) {
      for (std::size_t j = recipient_begin_[v]; j < recipient_begin_[v + 1]; ++j) {
        const std::size_t idx = record_of_[j];
        const SentRecord& rec = traffic_[idx];
        const std::uint8_t fate = run_.fault_active() ? fate_[idx] : 0;
        if (fate == kDrop) continue;
        awake_[v] = 1;
        const int copies = fate == kDup ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          if (rec.msg.type == MsgType::kToken) {
            if (run_.learn(v, rec.msg.token, sh.newly_complete)) {
              ++sh.learnings;
            } else {
              ++sh.duplicates;
            }
          }
          nodes_[v]->on_receive(r, rec.from, rec.msg);
        }
      }
    }
  });
  RunMetrics& m = run_.metrics();
  for (const DeliverShard& sh : deliver_shards_) {
    m.learnings += sh.learnings;
    m.duplicate_token_deliveries += sh.duplicates;
    run_.add_completed(sh.newly_complete);
    log_.add_batch(sh.learnings, r);
  }
}

Round UnicastEngine::step() {
  const Round r = ++round_;
  const std::size_t n = nodes_.size();
  TimelineRecorder* const timeline = run_.telemetry().timeline;
  RunMetrics& m = run_.metrics();
  const TimelineSpan round_span(timeline, "round", "round");

  // 0. Fault plane: the harness advances liveness into round r.  A crashing
  // node's (neighbor, since) pairs are snapshotted while the view still
  // holds G_{r-1}, its last live round.
  run_.begin_round(r);
  if (run_.fault_active()) {
    const RoundGraphView& before = plane_.view();
    for (const NodeId v : run_.faults().crashed_this_round()) {
      crashed_at_[v] = r;
      std::vector<std::pair<NodeId, Round>>& seen = crash_snapshot_[v];
      seen.clear();
      if (before.num_nodes() == n) {
        const std::span<const NodeId> ids = before.neighbors(v);
        const std::span<const Round> since = plane_.since(v);
        for (std::size_t i = 0; i < ids.size(); ++i) seen.emplace_back(ids[i], since[i]);
      }
    }
  }

  // 1. Adversary fixes G_r with full visibility of state and history.  The
  // returned reference is adversary-owned and stays valid through the round;
  // the graph plane absorbs it into the reusable CSR view.
  UnicastRoundView view;
  view.round = r;
  view.prev_messages = &prev_messages_;
  view.knowledge = &run_.knowledge();
  const GraphDiff& diff = plane_.advance(
      r, [&]() -> const Graph& { return adversary_.unicast_round(view); });
  m.tc += diff.inserted.size();
  m.deletions += diff.removed.size();
  const RoundGraphView& csr = plane_.view();
  // An inserted edge wakes both endpoints; a removal wakes nobody.
  for (const EdgeKey key : diff.inserted) {
    const auto [a, b] = edge_endpoints(key);
    awake_[a] = 1;
    awake_[b] = 1;
  }
  if (run_.fault_active()) rebase_recovered(r);

  const std::size_t shards = plan_shards(pool_, n, min_parallel_nodes_);

  // 2. Send step: each awake live node sees its sorted neighbor span and
  // the edges' since rounds (served by the plane — no per-node allocation,
  // sort or merge) and queues per-neighbor payloads.  Sharded: per-shard
  // outboxes, merged in node order.
  {
    const TimelineSpan span(timeline, "send_phase", "phase");
    arc_budget_.assign(csr.num_arcs(), 0);
    if (shards > 1) {
      send_phase_sharded(r, shards);
    } else {
      traffic_.clear();
      for (NodeId v = 0; v < n; ++v) send_node(r, v, traffic_, m.unicast);
    }
  }

  // 2b. Fault plane: seal each record's delivery fate in one serial pass.
  // Fates are position-keyed hashes of (round, arc, per-arc sequence) — not
  // of evaluation order — so the sharded delivery below observes the same
  // fates the serial loop would.  A payload addressed to a crashed node is
  // dropped outright; drops still cost the sender (counted at send time).
  if (run_.fault_active()) {
    const TimelineSpan span(timeline, "fault_seal", "phase");
    const FaultPlan& faults = run_.faults();
    fate_.assign(traffic_.size(), 0);
    const bool delivery_faults = faults.has_delivery_faults();
    if (delivery_faults) arc_seq_.assign(csr.num_arcs(), 0);
    for (std::size_t i = 0; i < traffic_.size(); ++i) {
      const SentRecord& rec = traffic_[i];
      if (!faults.is_live(rec.to)) {
        fate_[i] = static_cast<std::uint8_t>(FaultPlan::Fate::kDrop);
        continue;
      }
      if (!delivery_faults) continue;
      const std::size_t arc = csr.arc_index(rec.from, rec.to);
      fate_[i] = static_cast<std::uint8_t>(
          faults.delivery_fate(r, arc, arc_seq_[arc]++));
    }
  }

  // Probe-only fate accounting: a pure read of the sealed fates (never the
  // plan), so a probed faulty run delivers exactly what the unprobed one
  // does.
  if (run_.counting_fates()) {
    constexpr auto kDropF = static_cast<std::uint8_t>(FaultPlan::Fate::kDrop);
    constexpr auto kDupF =
        static_cast<std::uint8_t>(FaultPlan::Fate::kDuplicate);
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    for (const std::uint8_t fate : fate_) {
      dropped += fate == kDropF ? 1 : 0;
      duplicated += fate == kDupF ? 1 : 0;
    }
    run_.count_fates(dropped, duplicated);
  }

  // 3 + 4. End-of-round delivery; learnings recorded against the mirror
  // before algorithms observe the payloads.  The sharded path needs batch
  // learning counts, so individual event recording keeps the serial loop.
  {
    const TimelineSpan span(timeline, "deliver_phase", "phase");
    if (shards > 1 && !log_.recording_events()) {
      deliver_sharded(r, shards);
    } else {
      constexpr auto kDrop = static_cast<std::uint8_t>(FaultPlan::Fate::kDrop);
      constexpr auto kDup =
          static_cast<std::uint8_t>(FaultPlan::Fate::kDuplicate);
      for (std::size_t i = 0; i < traffic_.size(); ++i) {
        const SentRecord& rec = traffic_[i];
        const std::uint8_t fate = run_.fault_active() ? fate_[i] : 0;
        if (fate == kDrop) continue;
        awake_[rec.to] = 1;
        const int copies = fate == kDup ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          if (rec.msg.type == MsgType::kToken) {
            if (run_.learn(rec.to, rec.msg.token)) {
              ++m.learnings;
              log_.add(rec.to, rec.msg.token, r);
            } else {
              ++m.duplicate_token_deliveries;
            }
          }
          nodes_[rec.to]->on_receive(r, rec.from, rec.msg);
        }
      }
    }
  }

  m.rounds = r - run_.start_offset();  // rounds executed by THIS engine/phase
  run_.end_round(r, csr.num_edges());
  if (hook_) hook_(r, plane_.graph(), m);
  // Swap (not move) so both buffers recycle.
  std::swap(prev_messages_, traffic_);
  return r;
}

RunMetrics UnicastEngine::run(Round max_rounds) {
  return run_until(
      [](const UnicastEngine& e) { return e.harness().run_complete(); },
      max_rounds);
}

RunMetrics UnicastEngine::run_until(const StopPredicate& done, Round max_rounds) {
  run_.start_run();
  while (!done(*this) && round_ < max_rounds && !run_.all_down()) {
    step();
    if (run_.after_step()) break;
  }
  return run_.finish(round_, plane_.view().num_edges());
}

}  // namespace dyngossip
