#include "engine/unicast_engine.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/round_probe.hpp"
#include "telemetry/timeline.hpp"

namespace dyngossip {

UnicastEngine::UnicastEngine(std::vector<std::unique_ptr<UnicastAlgorithm>> nodes,
                             Adversary& adversary,
                             std::vector<KnowledgeSet> initial_knowledge,
                             std::size_t k, UnicastEngineOptions opts)
    : nodes_(std::move(nodes)),
      adversary_(adversary),
      knowledge_(std::move(initial_knowledge)),
      k_(k),
      owned_tracker_(opts.tracker != nullptr
                         ? nullptr
                         : std::make_unique<DynamicGraphTracker>(nodes_.size())),
      tracker_(opts.tracker != nullptr ? opts.tracker : owned_tracker_.get()),
      log_(opts.record_learning_events),
      start_offset_(opts.start_round - 1),
      round_(opts.start_round - 1),
      max_payloads_per_edge_(opts.max_payloads_per_edge),
      pool_(opts.pool),
      min_parallel_nodes_(opts.min_parallel_nodes),
      faults_(opts.faults),
      fault_active_(opts.faults != nullptr && opts.faults->active()),
      fault_amnesia_(fault_active_ && opts.faults->amnesia()),
      run_timeout_seconds_(opts.run_timeout_seconds),
      telemetry_(opts.telemetry),
      plane_(*tracker_, opts.telemetry.timeline, /*track_since=*/true) {
  DG_CHECK(!nodes_.empty());
  DG_CHECK(nodes_.size() == knowledge_.size());
  DG_CHECK(adversary_.num_nodes() == nodes_.size());
  DG_CHECK(opts.start_round >= 1);
  for (const auto& kn : knowledge_) {
    DG_CHECK(kn.size() == k_);
    if (kn.all()) ++complete_nodes_;
  }
  DG_CHECK(tracker_->num_nodes() == nodes_.size());
  DG_CHECK(tracker_->rounds() == round_);
  awake_.assign(nodes_.size(), 1);
  if (fault_active_) {
    // A node already down when this engine starts has seen nothing here:
    // on recovery every edge counts from the recovery round.
    crashed_at_.assign(nodes_.size(), opts.start_round);
    crash_snapshot_.resize(nodes_.size());
  }
}

std::size_t UnicastEngine::plan_shards() const noexcept {
  if (pool_ == nullptr || pool_->size() < 2) return 1;
  if (nodes_.size() < min_parallel_nodes_) return 1;
  // 4× oversubscription: parallel_for self-schedules shard indices, so
  // extra shards absorb per-node cost imbalance (hub nodes, dense rows).
  return std::min(pool_->size() * 4, nodes_.size());
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
      DG_CHECK(rec.msg.token < k_);
      if (!knowledge_[v].test(rec.msg.token)) {
        // Under amnesia a recovered node's algorithm state legitimately
        // diverges from its wiped knowledge mirror; such sends are filtered
        // (not counted, not delivered) instead of tripping the invariant.
        DG_CHECK(fault_amnesia_);
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
  if (fault_active_ && !faults_->is_live(v)) return;  // crashed: silent
  UnicastAlgorithm& node = *nodes_[v];
  Outbox out(v, sink);
  const std::size_t mark = sink.size();
  node.send(r, NeighborView{plane_.view().neighbors(v), plane_.since(v)}, out);
  validate_sent(v, sink, mark, counts);
  awake_[v] = node.quiescent() ? 0 : 1;
}

void UnicastEngine::rebase_recovered(Round r) {
  const RoundGraphView& csr = plane_.view();
  for (const NodeId v : faults_->recovered_this_round()) {
    if (!faults_->is_live(v)) continue;
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
    const TimelineSpan span(telemetry_.timeline, "send_shard", "shard");
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
    metrics_.unicast += sh.counts;
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
    const TimelineSpan span(telemetry_.timeline, "deliver_shard", "shard");
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
        const std::uint8_t fate = fault_active_ ? fate_[idx] : 0;
        if (fate == kDrop) continue;
        awake_[v] = 1;
        const int copies = fate == kDup ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          if (rec.msg.type == MsgType::kToken) {
            const bool was_complete = knowledge_[v].all();
            if (knowledge_[v].set(rec.msg.token)) {
              ++sh.learnings;
              if (!was_complete && knowledge_[v].all()) ++sh.newly_complete;
            } else {
              ++sh.duplicates;
            }
          }
          nodes_[v]->on_receive(r, rec.from, rec.msg);
        }
      }
    }
  });
  for (const DeliverShard& sh : deliver_shards_) {
    metrics_.learnings += sh.learnings;
    metrics_.duplicate_token_deliveries += sh.duplicates;
    complete_nodes_ += sh.newly_complete;
    log_.add_batch(sh.learnings, r);
  }
}

Round UnicastEngine::step() {
  const Round r = ++round_;
  const std::size_t n = nodes_.size();
  const TimelineSpan round_span(telemetry_.timeline, "round", "round");

  // 0. Fault plane: advance the liveness mask into round r (serial, before
  // any sharded phase — the mask is the plan's only mutable state).  Nodes
  // that crashed this round lose their knowledge under amnesia; otherwise
  // they retain it and merely stop participating until recovery.
  // A crashing node's (neighbor, since) pairs are snapshotted while the
  // view still holds G_{r-1}, its last live round.
  if (fault_active_) {
    faults_->begin_round(r);
    const RoundGraphView& before = plane_.view();
    for (const NodeId v : faults_->crashed_this_round()) {
      crashed_at_[v] = r;
      std::vector<std::pair<NodeId, Round>>& seen = crash_snapshot_[v];
      seen.clear();
      if (before.num_nodes() == n) {
        const std::span<const NodeId> ids = before.neighbors(v);
        const std::span<const Round> since = plane_.since(v);
        for (std::size_t i = 0; i < ids.size(); ++i) seen.emplace_back(ids[i], since[i]);
      }
      if (fault_amnesia_) {
        if (knowledge_[v].all()) --complete_nodes_;
        knowledge_[v].reset_all();
        if (knowledge_[v].all()) ++complete_nodes_;  // k = 0 universe only
      }
    }
  }

  // 1. Adversary fixes G_r with full visibility of state and history.  The
  // returned reference is adversary-owned and stays valid through the round;
  // the graph plane absorbs it into the reusable CSR view.
  UnicastRoundView view;
  view.round = r;
  view.prev_messages = &prev_messages_;
  view.knowledge = &knowledge_;
  const GraphDiff& diff = plane_.advance(
      r, [&]() -> const Graph& { return adversary_.unicast_round(view); });
  metrics_.tc += diff.inserted.size();
  metrics_.deletions += diff.removed.size();
  const RoundGraphView& csr = plane_.view();
  // An inserted edge wakes both endpoints; a removal wakes nobody.
  for (const EdgeKey key : diff.inserted) {
    const auto [a, b] = edge_endpoints(key);
    awake_[a] = 1;
    awake_[b] = 1;
  }
  if (fault_active_) rebase_recovered(r);

  const std::size_t shards = plan_shards();

  // 2. Send step: each awake live node sees its sorted neighbor span and
  // the edges' since rounds (served by the plane — no per-node allocation,
  // sort or merge) and queues per-neighbor payloads.  Sharded: per-shard
  // outboxes, merged in node order.
  {
    const TimelineSpan span(telemetry_.timeline, "send_phase", "phase");
    arc_budget_.assign(csr.num_arcs(), 0);
    if (shards > 1) {
      send_phase_sharded(r, shards);
    } else {
      traffic_.clear();
      for (NodeId v = 0; v < n; ++v) send_node(r, v, traffic_, metrics_.unicast);
    }
  }

  // 2b. Fault plane: seal each record's delivery fate in one serial pass.
  // Fates are position-keyed hashes of (round, arc, per-arc sequence) — not
  // of evaluation order — so the sharded delivery below observes the same
  // fates the serial loop would.  A payload addressed to a crashed node is
  // dropped outright; drops still cost the sender (counted at send time).
  if (fault_active_) {
    const TimelineSpan span(telemetry_.timeline, "fault_seal", "phase");
    fate_.assign(traffic_.size(), 0);
    const bool delivery_faults = faults_->has_delivery_faults();
    if (delivery_faults) arc_seq_.assign(csr.num_arcs(), 0);
    for (std::size_t i = 0; i < traffic_.size(); ++i) {
      const SentRecord& rec = traffic_[i];
      if (!faults_->is_live(rec.to)) {
        fate_[i] = static_cast<std::uint8_t>(FaultPlan::Fate::kDrop);
        continue;
      }
      if (!delivery_faults) continue;
      const std::size_t arc = csr.arc_index(rec.from, rec.to);
      fate_[i] = static_cast<std::uint8_t>(
          faults_->delivery_fate(r, arc, arc_seq_[arc]++));
    }
  }

  // Probe-only fate accounting: a pure read of the sealed fates (never the
  // plan), so a probed faulty run delivers exactly what the unprobed one
  // does.
  if (telemetry_.probe != nullptr && fault_active_) {
    constexpr auto kDropF = static_cast<std::uint8_t>(FaultPlan::Fate::kDrop);
    constexpr auto kDupF =
        static_cast<std::uint8_t>(FaultPlan::Fate::kDuplicate);
    for (const std::uint8_t fate : fate_) {
      probe_dropped_ += fate == kDropF ? 1 : 0;
      probe_duplicated_ += fate == kDupF ? 1 : 0;
    }
  }

  // 3 + 4. End-of-round delivery; learnings recorded against the mirror
  // before algorithms observe the payloads.  The sharded path needs batch
  // learning counts, so individual event recording keeps the serial loop.
  {
    const TimelineSpan span(telemetry_.timeline, "deliver_phase", "phase");
    if (shards > 1 && !log_.recording_events()) {
      deliver_sharded(r, shards);
    } else {
      constexpr auto kDrop = static_cast<std::uint8_t>(FaultPlan::Fate::kDrop);
      constexpr auto kDup =
          static_cast<std::uint8_t>(FaultPlan::Fate::kDuplicate);
      for (std::size_t i = 0; i < traffic_.size(); ++i) {
        const SentRecord& rec = traffic_[i];
        const std::uint8_t fate = fault_active_ ? fate_[i] : 0;
        if (fate == kDrop) continue;
        awake_[rec.to] = 1;
        const int copies = fate == kDup ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          if (rec.msg.type == MsgType::kToken) {
            const bool was_complete = knowledge_[rec.to].all();
            if (knowledge_[rec.to].set(rec.msg.token)) {
              ++metrics_.learnings;
              log_.add(rec.to, rec.msg.token, r);
              if (!was_complete && knowledge_[rec.to].all()) ++complete_nodes_;
            } else {
              ++metrics_.duplicate_token_deliveries;
            }
          }
          nodes_[rec.to]->on_receive(r, rec.from, rec.msg);
        }
      }
    }
  }

  metrics_.rounds = r - start_offset_;  // rounds executed by THIS engine/phase
  if (telemetry_.probe != nullptr) {
    probe_edges_ = csr.num_edges();
    probe_observe(r, probe_edges_, /*flush=*/false);
  }
  if (hook_) hook_(r, plane_.graph(), metrics_);
  // Swap (not move) so both buffers recycle.
  std::swap(prev_messages_, traffic_);
  return r;
}

void UnicastEngine::probe_observe(Round r, std::uint64_t edges, bool flush) {
  RoundProbe& probe = *telemetry_.probe;
  if (!flush && !probe.wants(r)) return;  // deltas keep accumulating
  if (flush && probe.last_round() == static_cast<std::uint64_t>(r)) return;
  RoundProbeSample s;
  s.round = r;
  s.coverage = coverage();
  s.learned = metrics_.learnings - probe_prev_.learnings;
  s.sent = metrics_.total_messages() - probe_prev_.total_messages();
  s.dropped = probe_dropped_;
  s.duplicated = probe_duplicated_;
  s.requests = metrics_.unicast.request - probe_prev_.unicast.request;
  s.served = metrics_.unicast.token - probe_prev_.unicast.token;
  s.edges_inserted = metrics_.tc - probe_prev_.tc;
  s.edges_removed = metrics_.deletions - probe_prev_.deletions;
  s.edges = edges;
  s.crashed = fault_active_
                  ? static_cast<std::uint64_t>(nodes_.size() -
                                               faults_->live_count())
                  : 0;
  probe.record(s);
  probe_prev_ = metrics_;
  probe_dropped_ = 0;
  probe_duplicated_ = 0;
}

bool UnicastEngine::run_complete() const {
  if (!fault_active_) return all_complete();
  if (faults_->live_count() == 0) return false;
  const auto n = static_cast<NodeId>(knowledge_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (faults_->is_live(v) && !knowledge_[v].all()) return false;
  }
  return true;
}

double UnicastEngine::coverage() const {
  const std::uint64_t universe =
      static_cast<std::uint64_t>(knowledge_.size()) * k_;
  if (universe == 0) return 1.0;
  std::uint64_t known = 0;
  for (const KnowledgeSet& kn : knowledge_) known += kn.count();
  return static_cast<double>(known) / static_cast<double>(universe);
}

RunMetrics UnicastEngine::run(Round max_rounds) {
  return run_until([](const UnicastEngine& e) { return e.run_complete(); },
                   max_rounds);
}

RunMetrics UnicastEngine::run_until(const StopPredicate& done, Round max_rounds) {
  // Fault-free runs keep the legacy loop exactly; fault-active runs add
  // stall detection (a lossy plan must terminate as kStalled, not spin a
  // dead execution to the 200·n·k cap) and the all-down short-circuit.
  // The stall window is generous — request/answer protocols legitimately
  // go many rounds between learnings.
  const Round stall_window =
      fault_active_
          ? std::max<Round>(256, static_cast<Round>(2 * nodes_.size()))
          : 0;
  std::uint64_t last_learnings = metrics_.learnings;
  Round quiet_rounds = 0;
  bool stalled = false;
  bool all_down = false;
  bool timed_out = false;
  const auto started = std::chrono::steady_clock::now();
  std::uint32_t ticks = 0;
  while (!done(*this) && round_ < max_rounds) {
    if (fault_active_ && faults_->live_count() == 0 &&
        !faults_->can_recover()) {
      all_down = true;
      break;
    }
    step();
    if (fault_active_) {
      if (metrics_.learnings != last_learnings) {
        last_learnings = metrics_.learnings;
        quiet_rounds = 0;
      } else if (++quiet_rounds >= stall_window) {
        stalled = true;
        break;
      }
    }
    // Wall-clock watchdog, amortized to one clock read per 32 rounds.
    if (run_timeout_seconds_ > 0.0 && (++ticks % 32u) == 0u &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
                .count() >= run_timeout_seconds_) {
      timed_out = true;
      break;
    }
  }
  metrics_.completed = run_complete();
  metrics_.status = metrics_.completed ? RunStatus::kCompleted
                    : timed_out        ? RunStatus::kTimeout
                    : stalled          ? RunStatus::kStalled
                    : all_down         ? RunStatus::kAllDown
                                       : RunStatus::kRoundCap;
  metrics_.coverage = coverage();
  // Final flush sample so per-round sums reconcile with the totals at any
  // sampling stride (a no-op when the last round was already sampled).
  if (telemetry_.probe != nullptr && round_ > start_offset_) {
    probe_observe(round_, probe_edges_, /*flush=*/true);
  }
  return metrics_;
}

}  // namespace dyngossip
