#include "engine/broadcast_engine.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/round_probe.hpp"
#include "telemetry/timeline.hpp"

namespace dyngossip {

BroadcastEngine::BroadcastEngine(
    std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes, Adversary& adversary,
    std::vector<KnowledgeSet> initial_knowledge, std::size_t k,
    BroadcastEngineOptions opts)
    : nodes_(std::move(nodes)),
      adversary_(adversary),
      knowledge_(std::move(initial_knowledge)),
      k_(k),
      tracker_(nodes_.size()),
      log_(opts.record_learning_events),
      pool_(opts.pool),
      min_parallel_nodes_(opts.min_parallel_nodes),
      faults_(opts.faults),
      fault_active_(opts.faults != nullptr && opts.faults->active()),
      fault_amnesia_(fault_active_ && opts.faults->amnesia()),
      run_timeout_seconds_(opts.run_timeout_seconds),
      telemetry_(opts.telemetry),
      plane_(tracker_, opts.telemetry.timeline) {
  DG_CHECK(!nodes_.empty());
  DG_CHECK(nodes_.size() == knowledge_.size());
  DG_CHECK(adversary_.num_nodes() == nodes_.size());
  for (const auto& kn : knowledge_) {
    DG_CHECK(kn.size() == k_);
    if (kn.all()) ++complete_nodes_;
  }
  intents_.resize(nodes_.size(), kNoToken);
}

std::size_t BroadcastEngine::plan_shards() const noexcept {
  if (pool_ == nullptr || pool_->size() < 2) return 1;
  if (nodes_.size() < min_parallel_nodes_) return 1;
  // 4× oversubscription so parallel_for's self-scheduling absorbs degree
  // imbalance between node ranges.
  return std::min(pool_->size() * 4, nodes_.size());
}

Round BroadcastEngine::step() {
  const Round r = ++round_;
  const TimelineSpan round_span(telemetry_.timeline, "round", "round");
  const std::size_t n = nodes_.size();
  const std::size_t shards = plan_shards();
  const std::size_t chunk = shards > 1 ? (n + shards - 1) / shards : n;
  if (shards > 1) shards_.resize(shards);

  // 0. Fault plane: advance liveness serially before the sharded intent
  // phase; amnesia wipes the mirrors of nodes that crashed this round.
  if (fault_active_) {
    faults_->begin_round(r);
    if (fault_amnesia_) {
      for (const NodeId v : faults_->crashed_this_round()) {
        if (knowledge_[v].all()) --complete_nodes_;
        knowledge_[v].reset_all();
        if (knowledge_[v].all()) ++complete_nodes_;  // k = 0 universe only
      }
    }
  }

  // Per-node intent under the fault plane: a crashed node is silent (its
  // algorithm is not even polled), and under amnesia an intent for a token
  // absent from the wiped mirror becomes silence instead of an invariant
  // failure (post-recovery algorithm state legitimately diverges).
  const auto intend = [this](NodeId v, Round round) -> TokenId {
    if (fault_active_ && !faults_->is_live(v)) return kNoToken;
    TokenId t = nodes_[v]->choose_broadcast(round);
    DG_CHECK(t == kNoToken || t < k_);
    if (t != kNoToken && !knowledge_[v].test(t)) {
      // Token-forwarding constraint: only held tokens may be broadcast.
      DG_CHECK(fault_amnesia_);
      t = kNoToken;
    }
    return t;
  };

  // 1. Nodes commit broadcast intents (before seeing the round graph).
  // intents_[v] is written only by v's shard; counters are per-shard and
  // folded in shard order, so totals match the serial loop exactly.
  {
  const TimelineSpan intent_span(telemetry_.timeline, "intent_phase", "phase");
  if (shards > 1) {
    parallel_for(*pool_, shards, [&](std::size_t s) {
      const TimelineSpan span(telemetry_.timeline, "intent_shard", "shard");
      Shard& sh = shards_[s];
      sh.broadcasts = 0;
      const auto lo = static_cast<NodeId>(s * chunk);
      const auto hi = static_cast<NodeId>(std::min(n, (s + 1) * chunk));
      for (NodeId v = lo; v < hi; ++v) {
        const TokenId t = intend(v, r);
        intents_[v] = t;
        if (t != kNoToken) ++sh.broadcasts;
      }
    });
    for (const Shard& sh : shards_) metrics_.broadcasts += sh.broadcasts;
  } else {
    for (NodeId v = 0; v < n; ++v) {
      const TokenId t = intend(v, r);
      intents_[v] = t;
      if (t != kNoToken) ++metrics_.broadcasts;
    }
  }
  }

  // 2. The (possibly strongly adaptive) adversary fixes the round graph.
  BroadcastRoundView view;
  view.round = r;
  view.intents = intents_;
  view.knowledge = &knowledge_;
  const GraphDiff& diff = plane_.advance(
      r, [&]() -> const Graph& { return adversary_.broadcast_round(view); });
  metrics_.tc += diff.inserted.size();
  metrics_.deletions += diff.removed.size();
  const RoundGraphView& csr = plane_.view();

  // Per-recipient inbox under the fault plane: a crashed recipient receives
  // nothing; each (broadcaster, recipient) edge rolls one position-keyed
  // fate — dropped, delivered, or delivered twice.  The fault-free path is
  // the exact legacy loop.  `dropped`/`duplicated` are probe-only tallies
  // (a crashed-deaf recipient's suppressed deliveries count as drops, a
  // duplicate fate counts its extra copy) — pure reads of the same
  // position-keyed fates, so a probed faulty run delivers exactly what the
  // unprobed one does.
  const bool probe_counting = telemetry_.probe != nullptr && fault_active_;
  const auto build_inbox = [this, r, probe_counting, &csr](
                               NodeId v, std::vector<TokenId>& inbox,
                               std::uint64_t& dropped,
                               std::uint64_t& duplicated) {
    inbox.clear();
    if (fault_active_ && !faults_->is_live(v)) {  // crashed: deaf
      if (probe_counting) {
        for (const NodeId u : csr.neighbors(v)) {
          if (intents_[u] != kNoToken) ++dropped;
        }
      }
      return;
    }
    const bool delivery_faults =
        fault_active_ && faults_->has_delivery_faults();
    for (const NodeId u : csr.neighbors(v)) {
      const TokenId t = intents_[u];
      if (t == kNoToken) continue;
      if (delivery_faults) {
        const FaultPlan::Fate fate =
            faults_->delivery_fate(r, csr.arc_index(u, v), 0);
        if (fate == FaultPlan::Fate::kDrop) {
          if (probe_counting) ++dropped;
          continue;
        }
        inbox.push_back(t);
        if (fate == FaultPlan::Fate::kDuplicate) {
          if (probe_counting) ++duplicated;
          inbox.push_back(t);
        }
      } else {
        inbox.push_back(t);
      }
    }
  };

  // 3 + 4. Deliver broadcasts; record learnings before handing tokens to the
  // algorithms so the mirror stays authoritative.  Each recipient's inbox
  // depends only on frozen intents and its own knowledge, so recipient
  // shards are independent; the sharded path needs batch learning counts,
  // so individual event recording keeps the serial loop.
  {
  const TimelineSpan deliver_span(telemetry_.timeline, "deliver_phase",
                                  "phase");
  if (shards > 1 && !log_.recording_events()) {
    parallel_for(*pool_, shards, [&](std::size_t s) {
      const TimelineSpan span(telemetry_.timeline, "deliver_shard", "shard");
      Shard& sh = shards_[s];
      sh.learnings = 0;
      sh.newly_complete = 0;
      sh.dropped = 0;
      sh.duplicated = 0;
      const auto lo = static_cast<NodeId>(s * chunk);
      const auto hi = static_cast<NodeId>(std::min(n, (s + 1) * chunk));
      for (NodeId v = lo; v < hi; ++v) {
        build_inbox(v, sh.inbox, sh.dropped, sh.duplicated);
        if (sh.inbox.empty()) continue;
        const bool was_complete = knowledge_[v].all();
        for (const TokenId t : sh.inbox) {
          if (knowledge_[v].set(t)) ++sh.learnings;
        }
        if (!was_complete && knowledge_[v].all()) ++sh.newly_complete;
        nodes_[v]->on_receive(r, sh.inbox);
      }
    });
    for (const Shard& sh : shards_) {
      metrics_.learnings += sh.learnings;
      complete_nodes_ += sh.newly_complete;
      log_.add_batch(sh.learnings, r);
      if (probe_counting) {
        probe_dropped_ += sh.dropped;
        probe_duplicated_ += sh.duplicated;
      }
    }
  } else {
    for (NodeId v = 0; v < n; ++v) {
      build_inbox(v, inbox_scratch_, probe_dropped_, probe_duplicated_);
      if (inbox_scratch_.empty()) continue;
      const bool was_complete = knowledge_[v].all();
      for (const TokenId t : inbox_scratch_) {
        if (knowledge_[v].set(t)) {
          ++metrics_.learnings;
          log_.add(v, t, r);
        }
      }
      if (!was_complete && knowledge_[v].all()) ++complete_nodes_;
      nodes_[v]->on_receive(r, inbox_scratch_);
    }
  }
  }

  metrics_.rounds = r;
  if (telemetry_.probe != nullptr) {
    probe_edges_ = csr.num_edges();
    probe_observe(r, probe_edges_, /*flush=*/false);
  }
  if (hook_) hook_(r, plane_.graph(), metrics_);
  return r;
}

void BroadcastEngine::probe_observe(Round r, std::uint64_t edges, bool flush) {
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

bool BroadcastEngine::run_complete() const {
  if (!fault_active_) return all_complete();
  if (faults_->live_count() == 0) return false;
  const auto n = static_cast<NodeId>(knowledge_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (faults_->is_live(v) && !knowledge_[v].all()) return false;
  }
  return true;
}

double BroadcastEngine::coverage() const {
  const std::uint64_t universe =
      static_cast<std::uint64_t>(knowledge_.size()) * k_;
  if (universe == 0) return 1.0;
  std::uint64_t known = 0;
  for (const KnowledgeSet& kn : knowledge_) known += kn.count();
  return static_cast<double>(known) / static_cast<double>(universe);
}

RunMetrics BroadcastEngine::run(Round max_rounds) {
  // Mirrors UnicastEngine::run_until: the fault-free loop is the legacy
  // one; fault-active runs add stall detection and the all-down
  // short-circuit, and a wall-clock watchdog caps pathological trials.
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
  while (!run_complete() && round_ < max_rounds) {
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
  if (telemetry_.probe != nullptr && round_ > 0) {
    probe_observe(round_, probe_edges_, /*flush=*/true);
  }
  return metrics_;
}

}  // namespace dyngossip
