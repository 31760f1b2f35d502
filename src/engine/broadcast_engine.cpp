#include "engine/broadcast_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/timeline.hpp"

namespace dyngossip {

BroadcastEngine::BroadcastEngine(
    std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes, Adversary& adversary,
    std::vector<KnowledgeSet> initial_knowledge, std::size_t k,
    BroadcastEngineOptions opts)
    : nodes_(std::move(nodes)),
      adversary_(adversary),
      run_(std::move(initial_knowledge), k, opts,
           RunLimits{.stall_floor = 256,
                     .stall_per_node = 2,
                     .watchdog_stride = 32,
                     .start_offset = 0}),
      log_(opts.record_learning_events),
      pool_(opts.pool),
      min_parallel_nodes_(opts.min_parallel_nodes),
      plane_(nodes_.size(), opts.telemetry.timeline) {
  DG_CHECK(!nodes_.empty());
  DG_CHECK(nodes_.size() == run_.num_nodes());
  DG_CHECK(adversary_.num_nodes() == nodes_.size());
  intents_.resize(nodes_.size(), kNoToken);
}

Round BroadcastEngine::step() {
  const Round r = ++round_;
  TimelineRecorder* const timeline = run_.telemetry().timeline;
  RunMetrics& m = run_.metrics();
  const TimelineSpan round_span(timeline, "round", "round");
  const std::size_t n = nodes_.size();
  const std::size_t shards = plan_shards(pool_, n, min_parallel_nodes_);
  const std::size_t chunk = shards > 1 ? (n + shards - 1) / shards : n;
  if (shards > 1) shards_.resize(shards);

  // 0. Fault plane: advance liveness serially before the sharded intent
  // phase.
  run_.begin_round(r);

  // Per-node intent under the fault plane: a crashed node is silent (its
  // algorithm is not even polled), and under amnesia an intent for a token
  // absent from the wiped mirror becomes silence instead of an invariant
  // failure (post-recovery algorithm state legitimately diverges).
  const auto intend = [this](NodeId v, Round round) -> TokenId {
    if (!run_.is_live(v)) return kNoToken;
    TokenId t = nodes_[v]->choose_broadcast(round);
    DG_CHECK(t == kNoToken || t < run_.k());
    if (t != kNoToken && !run_.knowledge_of(v).test(t)) {
      // Token-forwarding constraint: only held tokens may be broadcast.
      DG_CHECK(run_.fault_amnesia());
      t = kNoToken;
    }
    return t;
  };

  // 1. Nodes commit broadcast intents (before seeing the round graph).
  // intents_[v] is written only by v's shard; counters are per-shard and
  // folded in shard order, so totals match the serial loop exactly.
  {
  const TimelineSpan intent_span(timeline, "intent_phase", "phase");
  if (shards > 1) {
    parallel_for(*pool_, shards, [&](std::size_t s) {
      const TimelineSpan span(timeline, "intent_shard", "shard");
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
    for (const Shard& sh : shards_) m.broadcasts += sh.broadcasts;
  } else {
    for (NodeId v = 0; v < n; ++v) {
      const TokenId t = intend(v, r);
      intents_[v] = t;
      if (t != kNoToken) ++m.broadcasts;
    }
  }
  }

  // 2. The (possibly strongly adaptive) adversary fixes the round graph.
  BroadcastRoundView view;
  view.round = r;
  view.intents = intents_;
  view.knowledge = &run_.knowledge();
  const GraphDiff& diff = plane_.advance(
      r, [&]() -> const Graph& { return adversary_.broadcast_round(view); });
  m.tc += diff.inserted.size();
  m.deletions += diff.removed.size();
  const RoundGraphView& csr = plane_.view();

  // Per-recipient inbox under the fault plane: a crashed recipient receives
  // nothing; each (broadcaster, recipient) edge rolls one position-keyed
  // fate — dropped, delivered, or delivered twice.  The fault-free path is
  // the exact legacy loop.  `dropped`/`duplicated` are probe-only tallies
  // (a crashed-deaf recipient's suppressed deliveries count as drops, a
  // duplicate fate counts its extra copy) — pure reads of the same
  // position-keyed fates, so a probed faulty run delivers exactly what the
  // unprobed one does.
  const bool probe_counting = run_.counting_fates();
  const auto build_inbox = [this, r, probe_counting, &csr](
                               NodeId v, std::vector<TokenId>& inbox,
                               std::uint64_t& dropped,
                               std::uint64_t& duplicated) {
    inbox.clear();
    if (!run_.is_live(v)) {  // crashed: deaf
      if (probe_counting) {
        for (const NodeId u : csr.neighbors(v)) {
          if (intents_[u] != kNoToken) ++dropped;
        }
      }
      return;
    }
    const bool delivery_faults =
        run_.fault_active() && run_.faults().has_delivery_faults();
    for (const NodeId u : csr.neighbors(v)) {
      const TokenId t = intents_[u];
      if (t == kNoToken) continue;
      if (delivery_faults) {
        const FaultPlan::Fate fate =
            run_.faults().delivery_fate(r, csr.arc_index(u, v), 0);
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
  const TimelineSpan deliver_span(timeline, "deliver_phase", "phase");
  if (shards > 1 && !log_.recording_events()) {
    parallel_for(*pool_, shards, [&](std::size_t s) {
      const TimelineSpan span(timeline, "deliver_shard", "shard");
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
        for (const TokenId t : sh.inbox) {
          if (run_.learn(v, t, sh.newly_complete)) ++sh.learnings;
        }
        nodes_[v]->on_receive(r, sh.inbox);
      }
    });
    for (const Shard& sh : shards_) {
      m.learnings += sh.learnings;
      run_.add_completed(sh.newly_complete);
      log_.add_batch(sh.learnings, r);
      run_.count_fates(sh.dropped, sh.duplicated);
    }
  } else {
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    for (NodeId v = 0; v < n; ++v) {
      build_inbox(v, inbox_scratch_, dropped, duplicated);
      if (inbox_scratch_.empty()) continue;
      for (const TokenId t : inbox_scratch_) {
        if (run_.learn(v, t)) {
          ++m.learnings;
          log_.add(v, t, r);
        }
      }
      nodes_[v]->on_receive(r, inbox_scratch_);
    }
    run_.count_fates(dropped, duplicated);
  }
  }

  m.rounds = r;
  run_.end_round(r, csr.num_edges());
  if (hook_) hook_(r, plane_.graph(), m);
  return r;
}

RunMetrics BroadcastEngine::run(Round max_rounds) {
  run_.start_run();
  while (!run_.run_complete() && round_ < max_rounds && !run_.all_down()) {
    step();
    if (run_.after_step()) break;
  }
  return run_.finish(round_, plane_.view().num_edges());
}

}  // namespace dyngossip
