#include "async/async_engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "telemetry/round_probe.hpp"

namespace dyngossip {

namespace {
// Salts separating the engine's position-keyed choice streams from each
// other and from the clock-gap stream (kClockSalt in poisson_clock.cpp).
constexpr std::uint64_t kNeighborSalt = 0xa5c0117ac7ull;  ///< neighbor pick
constexpr std::uint64_t kPushSalt = 0x9705aa7eull;        ///< push token pick
constexpr std::uint64_t kPullSalt = 0x9a11e77eull;        ///< pull token pick
}  // namespace

AsyncEngine::AsyncEngine(Adversary& adversary,
                         std::vector<KnowledgeSet> initial_knowledge,
                         std::size_t k, AsyncEngineOptions opts)
    : clocked_(adversary, opts.sigma),
      clock_(opts.seed, opts.rate),
      knowledge_(std::move(initial_knowledge)),
      k_(k),
      push_pull_(opts.push_pull),
      seed_(opts.seed),
      faults_(opts.faults),
      fault_active_(opts.faults != nullptr && opts.faults->active()),
      fault_amnesia_(fault_active_ && opts.faults->amnesia()),
      run_timeout_seconds_(opts.run_timeout_seconds),
      telemetry_(opts.telemetry),
      tracker_(adversary.num_nodes()),
      plane_(tracker_, opts.telemetry.timeline) {
  const std::size_t n = knowledge_.size();
  DG_CHECK(n >= 1);
  DG_CHECK(n == adversary.num_nodes());
  DG_CHECK(opts.rate > 0.0);
  for (const KnowledgeSet& kn : knowledge_) {
    DG_CHECK(kn.size() == k_);
    if (kn.all()) ++complete_nodes_;
  }
  // Seed every node's first activation.  The heap holds exactly one pending
  // event per node from here on (each pop schedules its successor).
  queue_.reserve(n + 1);
  next_gap_index_.assign(n, 1);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    queue_.push({clock_.gap(v, 0), v, seq_++});
  }
}

void AsyncEngine::advance_rounds(Round target) {
  while (round_ < target) {
    // Close the open window: one probe sample and one event-batch span for
    // the finished round (both observer-only; gated on the pointers).
    if (round_ > 0) {
      if (telemetry_.probe != nullptr) probe_observe(round_, /*flush=*/false);
      if (telemetry_.timeline != nullptr) {
        const auto now = TimelineRecorder::now();
        telemetry_.timeline->span("event_batch", "phase", batch_begin_, now);
        batch_begin_ = now;
      }
    }
    const Round r = round_ + 1;
    const TimelineSpan span(telemetry_.timeline, "async_round", "round");
    // Fault plane: liveness advances per schedule round, exactly as in the
    // round engines (crash/recovery rolls are position-keyed on (round,
    // node), so sync and async trials share crash realizations).
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
    const GraphDiff& diff = plane_.advance(
        r, [&]() -> const Graph& { return clocked_.next_round(knowledge_); });
    metrics_.tc += diff.inserted.size();
    metrics_.deletions += diff.removed.size();
    if (telemetry_.probe != nullptr) probe_edges_ = plane_.view().num_edges();
    round_ = r;
    metrics_.rounds = r;
  }
}

TokenId AsyncEngine::pick_token(const KnowledgeSet& ks, std::uint64_t event_no,
                                std::uint64_t salt) const {
  const std::size_t cnt = ks.count();
  if (cnt == 0) return kNoToken;
  std::size_t idx =
      static_cast<std::size_t>(position_hash(seed_, salt, event_no) % cnt);
  for (const std::size_t pos : ks.set_bits()) {
    if (idx == 0) return static_cast<TokenId>(pos);
    --idx;
  }
  DG_CHECK(false);  // count() said cnt members
  return kNoToken;
}

void AsyncEngine::learn(NodeId to, TokenId tok) {
  const bool was_complete = knowledge_[to].all();
  if (knowledge_[to].set(tok)) {
    ++metrics_.learnings;
    if (!was_complete && knowledge_[to].all()) ++complete_nodes_;
  } else {
    ++metrics_.duplicate_token_deliveries;
  }
}

void AsyncEngine::deliver_leg(NodeId from, NodeId to, TokenId tok,
                              std::uint32_t leg, std::uint64_t event_no) {
  (void)from;
  if (tok == kNoToken) return;  // empty knowledge: nothing to transmit
  metrics_.unicast.add(MsgType::kToken);  // the sender pays, delivered or not
  if (fault_active_) {
    if (!faults_->is_live(to)) {  // addressed to a crashed node: lost
      if (telemetry_.probe != nullptr) ++probe_dropped_;
      return;
    }
    if (faults_->has_delivery_faults()) {
      // Event position replaces (round, arc, per-arc seq): the event's
      // global sequence number is the arc coordinate and the contact leg is
      // the per-position sequence — still a pure position hash, still
      // evaluation-order independent.
      const FaultPlan::Fate fate = faults_->delivery_fate(
          round_, static_cast<std::size_t>(event_no), leg);
      if (fate == FaultPlan::Fate::kDrop) {
        if (telemetry_.probe != nullptr) ++probe_dropped_;
        return;
      }
      if (fate == FaultPlan::Fate::kDuplicate) {
        if (telemetry_.probe != nullptr) ++probe_duplicated_;
        learn(to, tok);  // duplicated: the payload arrives twice
      }
    }
  }
  learn(to, tok);
}

void AsyncEngine::process(const ActivationEvent& ev) {
  const NodeId v = ev.node;
  if (fault_active_ && !faults_->is_live(v)) return;  // crashed: silent clock
  const std::span<const NodeId> neigh = plane_.view().neighbors(v);
  if (neigh.empty()) return;  // isolated in this window
  const std::uint64_t pick = position_hash(seed_, kNeighborSalt, ev.seq);
  const NodeId w = neigh[static_cast<std::size_t>(pick % neigh.size())];
  // Push leg: v offers one uniformly random known token to w.
  deliver_leg(v, w, pick_token(knowledge_[v], ev.seq, kPushSalt), 0, ev.seq);
  if (push_pull_) {
    // Pull leg: w answers with one of its own tokens in the same contact.
    // A crashed contact stays silent (its leg is never sent, not dropped).
    if (!fault_active_ || faults_->is_live(w)) {
      deliver_leg(w, v, pick_token(knowledge_[w], ev.seq, kPullSalt), 1,
                  ev.seq);
    }
  }
}

RunMetrics AsyncEngine::run(Round max_rounds) {
  const double horizon = clocked_.window_end(max_rounds);
  // Stall detection counts quiet *events*, not rounds: at rate λ a window
  // holds ~n·λ·σ activations, so the window scales with n (same rationale
  // as the round engines' 2n-round window, fault-active runs only).
  const std::uint64_t stall_window =
      fault_active_
          ? std::max<std::uint64_t>(4096, 64 * knowledge_.size())
          : 0;
  std::uint64_t last_learnings = metrics_.learnings;
  std::uint64_t quiet_events = 0;
  bool capped = false;
  bool stalled = false;
  bool all_down = false;
  bool timed_out = false;
  const auto started = std::chrono::steady_clock::now();
  std::uint32_t ticks = 0;
  if (telemetry_.timeline != nullptr) batch_begin_ = TimelineRecorder::now();
  while (!run_complete()) {
    if (fault_active_ && faults_->live_count() == 0 &&
        !faults_->can_recover()) {
      all_down = true;
      break;
    }
    DG_CHECK(!queue_.empty());
    if (!(queue_.top().time < horizon)) {  // nothing left before the cap
      capped = true;
      break;
    }
    const ActivationEvent ev = queue_.pop();
    // Materialize every schedule round up to the one owning this event
    // (the min() guards the floating-point edge at the horizon itself).
    const Round target = std::min(clocked_.round_of(ev.time), max_rounds);
    if (target > round_) advance_rounds(target);
    ++metrics_.virtual_steps;  // one clock activation
    process(ev);
    queue_.push({ev.time + clock_.gap(ev.node, next_gap_index_[ev.node]++),
                 ev.node, seq_++});
    if (fault_active_) {
      if (metrics_.learnings != last_learnings) {
        last_learnings = metrics_.learnings;
        quiet_events = 0;
      } else if (++quiet_events >= stall_window) {
        stalled = true;
        break;
      }
    }
    // Wall-clock watchdog, amortized to one clock read per 64 popped events
    // (the async analogue of the round engines' per-32-rounds check).
    if (run_timeout_seconds_ > 0.0 && (++ticks % 64u) == 0u &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
                .count() >= run_timeout_seconds_) {
      timed_out = true;
      break;
    }
  }
  (void)capped;  // capped is the status ladder's fall-through case
  metrics_.completed = run_complete();
  metrics_.status = metrics_.completed ? RunStatus::kCompleted
                    : timed_out        ? RunStatus::kTimeout
                    : stalled          ? RunStatus::kStalled
                    : all_down         ? RunStatus::kAllDown
                                       : RunStatus::kRoundCap;
  metrics_.coverage = coverage();
  // Final flush sample covers the still-open window, so per-round sums
  // reconcile with the totals at any stride.
  if (telemetry_.probe != nullptr && round_ > 0) {
    probe_observe(round_, /*flush=*/true);
  }
  if (telemetry_.timeline != nullptr && round_ > 0) {
    telemetry_.timeline->span("event_batch", "phase", batch_begin_,
                              TimelineRecorder::now());
  }
  return metrics_;
}

void AsyncEngine::probe_observe(Round r, bool flush) {
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
  s.edges = probe_edges_;
  s.crashed = fault_active_
                  ? static_cast<std::uint64_t>(knowledge_.size() -
                                               faults_->live_count())
                  : 0;
  probe.record(s);
  probe_prev_ = metrics_;
  probe_dropped_ = 0;
  probe_duplicated_ = 0;
}

bool AsyncEngine::run_complete() const {
  if (!fault_active_) return all_complete();
  if (faults_->live_count() == 0) return false;
  const auto n = static_cast<NodeId>(knowledge_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (faults_->is_live(v) && !knowledge_[v].all()) return false;
  }
  return true;
}

double AsyncEngine::coverage() const {
  const std::uint64_t universe =
      static_cast<std::uint64_t>(knowledge_.size()) * k_;
  if (universe == 0) return 1.0;
  std::uint64_t known = 0;
  for (const KnowledgeSet& kn : knowledge_) known += kn.count();
  return static_cast<double>(known) / static_cast<double>(universe);
}

}  // namespace dyngossip
