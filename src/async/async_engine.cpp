#include "async/async_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"

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
      // The stall window counts quiet *events*, not rounds: at rate λ a
      // window holds ~n·λ·σ activations, so it scales with n (same
      // rationale as the round engines' 2n-round window).  The watchdog
      // reads the clock every 64 popped events.
      run_(std::move(initial_knowledge), k, opts,
           RunLimits{.stall_floor = 4096,
                     .stall_per_node = 64,
                     .watchdog_stride = 64,
                     .start_offset = 0}),
      push_pull_(opts.push_pull),
      seed_(opts.seed),
      tracker_(adversary.num_nodes()),
      plane_(tracker_, opts.telemetry.timeline) {
  const std::size_t n = run_.num_nodes();
  DG_CHECK(n >= 1);
  DG_CHECK(n == adversary.num_nodes());
  DG_CHECK(opts.rate > 0.0);
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
    TimelineRecorder* const timeline = run_.telemetry().timeline;
    if (round_ > 0) {
      run_.end_round(round_, plane_.view().num_edges());
      if (timeline != nullptr) {
        const auto now = TimelineRecorder::now();
        timeline->span("event_batch", "phase", batch_begin_, now);
        batch_begin_ = now;
      }
    }
    const Round r = round_ + 1;
    const TimelineSpan span(timeline, "async_round", "round");
    // Fault plane: liveness advances per schedule round, exactly as in the
    // round engines (crash/recovery rolls are position-keyed on (round,
    // node), so sync and async trials share crash realizations).
    run_.begin_round(r);
    const GraphDiff& diff = plane_.advance(
        r, [&]() -> const Graph& { return clocked_.next_round(run_.knowledge()); });
    RunMetrics& m = run_.metrics();
    m.tc += diff.inserted.size();
    m.deletions += diff.removed.size();
    round_ = r;
    m.rounds = r;
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
  RunMetrics& m = run_.metrics();
  if (run_.learn(to, tok)) {
    ++m.learnings;
  } else {
    ++m.duplicate_token_deliveries;
  }
}

void AsyncEngine::deliver_leg(NodeId to, TokenId tok, std::uint32_t leg,
                              std::uint64_t event_no) {
  if (tok == kNoToken) return;  // empty knowledge: nothing to transmit
  run_.metrics().unicast.add(MsgType::kToken);  // the sender pays, delivered or not
  if (run_.fault_active()) {
    const FaultPlan& faults = run_.faults();
    if (!faults.is_live(to)) {  // addressed to a crashed node: lost
      run_.count_fates(1, 0);
      return;
    }
    if (faults.has_delivery_faults()) {
      // Event position replaces (round, arc, per-arc seq): the event's
      // global sequence number is the arc coordinate and the contact leg is
      // the per-position sequence — still a pure position hash, still
      // evaluation-order independent.
      const FaultPlan::Fate fate = faults.delivery_fate(
          round_, static_cast<std::size_t>(event_no), leg);
      if (fate == FaultPlan::Fate::kDrop) {
        run_.count_fates(1, 0);
        return;
      }
      if (fate == FaultPlan::Fate::kDuplicate) {
        run_.count_fates(0, 1);
        learn(to, tok);  // duplicated: the payload arrives twice
      }
    }
  }
  learn(to, tok);
}

void AsyncEngine::process(const ActivationEvent& ev) {
  const NodeId v = ev.node;
  if (!run_.is_live(v)) return;  // crashed: silent clock
  const std::span<const NodeId> neigh = plane_.view().neighbors(v);
  if (neigh.empty()) return;  // isolated in this window
  const std::uint64_t pick = position_hash(seed_, kNeighborSalt, ev.seq);
  const NodeId w = neigh[static_cast<std::size_t>(pick % neigh.size())];
  // Push leg: v offers one uniformly random known token to w.
  deliver_leg(w, pick_token(run_.knowledge_of(v), ev.seq, kPushSalt), 0, ev.seq);
  if (push_pull_) {
    // Pull leg: w answers with one of its own tokens in the same contact.
    // A crashed contact stays silent (its leg is never sent, not dropped).
    if (run_.is_live(w)) {
      deliver_leg(v, pick_token(run_.knowledge_of(w), ev.seq, kPullSalt), 1,
                  ev.seq);
    }
  }
}

RunMetrics AsyncEngine::run(Round max_rounds) {
  const double horizon = clocked_.window_end(max_rounds);
  TimelineRecorder* const timeline = run_.telemetry().timeline;
  run_.start_run();
  if (timeline != nullptr) batch_begin_ = TimelineRecorder::now();
  while (!run_.run_complete() && !run_.all_down()) {
    DG_CHECK(!queue_.empty());
    // Nothing left before the horizon: the run ends at the round cap.
    if (!(queue_.top().time < horizon)) break;
    const ActivationEvent ev = queue_.pop();
    // Materialize every schedule round up to the one owning this event
    // (the min() guards the floating-point edge at the horizon itself).
    const Round target = std::min(clocked_.round_of(ev.time), max_rounds);
    if (target > round_) advance_rounds(target);
    ++run_.metrics().virtual_steps;  // one clock activation
    process(ev);
    queue_.push({ev.time + clock_.gap(ev.node, next_gap_index_[ev.node]++),
                 ev.node, seq_++});
    if (run_.after_step()) break;
  }
  // The final flush sample covers the still-open window.
  const RunMetrics m = run_.finish(round_, plane_.view().num_edges());
  if (timeline != nullptr && round_ > 0) {
    timeline->span("event_batch", "phase", batch_begin_, TimelineRecorder::now());
  }
  return m;
}

}  // namespace dyngossip
