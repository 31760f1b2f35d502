// The per-trial plumbing the unicast, broadcast and async engines share:
// the knowledge mirror and its completion/coverage predicates, the fault
// plane's liveness step, probe sampling, and run termination (all-down
// short-circuit, stall window, wall-clock watchdog and the RunStatus
// ladder).  The engines keep only what differs between them — order of
// play and their send/intent/deliver phases (or the async event loop) —
// and hand the harness a few per-engine constants (RunLimits).
//
// Zero-cost-when-off contract: with an inactive fault plan, no probe and no
// watchdog budget, every check below is one flag or pointer test, and the
// checks an event loop calls per popped event are inline.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/knowledge_set.hpp"
#include "common/types.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/accounting.hpp"
#include "telemetry/telemetry.hpp"

namespace dyngossip {

class ThreadPool;

/// The cross-cutting planes of one run; every engine's options inherit it,
/// so `opts.faults = …` works on each and `opts.env() = {…}` fills all
/// three fields in one statement.
struct RunEnv {
  /// Per-trial fault plan (not owned; multi-phase executions share one).
  /// Null or inactive keeps the exact fault-free code path.  All fault
  /// decisions are position-keyed (see fault/fault_plan.hpp), so faulty
  /// runs stay bit-identical at any thread count.
  FaultPlan* faults = nullptr;
  /// Wall-clock budget for one run in seconds (0: none).  An over-budget
  /// run stops with RunStatus::kTimeout — by construction a
  /// non-reproducible outcome (it depends on the host, not the seed).
  double run_timeout_seconds = 0.0;
  /// Observer plane (telemetry/telemetry.hpp): an optional per-round probe
  /// and an optional wall-clock timeline, both non-owning.  Null pointers
  /// keep the exact legacy code path; attached observers only READ engine
  /// state, so payload checksums are byte-identical either way.
  Telemetry telemetry;

  [[nodiscard]] RunEnv& env() noexcept { return *this; }
};

/// Per-engine termination constants (fixed by each engine, never options).
struct RunLimits {
  /// Stall window under an active fault plan, in the engine's unit of
  /// progress (rounds, or popped events for async): max(floor, per_node·n)
  /// consecutive units without a learning end the run as kStalled.
  std::uint64_t stall_floor = 256;
  std::uint64_t stall_per_node = 2;
  /// Units of progress between wall-clock reads (a power of two).
  std::uint32_t watchdog_stride = 32;
  /// Last round before this engine's first (a phase-2 engine continues a
  /// running execution); the final probe flush needs a round past it.
  Round start_offset = 0;
};

/// Number of node shards for one round of an n-node round engine: 1 (the
/// serial path) without a pool of at least two workers or below
/// `min_parallel_nodes`, else 4× the workers (parallel_for self-schedules
/// shard indices, so extra shards absorb per-node cost imbalance), capped
/// at n.
[[nodiscard]] std::size_t plan_shards(const ThreadPool* pool, std::size_t n,
                                      std::size_t min_parallel_nodes) noexcept;

/// One run's shared state: see the file comment.
class RunHarness {
 public:
  /// `knowledge[v]` is K_v at the engine's start over a k-token universe.
  RunHarness(std::vector<KnowledgeSet> knowledge, std::size_t k,
             const RunEnv& env, RunLimits limits);

  // --- Knowledge mirror -------------------------------------------------

  [[nodiscard]] std::size_t num_nodes() const noexcept { return knowledge_.size(); }
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] const std::vector<KnowledgeSet>& knowledge() const noexcept {
    return knowledge_;
  }
  [[nodiscard]] const KnowledgeSet& knowledge_of(NodeId v) const {
    return knowledge_[v];
  }

  /// Adds token t to v's mirror; true iff v did not hold it.  A node this
  /// completes is counted into `completed`.  Touches only v's entry, so the
  /// shard owning v may call it with a shard-local tally.
  bool learn(NodeId v, TokenId t, std::size_t& completed) {
    KnowledgeSet& kn = knowledge_[v];
    if (!kn.set(t)) return false;
    if (kn.all()) ++completed;
    return true;
  }
  /// Serial form: counts completions directly.
  bool learn(NodeId v, TokenId t) { return learn(v, t, complete_nodes_); }
  /// Folds shard-local completion tallies.
  void add_completed(std::size_t completed) noexcept { complete_nodes_ += completed; }

  /// True iff every node knows all k tokens.
  [[nodiscard]] bool all_complete() const noexcept {
    return complete_nodes_ == knowledge_.size();
  }

  /// The run-level completion predicate: all_complete() on the fault-free
  /// path; under an active fault plan, at least one node is live and every
  /// live node knows all k tokens (crashed nodes don't count toward
  /// completion until recovery).
  [[nodiscard]] bool run_complete() const {
    return fault_active_ ? live_complete() : all_complete();
  }

  /// Fraction of (node, token) pairs currently known (1.0 for an empty
  /// universe) — the residual-coverage metric of a degraded run.
  [[nodiscard]] double coverage() const;

  // --- Fault plane ------------------------------------------------------

  /// faults != null && faults->active(): the only gate of every fault branch.
  [[nodiscard]] bool fault_active() const noexcept { return fault_active_; }
  /// fault_active() && crashed nodes lose their knowledge.
  [[nodiscard]] bool fault_amnesia() const noexcept { return fault_amnesia_; }
  /// The plan; only valid when fault_active().
  [[nodiscard]] const FaultPlan& faults() const noexcept { return *faults_; }
  [[nodiscard]] bool is_live(NodeId v) const {
    return !fault_active_ || faults_->is_live(v);
  }

  /// Advances the liveness mask into round r (serial, before any sharded
  /// phase — the mask is the plan's only mutable state).  Under amnesia the
  /// nodes that crashed this round lose their knowledge; otherwise they
  /// keep it and merely stop participating until recovery.
  void begin_round(Round r) {
    if (fault_active_) advance_faults(r);
  }

  // --- Telemetry --------------------------------------------------------

  [[nodiscard]] const Telemetry& telemetry() const noexcept { return telemetry_; }
  /// A probe is attached and fault fates happen: the engine tallies them.
  [[nodiscard]] bool counting_fates() const noexcept {
    return telemetry_.probe != nullptr && fault_active_;
  }
  /// Adds fault fates (dropped payloads, duplicated copies) to the tallies
  /// the next probe sample reports.
  void count_fates(std::uint64_t dropped, std::uint64_t duplicated) noexcept {
    probe_dropped_ += dropped;
    probe_duplicated_ += duplicated;
  }
  /// Ends round r, whose graph has `edges` edges: one probe sample when a
  /// probe is attached and its stride says so.
  void end_round(Round r, std::uint64_t edges) {
    if (telemetry_.probe != nullptr) probe_observe(r, edges, /*flush=*/false);
  }

  // --- Metrics and termination -------------------------------------------

  [[nodiscard]] const RunMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] RunMetrics& metrics() noexcept { return metrics_; }
  /// RunLimits::start_offset: the last round before this engine's first.
  [[nodiscard]] Round start_offset() const noexcept { return start_offset_; }

  /// Starts a run: resets the stall window and starts the watchdog clock.
  void start_run();

  /// Checked before each unit of progress: true once every node is down
  /// and none can recover (the run ends as kAllDown).
  [[nodiscard]] bool all_down() {
    if (fault_active_ && faults_->live_count() == 0 && !faults_->can_recover()) {
      stop_ = RunStatus::kAllDown;
      return true;
    }
    return false;
  }

  /// Checked after each unit of progress: true when the run must stop —
  /// a fault-active run that learned nothing for a whole stall window
  /// (kStalled: a lossy plan terminates instead of spinning to the cap;
  /// the window is generous, request/answer protocols legitimately go many
  /// rounds between learnings), or an exhausted wall-clock budget
  /// (kTimeout; the clock is read once per watchdog stride).
  [[nodiscard]] bool after_step() {
    if (fault_active_) {
      if (metrics_.learnings != last_learnings_) {
        last_learnings_ = metrics_.learnings;
        quiet_ = 0;
      } else if (++quiet_ >= stall_window_) {
        stop_ = RunStatus::kStalled;
        return true;
      }
    }
    if (run_timeout_seconds_ > 0.0 && (++ticks_ & watchdog_mask_) == 0u &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started_)
                .count() >= run_timeout_seconds_) {
      stop_ = RunStatus::kTimeout;
      return true;
    }
    return false;
  }

  /// Ends the run after round `last` (whose graph has `edges` edges): sets
  /// completed, the status — completed, else the reason the loop stopped
  /// (timeout, stalled, all_down), else round_cap — and the residual
  /// coverage, then takes a final flush sample so per-round sums reconcile
  /// with the totals at any sampling stride.  Returns the final metrics.
  RunMetrics finish(Round last, std::uint64_t edges);

 private:
  [[nodiscard]] bool live_complete() const;
  void advance_faults(Round r);

  /// Records one probe sample at round r when the probe's stride says so
  /// (`flush` forces a final sample; a no-op when r was already sampled).
  void probe_observe(Round r, std::uint64_t edges, bool flush);

  std::vector<KnowledgeSet> knowledge_;
  std::size_t k_;
  std::size_t complete_nodes_ = 0;
  FaultPlan* faults_;
  bool fault_active_;
  bool fault_amnesia_;
  double run_timeout_seconds_;
  Telemetry telemetry_;
  RunMetrics metrics_;
  // Termination state of the current run (see start_run / after_step).
  std::uint64_t stall_window_;
  std::uint32_t watchdog_mask_;
  Round start_offset_;
  RunStatus stop_ = RunStatus::kRoundCap;
  std::uint64_t last_learnings_ = 0;
  std::uint64_t quiet_ = 0;
  std::uint32_t ticks_ = 0;
  std::chrono::steady_clock::time_point started_;
  // Probe bookkeeping (read only with a probe attached): the metrics at the
  // last recorded sample (samples carry per-round deltas) and the fault
  // fates tallied across stride-skipped rounds.
  RunMetrics probe_prev_;
  std::uint64_t probe_dropped_ = 0;
  std::uint64_t probe_duplicated_ = 0;
};

}  // namespace dyngossip
