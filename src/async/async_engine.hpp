// Continuous-time event-queue engine: asynchronous rumor spreading on
// dynamic graphs (the Pourmiri–Mans regime from PAPERS.md).
//
// Model.  Every node owns an independent rate-λ Poisson clock.  When node
// v's clock fires, v contacts one uniformly random current neighbor w and
// *pushes* one uniformly random token from its knowledge; in push-pull
// mode, w replies with one uniformly random token of its own in the same
// contact.  Each transmitted token counts as one unicast message
// (Definition 1.1's accounting carried over: the sender pays whether or
// not the fault plane delivers).  The topology is a registry round
// schedule mapped onto the clock by ClockedAdversary (edge lifetime = σ
// clock units).
//
// Determinism contract (the async leg of the repo-wide bit-identity
// guarantee): the event loop is *serial by design* — events form a strict
// total order under the (time, node, seq) tie-break, activation times are
// per-node prefix sums of position-keyed exponential gaps, and every
// neighbor/token/fault decision is a pure SplitMix64 hash of the event's
// schedule position (never of evaluation order or stream state).  Per-event
// work is a handful of loads, so there is nothing to shard: the engine takes
// no pool, and payloads are trivially bit-identical at 1, 2, or 8 threads
// (enforced by tests/async/ and the CI payload diff).
//
// Zero-overhead contract: with no probe, no timeline, and an inactive
// fault plan, the hot loop touches none of those subsystems — the same
// pointer/flag gating as the round engines, through the same RunHarness
// (engine/run_harness.hpp), whose per-event checks are inline.
//
// Metrics mapping: `rounds` = schedule rounds consumed (windows the last
// event reached), `virtual_steps` = total clock activations, `unicast.token`
// = transmitted tokens; tc/deletions accumulate per consumed window.  A run
// that reaches the time horizon cap·σ without completing reports
// RunStatus::kRoundCap with `rounds` = windows actually consumed.
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/adversary.hpp"
#include "async/clocked_adversary.hpp"
#include "async/event_queue.hpp"
#include "async/poisson_clock.hpp"
#include "common/knowledge_set.hpp"
#include "common/types.hpp"
#include "engine/graph_plane.hpp"
#include "engine/run_harness.hpp"
#include "graph/dynamic_tracker.hpp"
#include "metrics/accounting.hpp"
#include "telemetry/timeline.hpp"

namespace dyngossip {

/// Engine options (the async analogue of UnicastEngineOptions).  RunEnv's
/// fault plan advances liveness per schedule round, and its delivery fates
/// are keyed by event position (round, event seq, leg); its watchdog reads
/// the clock every 64 popped events.
struct AsyncEngineOptions : RunEnv {
  /// Poisson activation rate λ per node, in activations per clock unit.
  double rate = 1.0;
  /// Edge lifetime: clock units each schedule round's graph stays live.
  double sigma = 1.0;
  /// Push-pull mode: the contacted neighbor replies with one of its own
  /// tokens in the same contact (two messages per effective contact).
  bool push_pull = false;
  /// Seed of the trial's SplitMix64 position streams (clock gaps, neighbor
  /// picks, token picks).
  std::uint64_t seed = 1;
};

/// Drives asynchronous push / push-pull spreading over a clocked schedule.
class AsyncEngine {
 public:
  /// `initial_knowledge[v]` is K_v(0) over a k-token universe.
  AsyncEngine(Adversary& adversary, std::vector<KnowledgeSet> initial_knowledge,
              std::size_t k, AsyncEngineOptions opts = {});

  /// Runs until every (live) node knows all k tokens or clock time reaches
  /// max_rounds·σ; returns final metrics with completed/status/coverage set.
  RunMetrics run(Round max_rounds);

  /// True iff every node knows all k tokens.
  [[nodiscard]] bool all_complete() const noexcept { return run_.all_complete(); }

  [[nodiscard]] const KnowledgeSet& knowledge_of(NodeId v) const {
    return run_.knowledge_of(v);
  }
  [[nodiscard]] const RunMetrics& metrics() const noexcept { return run_.metrics(); }

  /// Schedule rounds consumed so far.
  [[nodiscard]] Round round() const noexcept { return round_; }

  /// Total clock activations processed so far.
  [[nodiscard]] std::uint64_t activations() const noexcept {
    return run_.metrics().virtual_steps;
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept { return run_.num_nodes(); }

 private:
  /// Consumes schedule rounds up to `target`: closes each open window
  /// (probe sample, event-batch timeline span), advances the fault
  /// liveness mask, builds the next graph, and diffs it into TC.
  void advance_rounds(Round target);

  /// One clock activation of `ev.node` (neighbor pick + push / pull legs).
  void process(const ActivationEvent& ev);

  /// One transmitted token to `to` (leg 0: push, 1: pull reply); counts
  /// the message, rolls the event-position fault fate, applies the
  /// delivery.  No-op when `tok` is kNoToken (empty knowledge).
  void deliver_leg(NodeId to, TokenId tok, std::uint32_t leg,
                   std::uint64_t event_no);

  /// Applies one delivered token to `to`'s knowledge.
  void learn(NodeId to, TokenId tok);

  /// Uniform member of `ks`, keyed by (event_no, salt); kNoToken if empty.
  [[nodiscard]] TokenId pick_token(const KnowledgeSet& ks,
                                   std::uint64_t event_no,
                                   std::uint64_t salt) const;

  ClockedAdversary clocked_;
  PoissonClock clock_;
  RunHarness run_;  ///< knowledge mirror, metrics, faults, probe, termination
  bool push_pull_;
  std::uint64_t seed_;
  DynamicGraphTracker tracker_;
  Round round_ = 0;

  EventQueue queue_;
  std::uint64_t seq_ = 0;                     ///< monotone event push counter
  std::vector<std::uint64_t> next_gap_index_; ///< per-node next clock gap

  RoundGraphPlane plane_;  ///< the live graph: CSR view, checks, tracker

  // Timeline bookkeeping (touched only with a timeline attached):
  // start of the current window's event batch.
  TimelineRecorder::Clock::time_point batch_begin_;
};

}  // namespace dyngossip
