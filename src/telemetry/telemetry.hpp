// The observer handle the engines carry: at most one probe and one timeline
// recorder per run, both non-owning and both optional.
//
// Zero-cost-when-off contract: every telemetry touch inside an engine is
// gated on the pointer (`if (telemetry_.probe != nullptr) ...`), so a run
// built without probes takes the exact legacy code path — and a probed run
// only *reads* engine state (counters the payload checksum already folds,
// plus an O(n) coverage scan per sampled round), so payload checksums are
// byte-identical with probes on or off.  Both halves are CI-gated.
#pragma once

namespace dyngossip {

class RoundProbe;
class TimelineRecorder;

/// Non-owning observer pointers, carried by value in RunEnv
/// (engine/run_harness.hpp) — the base of the three engines' options, of
/// AlgoBuildContext and ObliviousMsOptions, and the `env` argument of the
/// sim/simulator.hpp entry points — and handed to keyed_trial
/// (cache/memo_sweep.hpp), where an active one makes the trial uncacheable.
struct Telemetry {
  RoundProbe* probe = nullptr;
  TimelineRecorder* timeline = nullptr;

  [[nodiscard]] bool active() const noexcept {
    return probe != nullptr || timeline != nullptr;
  }
};

}  // namespace dyngossip
