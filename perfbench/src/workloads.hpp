// The three workloads (frontier, grid, serve) and the traced per-layer pass.
//
// Each workload has an untraced entry point that measures the end-to-end
// metrics for Options::seconds, and exposes the pieces the traced pass
// (traced.cpp) reuses to time each layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "cache/result_cache.hpp"
#include "fault/fault_spec.hpp"
#include "harness.hpp"
#include "serve/protocol.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/timeline.hpp"

namespace perfbench {

/// Appends `reps` timings of `once()` (seconds) to `samples`.  Each
/// workload takes half its set-up samples before its measured window and
/// half after it, so setup_s, their median, spans the run the way the other
/// metrics do.
template <typename Fn>
void time_setup(std::vector<double>& samples, const Options& o, Fn&& once) {
  const std::size_t reps = o.tiny ? 2 : 8;
  for (std::size_t i = 0; i < reps; ++i) samples.push_back(once());
}

/// Set-up of one schedule: built through `registry` and driven to its
/// first round graph (the churn-style families build their initial graph
/// lazily on round 1).
void build_first_graph(const dyngossip::AdversaryRegistry& registry,
                       const dyngossip::AdversarySpec& spec, std::size_t n,
                       std::uint64_t seed);

/// Sums of the timeline spans the harness reads back (seconds), plus the
/// individual round-span durations (ms).
struct SpanTotals {
  std::map<std::string, double> seconds;  ///< by span name
  std::vector<double> round_ms;           ///< "round" spans only
  void merge(const SpanTotals& other);
};

/// Reads a recorder back through its write_json output.
[[nodiscard]] SpanTotals read_spans(const dyngossip::TimelineRecorder& rec);

// ---- frontier -----------------------------------------------------------

/// Trial seeds one frontier run cycles through.
inline constexpr std::size_t kFrontierSeeds = 4;

struct FrontierShape {
  std::size_t n;
  std::uint32_t k;
  dyngossip::Round horizon;  ///< round cap handed to run_algo
  std::uint64_t seed;        ///< trial seed
  dyngossip::AdversarySpec adversary;
};
/// The shape of trial seed `variant` (< kFrontierSeeds) of a run.
[[nodiscard]] FrontierShape frontier_shape(const Options& o, std::size_t variant);

struct FrontierTrial {
  std::uint64_t checksum = 0;
  dyngossip::Round rounds = 0;
  double wall_s = 0.0;           ///< run_algo plus the checksum fold
  std::uint64_t tc = 0;          ///< topological changes TC(E)
  double adversary_s = 0.0;      ///< time inside the schedule
  std::size_t adversary_calls = 0;
  std::vector<double> round_ms;  ///< per-round latency
};

/// One Algorithm 1 trial; `pool` null runs the engine serially.
[[nodiscard]] FrontierTrial frontier_trial(const FrontierShape& shape,
                                           dyngossip::ThreadPool* pool,
                                           dyngossip::Telemetry telemetry);

/// Checks a frontier checksum against the pinned one (default seed) or
/// against `reference` (any seed).
void check_frontier(const Options& o, Report& report, const char* what,
                    std::uint64_t checksum, std::uint64_t reference);

void frontier_workload(const Options& o, Report& report);

// ---- grid ---------------------------------------------------------------

struct GridCell {
  dyngossip::AlgoSpec algo;
  dyngossip::AdversarySpec adversary;
  dyngossip::FaultSpec fault;
  std::size_t n = 0;
  std::uint32_t k = 0;
  std::uint64_t seed = 0;
};
[[nodiscard]] std::vector<GridCell> grid_cells(const Options& o);

struct GridTrialStat {
  double wall_s = 0.0;
  dyngossip::Round rounds = 0;
  double adversary_s = 0.0;
  SpanTotals spans;              ///< filled only in a traced sweep
  std::vector<double> round_ms;
};

struct GridSweep {
  double wall_s = 0.0;
  std::uint64_t fold = 0;        ///< checksums of every row, in order
  std::vector<GridTrialStat> trials;
  std::vector<dyngossip::CachedResult> rows;
};

/// One cold memoized sweep (no cache) over `cells` on `pool`.  `traced`
/// attaches a timeline recorder to every trial.
[[nodiscard]] GridSweep grid_sweep(const std::vector<GridCell>& cells,
                                   dyngossip::ThreadPool& pool, bool traced);

void check_grid(const Options& o, Report& report, const char* what,
                std::uint64_t fold, std::uint64_t reference);

void grid_workload(const Options& o, Report& report);

// ---- serve --------------------------------------------------------------

/// Per-client closed-loop request lists, drawn from the workload seed.
[[nodiscard]] std::vector<std::vector<dyngossip::SweepRequest>> serve_mix(
    const Options& o);

struct ServeSession {
  double wall_s = 0.0;
  std::vector<double> latency_ms;  ///< one per sweep request
  std::size_t requested = 0;       ///< trials asked for
  std::size_t hits = 0;            ///< done-line hits (cache + dedup)
  std::size_t misses = 0;
  std::size_t rows = 0;
  std::size_t computed_rows = 0;   ///< rows with cached=false
  std::uint64_t node_rounds = 0;   ///< Σ n·rounds over delivered rows
  dyngossip::CacheStats cache;
  /// Checksum of every row served, by canonical key text.
  std::map<std::string, std::uint64_t> rows_by_key;
  /// Rows this session computed (cached=false), by key; a count above 1 is
  /// a redundant computation.
  std::map<std::string, std::size_t> computed_by_key;
  std::string cache_dir;           ///< kept only when asked to
};

/// One session: a fresh ResultCache under o.scratch, one SweepService, and
/// one client thread per request list.  Failures go to `report`.  The
/// cache directory is removed unless `keep_cache`.
[[nodiscard]] ServeSession serve_session(
    const Options& o, const std::vector<std::vector<dyngossip::SweepRequest>>& mix,
    dyngossip::ThreadPool& pool, Report& report, std::size_t index,
    bool keep_cache = false);

/// Recomputes every distinct served row with a direct run_algo and checks
/// it against `served` (one check per key).
void check_serve_rows(const std::vector<std::vector<dyngossip::SweepRequest>>& mix,
                      const std::map<std::string, std::uint64_t>& served,
                      dyngossip::ThreadPool& pool, Report& report);

/// The cache's RunKey of one requested trial.
[[nodiscard]] dyngossip::RunKey serve_run_key(const dyngossip::SweepRequest& req,
                                              std::uint64_t seed);
[[nodiscard]] inline std::string serve_key(const dyngossip::SweepRequest& req,
                                           std::uint64_t seed) {
  return serve_run_key(req, seed).canonical_text();
}

/// Direct recomputation of one requested trial.
[[nodiscard]] dyngossip::CachedResult serve_direct(
    const dyngossip::SweepRequest& req, std::uint64_t seed);

void serve_workload(const Options& o, Report& report);

// ---- traced per-layer pass ----------------------------------------------

void traced_pass(const Options& o, Report& report);

}  // namespace perfbench
