// frontier: Algorithm 1 trials in the `single_source --scale=large` row
// shape (n = 4096, k = 256, churn with 8n edges and n/8 deletions per
// round, cap 100k + n).
//
// The measured trials run on the serial engine.  On a shared 4-vCPU host
// the sharded engine, which wakes the pool twice a round, swung between
// 4 s and 12 s for the same trial, while the serial engine stayed within
// about ±13%.  The sharded run is still made every time: one trial on an
// nproc-worker pool (n >= 4096, so intra-round sharding engages) must
// reproduce the serial checksum, and the traced pass times it for
// engine.shard_speedup.
//
// Trials run to completion.  Every seed sends about the same 2.23M
// messages, but completion takes anywhere from about 1200 to past 1900
// rounds, so one trial's time depends on its seed.  Each run therefore
// cycles through four trial seeds drawn from the workload seed; the first
// seed of the default workload seed is the large row's 9000 + 13n, whose
// payload checksum is pinned.
#include <cstdio>
#include <memory>

#include "workloads.hpp"

namespace perfbench {

using namespace dyngossip;

namespace {

constexpr std::uint64_t kPinnedChecksum = 0x5645f062e5147ac8ULL;

}  // namespace

FrontierShape frontier_shape(const Options& o, std::size_t variant) {
  FrontierShape s;
  s.n = o.tiny ? 512 : 4096;
  s.k = o.tiny ? 32 : 256;
  s.horizon = 100 * static_cast<Round>(s.k) + static_cast<Round>(s.n);
  s.seed = 9'000 + 13 * s.n + kFrontierSeeds * o.seed + variant;
  s.adversary = AdversarySpec{"churn", {}};
  s.adversary.set("edges", static_cast<std::uint64_t>(8 * s.n))
      .set("churn", static_cast<std::uint64_t>(s.n / 8));
  return s;
}

FrontierTrial frontier_trial(const FrontierShape& shape, ThreadPool* pool,
                             Telemetry telemetry) {
  const std::unique_ptr<Adversary> adversary =
      build_adversary(shape.adversary, shape.n, shape.seed);
  ClockedSchedule schedule(*adversary);
  AlgoBuildContext ctx;
  ctx.n = shape.n;
  ctx.k = shape.k;
  ctx.sources = 1;
  ctx.cap = shape.horizon;
  ctx.seed = shape.seed;
  ctx.engine_pool = pool;
  ctx.telemetry = telemetry;

  const Clock::time_point begin = Clock::now();
  const RunResult run = run_algo(AlgoSpec{"single_source", {}}, ctx, schedule);
  const CachedResult row = make_cached_result(shape.n, ctx.k_realized, run);
  const Clock::time_point end = Clock::now();

  FrontierTrial t;
  t.checksum = row.checksum;
  t.rounds = run.rounds;
  t.tc = row.metrics.tc;
  t.wall_s = seconds_between(begin, end);
  t.adversary_s = schedule.busy_seconds();
  t.adversary_calls = schedule.calls();
  t.round_ms = schedule.round_latencies_ms(end);
  return t;
}

void check_frontier(const Options& o, Report& report, const char* what,
                    std::uint64_t checksum, std::uint64_t reference) {
  report.check(checksum == reference && (!o.pinned() || checksum == kPinnedChecksum),
               what);
}

void frontier_workload(const Options& o, Report& report) {
  const auto setup_once = [&] {
    const FrontierShape shape = frontier_shape(o, 0);
    const Clock::time_point begin = Clock::now();
    AlgoRegistry algorithms;
    register_all_algorithms(algorithms);
    AdversaryRegistry schedules;
    register_all_adversaries(schedules);
    build_first_graph(schedules, shape.adversary, shape.n, shape.seed);
    ThreadPool pool(o.workers);
    return seconds_between(begin, Clock::now());
  };
  std::vector<double> setup;
  time_setup(setup, o, setup_once);

  std::vector<double> walls;
  std::vector<double> round_ms;  // every round of every trial
  double total_s = 0.0;
  double node_rounds = 0.0;
  std::uint64_t reference = 0;  // the first seed's serial checksum
  const Clock::time_point start = Clock::now();
  do {  // whole cycles over the four seeds
    for (std::size_t variant = 0; variant < kFrontierSeeds; ++variant) {
      const FrontierShape shape = frontier_shape(o, variant);
      const FrontierTrial t = frontier_trial(shape, nullptr, {});
      if (variant == 0) {
        if (walls.empty()) reference = t.checksum;
        check_frontier(o, report, "frontier serial checksum", t.checksum, reference);
      }
      report.check(t.rounds > 0, "frontier trial ran");
      walls.push_back(t.wall_s);
      total_s += t.wall_s;
      node_rounds += static_cast<double>(shape.n) * static_cast<double>(t.rounds);
      round_ms.insert(round_ms.end(), t.round_ms.begin(), t.round_ms.end());
    }
  } while (seconds_between(start, Clock::now()) * (1.0 + 1.0 / static_cast<double>(
               walls.size() / kFrontierSeeds)) <= o.seconds);
  // Read before the pool exists: its per-thread malloc arenas add several
  // MB of run-to-run noise.
  const double rss_mb = peak_rss_mb();

  // The sharded engine must reproduce the serial result.
  {
    ThreadPool pool(o.workers);
    const FrontierTrial sharded = frontier_trial(frontier_shape(o, 0), &pool, {});
    check_frontier(o, report, "frontier sharded checksum == serial",
                   sharded.checksum, reference);
  }

  time_setup(setup, o, setup_once);
  report.metric("setup_s", median(setup), "s");
  report.metric("wall_s", median(walls), "s");
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.metric("node_rounds_per_s", node_rounds / total_s, "1/s");
  report.metric("trials_per_s", static_cast<double>(walls.size()) / total_s, "1/s");
  report.metric("sweep_p50_ms", percentile(round_ms, 0.5), "ms");
  report.metric("sweep_p90_ms", percentile(round_ms, 0.9), "ms");
  const FrontierShape first = frontier_shape(o, 0);
  std::printf("frontier: n=%zu k=%u serial trials=%zu over %zu seeds "
              "(latency samples: %zu rounds)\n",
              first.n, first.k, walls.size(), kFrontierSeeds, round_ms.size());
}

}  // namespace perfbench
