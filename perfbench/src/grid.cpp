// grid: a cold sweep (no cache) of many small trials through
// memoized_sweep, trial-parallel on the pool.  It crosses five algorithms
// on all three engines, two schedules, fault-free and faulted runs, two
// sizes and four seeds: per-trial set-up, registry dispatch, the broadcast
// and async engines, the fault plane and trial-level load balance carry
// the work, and the graph plane does little.
#include <cstdio>
#include <memory>

#include "cache/memo_sweep.hpp"
#include "fault/fault_plan.hpp"
#include "telemetry/timeline.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dyngossip;

namespace {

/// Folded row checksums of the default seed's grid (any worker count).
constexpr std::uint64_t kPinnedFold = 0x5fb130c83eedaeceULL;

}  // namespace

std::vector<GridCell> grid_cells(const Options& o) {
  const char* const algos[] = {"single_source", "multi_source:sources=4",
                               "neighbor_exchange", "flooding:",
                               "async_push_pull"};
  const char* const schedules[] = {"churn", "sigma:interval=4"};
  const char* const faults[] = {"fault",
                                "fault:drop=0.1,crash=0.002,recover=0.2"};
  const std::vector<std::size_t> sizes =
      o.tiny ? std::vector<std::size_t>{12, 16} : std::vector<std::size_t>{48, 96};
  const std::size_t seeds = o.tiny ? 1 : 4;
  std::vector<GridCell> cells;
  for (const char* algo : algos) {
    for (const char* schedule : schedules) {
      for (const char* fault : faults) {
        for (const std::size_t n : sizes) {
          for (std::size_t i = 0; i < seeds; ++i) {
            GridCell c;
            c.algo = AlgoSpec::parse(algo);
            c.adversary = AdversarySpec::parse(schedule);
            c.fault = FaultSpec::parse(fault);
            c.n = n;
            c.k = static_cast<std::uint32_t>(2 * n);
            c.seed = 20'000 + 100 * o.seed + 13 * n + i;
            cells.push_back(std::move(c));
          }
        }
      }
    }
  }
  return cells;
}

GridSweep grid_sweep(const std::vector<GridCell>& cells, ThreadPool& pool,
                     bool traced) {
  GridSweep sweep;
  sweep.trials.resize(cells.size());
  std::vector<KeyedTrial> trials;
  trials.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridCell& c = cells[i];
    KeyedTrial trial;
    trial.key = make_run_key(c.algo.to_string(), c.adversary.to_string(),
                             c.fault.to_string(), c.n, c.k, 4, 0, c.seed);
    GridTrialStat& stat = sweep.trials[i];
    trial.run = [&c, &stat, traced](ThreadPool* engine_pool) {
      const Clock::time_point begin = Clock::now();
      const std::unique_ptr<Adversary> adversary =
          build_adversary(c.adversary, c.n, c.seed);
      ClockedSchedule schedule(*adversary);
      FaultPlan plan(c.fault, c.n, c.seed);
      TimelineRecorder recorder;
      AlgoBuildContext ctx;
      ctx.n = c.n;
      ctx.k = c.k;
      ctx.sources = 4;
      ctx.seed = c.seed;
      ctx.engine_pool = engine_pool;
      ctx.faults = &plan;
      if (traced) ctx.telemetry.timeline = &recorder;
      const RunResult run = run_algo(c.algo, ctx, schedule);
      const CachedResult row = make_cached_result(c.n, ctx.k_realized, run);
      const Clock::time_point end = Clock::now();
      stat.wall_s = seconds_between(begin, end);
      stat.rounds = run.rounds;
      stat.adversary_s = schedule.busy_seconds();
      stat.round_ms = schedule.round_latencies_ms(end);
      if (traced) stat.spans = read_spans(recorder);
      return row;
    };
    trials.push_back(std::move(trial));
  }

  const Clock::time_point begin = Clock::now();
  const std::vector<MemoOutcome> out = memoized_sweep(trials, nullptr, pool);
  sweep.wall_s = seconds_between(begin, Clock::now());
  for (const MemoOutcome& m : out) {
    sweep.fold = fold(sweep.fold, m.row.checksum);
    sweep.rows.push_back(m.row);
  }
  return sweep;
}

void check_grid(const Options& o, Report& report, const char* what,
                std::uint64_t fold_value, std::uint64_t reference) {
  report.check(fold_value == reference && (!o.pinned() || fold_value == kPinnedFold),
               what);
}

void grid_workload(const Options& o, Report& report) {
  const auto setup_once = [&] {
    const Clock::time_point begin = Clock::now();
    AlgoRegistry algorithms;
    register_all_algorithms(algorithms);
    AdversaryRegistry schedules;
    register_all_adversaries(schedules);
    for (const GridCell& c : grid_cells(o)) {
      algorithms.validate(c.algo);
      build_first_graph(schedules, c.adversary, c.n, c.seed);
      const FaultPlan plan(c.fault, c.n, c.seed);
    }
    ThreadPool pool(o.workers);
    return seconds_between(begin, Clock::now());
  };
  std::vector<double> setup;
  time_setup(setup, o, setup_once);
  const std::vector<GridCell> cells = grid_cells(o);

  // Correctness reference: the same sweep on one worker.
  ThreadPool single(1);
  const GridSweep reference = grid_sweep(cells, single, false);
  check_grid(o, report, "grid 1-worker fold", reference.fold, reference.fold);

  ThreadPool pool(o.workers);
  std::vector<double> walls;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::uint64_t node_rounds = 0;
  const Clock::time_point start = Clock::now();
  do {
    const GridSweep s = grid_sweep(cells, pool, false);
    check_grid(o, report, "grid fold on the pool == 1 worker", s.fold,
               reference.fold);
    report.check(s.rows.size() == cells.size(), "grid rows == trials");
    walls.push_back(s.wall_s);
    std::vector<double> round_ms;
    node_rounds = 0;
    for (std::size_t i = 0; i < s.trials.size(); ++i) {
      const GridTrialStat& t = s.trials[i];
      round_ms.insert(round_ms.end(), t.round_ms.begin(), t.round_ms.end());
      node_rounds += cells[i].n * static_cast<std::uint64_t>(t.rounds);
    }
    p50s.push_back(percentile(round_ms, 0.5));
    p90s.push_back(percentile(round_ms, 0.9));
  } while (seconds_between(start, Clock::now()) + median(walls) <= o.seconds);

  const double wall = median(walls);
  time_setup(setup, o, setup_once);
  report.metric("setup_s", median(setup), "s");
  report.metric("wall_s", wall, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("node_rounds_per_s", static_cast<double>(node_rounds) / wall, "1/s");
  report.metric("trials_per_s", static_cast<double>(cells.size()) / wall, "1/s");
  report.metric("sweep_p50_ms", median(p50s), "ms");
  report.metric("sweep_p90_ms", median(p90s), "ms");
  std::printf("grid: trials=%zu sweeps=%zu fold=%016llx (latency samples: every round of a sweep)\n",
              cells.size(), walls.size(),
              static_cast<unsigned long long>(reference.fold));
}

}  // namespace perfbench
