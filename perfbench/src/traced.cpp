// The traced per-layer pass.  It reruns each workload with the existing
// TimelineRecorder attached (through Telemetry and ThreadPool::set_timeline,
// read back with write_json) and times calls into each layer's public
// functions from here:
//
//   frontier  sharded and serial trials (untraced), one traced serial trial,
//             and a shadow pass that replays the same schedule through
//             RoundGraphView::rebuild, ConnectivityChecker::is_connected and
//             DynamicGraphTracker::advance;
//   grid      one untraced and one traced cold sweep;
//   serve     one traced session, then lookups, stores and write_index
//             timed on its final store.
//
// It checks that the traced numbers reconcile: adversary + send + deliver +
// unspanned equals the summed round spans, and the serve counters add up to
// the trials requested.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>

#include "graph/connectivity.hpp"
#include "graph/dynamic_tracker.hpp"
#include "graph/round_view.hpp"
#include "telemetry/timeline.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dyngossip;

void build_first_graph(const AdversaryRegistry& registry, const AdversarySpec& spec,
                       std::size_t n, std::uint64_t seed) {
  AdversaryBuildContext ctx;
  ctx.n = n;
  ctx.seed = seed;
  const std::unique_ptr<Adversary> schedule = registry.build(spec, ctx);
  UnicastRoundView first;
  first.round = 1;
  (void)schedule->unicast_round(first);
}

void SpanTotals::merge(const SpanTotals& other) {
  for (const auto& [name, s] : other.seconds) seconds[name] += s;
  round_ms.insert(round_ms.end(), other.round_ms.begin(), other.round_ms.end());
}

SpanTotals read_spans(const TimelineRecorder& rec) {
  // write_json emits one event object per line:
  //   {"name":"round","cat":"round","ph":"X","pid":1,"tid":0,"ts":12,"dur":34}
  std::ostringstream os;
  rec.write_json(os);
  std::istringstream in(os.str());
  SpanTotals totals;
  const std::string name_tag = "{\"name\":\"";
  const std::string dur_tag = "\"dur\":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name_tag, 0) != 0) continue;
    const std::size_t name_end = line.find('"', name_tag.size());
    const std::size_t dur_at = line.find(dur_tag);
    if (name_end == std::string::npos || dur_at == std::string::npos) continue;
    const std::string name = line.substr(name_tag.size(), name_end - name_tag.size());
    const double us = std::stod(line.substr(dur_at + dur_tag.size()));
    totals.seconds[name] += us * 1e-6;
    if (name == "round") totals.round_ms.push_back(us * 1e-3);
  }
  return totals;
}

namespace {

double at(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// Frontier layers: adversary, graph (shadow pass), engine, trace overhead.
void frontier_layers(const Options& o, ThreadPool& pool, Report& report) {
  // Each ratio compares adjacent trials, so host drift between them stays
  // small: pooled then serial for the speed-up, serial then traced for the
  // overhead.  The traced trial runs serially, like the measured frontier
  // trials (and the ROADMAP's per-layer split).
  const FrontierShape shape = frontier_shape(o, 0);
  const FrontierTrial sharded = frontier_trial(shape, &pool, {});
  const FrontierTrial serial = frontier_trial(shape, nullptr, {});
  check_frontier(o, report, "traced pass: frontier serial checksum",
                 serial.checksum, serial.checksum);
  check_frontier(o, report, "traced pass: frontier sharded checksum == serial",
                 sharded.checksum, serial.checksum);
  TimelineRecorder recorder;
  Telemetry telemetry;
  telemetry.timeline = &recorder;
  const FrontierTrial traced = frontier_trial(shape, nullptr, telemetry);
  check_frontier(o, report, "traced pass: frontier traced checksum == serial",
                 traced.checksum, serial.checksum);
  const SpanTotals spans = read_spans(recorder);

  // Shadow pass: the same oblivious schedule, one graph-plane call at a time.
  const std::unique_ptr<Adversary> schedule =
      build_adversary(shape.adversary, shape.n, shape.seed);
  RoundGraphView view;
  ConnectivityChecker checker;
  DynamicGraphTracker tracker(shape.n);
  double rebuild_s = 0.0;
  double connectivity_s = 0.0;
  double diff_s = 0.0;
  std::uint64_t live = 0;
  std::uint64_t changed = 0;
  std::uint64_t inserted = 0;
  bool connected = true;
  for (Round r = 1; r <= traced.rounds; ++r) {
    UnicastRoundView round_view;
    round_view.round = r;
    const Graph& g = schedule->unicast_round(round_view);
    const Clock::time_point t0 = Clock::now();
    view.rebuild(g);
    const Clock::time_point t1 = Clock::now();
    connected = checker.is_connected(view) && connected;
    const Clock::time_point t2 = Clock::now();
    const GraphDiff& diff = tracker.advance(view, r);
    const Clock::time_point t3 = Clock::now();
    rebuild_s += seconds_between(t0, t1);
    connectivity_s += seconds_between(t1, t2);
    diff_s += seconds_between(t2, t3);
    live += view.num_edges();
    changed += diff.inserted.size() + diff.removed.size();
    inserted += diff.inserted.size();
  }
  report.check(connected, "shadow pass: every round graph connected");
  report.check(inserted == traced.tc, "shadow pass replays the trial's schedule (TC)");

  const double rounds = static_cast<double>(traced.rounds);
  const double round_s = at(spans.seconds, "round");
  const double send_s = at(spans.seconds, "send_phase");
  const double deliver_s = at(spans.seconds, "deliver_phase");
  const double unspanned_s = round_s - send_s - deliver_s - traced.adversary_s;
  const double graph_s = rebuild_s + connectivity_s + diff_s;
  report.check(spans.round_ms.size() == traced.rounds && unspanned_s >= 0.0,
               "traced pass reconciles: adversary + phases <= round spans");

  report.metric("adversary.step_s", traced.adversary_s, "s");
  report.metric("adversary.calls", static_cast<double>(traced.adversary_calls), "count");
  report.metric("adversary.share", traced.adversary_s / round_s, "ratio");
  report.metric("graph.csr_rebuild_s", rebuild_s, "s");
  report.metric("graph.connectivity_s", connectivity_s, "s");
  report.metric("graph.tracker_diff_s", diff_s, "s");
  report.metric("graph.share", graph_s / round_s, "ratio");
  report.metric("graph.edges_live", static_cast<double>(live) / rounds, "count");
  report.metric("graph.edges_changed", static_cast<double>(changed) / rounds, "count");
  report.metric("graph.changed_fraction",
                static_cast<double>(changed) / static_cast<double>(live), "ratio");
  report.metric("engine.round_s", round_s, "s");
  report.metric("engine.round_p50_ms", percentile(spans.round_ms, 0.5), "ms");
  report.metric("engine.round_p99_ms", percentile(spans.round_ms, 0.99), "ms");
  report.metric("engine.send_phase_s", send_s, "s");
  report.metric("engine.deliver_phase_s", deliver_s, "s");
  report.metric("engine.unspanned_s", unspanned_s, "s");
  report.metric("engine.unspanned_share", unspanned_s / round_s, "ratio");
  report.metric("engine.shard_speedup", serial.wall_s / sharded.wall_s, "x");
  report.metric("trace.overhead", traced.wall_s / serial.wall_s - 1.0, "ratio");
  std::printf("reconcile {\"round_s\": %.9f, \"adversary_s\": %.9f, "
              "\"send_phase_s\": %.9f, \"deliver_phase_s\": %.9f, "
              "\"unspanned_s\": %.9f, \"graph_s\": %.9f}\n",
              round_s, traced.adversary_s, send_s, deliver_s, unspanned_s, graph_s);
}

/// Grid layers: engine (broadcast phase), async, fault, runner, pool.
void grid_layers(const Options& o, ThreadPool& pool, Report& report) {
  const std::vector<GridCell> cells = grid_cells(o);
  const GridSweep plain = grid_sweep(cells, pool, false);
  TimelineRecorder pool_recorder;
  pool.set_timeline(&pool_recorder);
  const GridSweep traced = grid_sweep(cells, pool, true);
  pool.set_timeline(nullptr);
  check_grid(o, report, "traced pass: grid fold", plain.fold, plain.fold);
  check_grid(o, report, "traced pass: traced grid fold == untraced", traced.fold,
             plain.fold);

  SpanTotals spans;
  for (const GridTrialStat& t : traced.trials) spans.merge(t.spans);
  std::vector<double> trial_s;
  double total_s = 0.0;
  double async_s = 0.0;
  double adversary_s = 0.0;
  double faulted_per_round = 0.0;
  double clean_per_round = 0.0;
  std::size_t faulted = 0;
  std::size_t clean = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridTrialStat& t = plain.trials[i];
    trial_s.push_back(t.wall_s);
    total_s += t.wall_s;
    adversary_s += t.adversary_s;
    if (cells[i].algo.family == "async_push_pull") async_s += t.wall_s;
    const double per_round = t.wall_s / static_cast<double>(std::max<Round>(t.rounds, 1));
    if (cells[i].fault.active()) {
      faulted_per_round += per_round;
      ++faulted;
    } else {
      clean_per_round += per_round;
      ++clean;
    }
  }

  report.metric("adversary.grid_share", adversary_s / total_s, "ratio");
  report.metric("engine.intent_phase_s", at(spans.seconds, "intent_phase"), "s");
  report.metric("async.round_s", at(spans.seconds, "async_round"), "s");
  report.metric("async.share", async_s / total_s, "ratio");
  report.metric("fault.round_ratio",
                (faulted_per_round / static_cast<double>(faulted)) /
                    (clean_per_round / static_cast<double>(clean)),
                "ratio");
  report.metric("runner.trial_p50_s", median(trial_s), "s");
  report.metric("runner.trial_max_s", percentile(trial_s, 1.0), "s");
  report.metric("runner.imbalance",
                plain.wall_s * static_cast<double>(pool.size()) / total_s, "ratio");
  report.metric("pool.queue_wait_s", at(read_spans(pool_recorder).seconds, "queue_wait"),
                "s");
}

/// Serve layers: cache and the service's dedup.
void serve_layers(const Options& o, ThreadPool& pool, Report& report) {
  const std::vector<std::vector<SweepRequest>> mix = serve_mix(o);
  TimelineRecorder pool_recorder;
  pool.set_timeline(&pool_recorder);
  const ServeSession s = serve_session(o, mix, pool, report, 0, /*keep_cache=*/true);
  pool.wait_idle();  // tickets may still be unwinding; detach only when idle
  pool.set_timeline(nullptr);
  check_serve_rows(mix, s.rows_by_key, pool, report);
  report.check(s.hits + s.misses == s.requested && s.misses == s.computed_rows &&
                   s.cache.hits + s.cache.misses == s.requested,
               "traced pass reconciles: serve counters == trials requested");

  // Layer timings on the session's final store: every requested key looked
  // up (repeats included, as the clients asked), every distinct row stored
  // again into a fresh cache, and the index rewritten.
  std::vector<RunKey> keys;
  for (const std::vector<SweepRequest>& client : mix) {
    for (const SweepRequest& req : client) {
      for (std::size_t i = 0; i < req.trials; ++i) {
        keys.push_back(serve_run_key(req, req.seed_base + i));
      }
    }
  }
  ResultCache store(s.cache_dir);
  std::map<std::string, std::pair<RunKey, CachedResult>> distinct;
  const Clock::time_point lookups = Clock::now();
  for (const RunKey& key : keys) {
    const std::optional<CachedResult> row = store.lookup(key);
    report.check(row.has_value(), "final store holds every served key");
    if (row) distinct.emplace(key.canonical_text(), std::make_pair(key, *row));
  }
  const double lookup_s = seconds_between(lookups, Clock::now());
  const Clock::time_point index = Clock::now();
  store.write_index();
  const double write_index_s = seconds_between(index, Clock::now());
  const std::string fresh_dir = o.scratch + "/cache-stores";
  std::filesystem::remove_all(fresh_dir);
  double store_s = 0.0;
  {
    ResultCache fresh(fresh_dir);
    const Clock::time_point stores = Clock::now();
    for (const auto& [text, entry] : distinct) fresh.store(entry.first, entry.second);
    store_s = seconds_between(stores, Clock::now());
  }
  std::filesystem::remove_all(fresh_dir);
  std::filesystem::remove_all(s.cache_dir);

  const double requested = static_cast<double>(s.requested);
  report.metric("cache.lookup_us", 1e6 * lookup_s / static_cast<double>(keys.size()), "us");
  report.metric("cache.store_us", 1e6 * store_s / static_cast<double>(distinct.size()),
                "us");
  report.metric("cache.write_index_s", write_index_s, "s");
  report.metric("cache.hits", static_cast<double>(s.cache.hits), "count");
  report.metric("cache.misses", static_cast<double>(s.cache.misses), "count");
  report.metric("cache.stores", static_cast<double>(s.cache.stores), "count");
  report.metric("cache.hit_ratio", static_cast<double>(s.cache.hits) / requested, "ratio");
  report.metric("serve.dedup_hits",
                static_cast<double>(s.hits) - static_cast<double>(s.cache.hits), "count");
  report.metric("serve.redundant_trials",
                static_cast<double>(s.misses) -
                    static_cast<double>(s.computed_by_key.size()),
                "count");
  report.metric("pool.serve_queue_wait_s",
                at(read_spans(pool_recorder).seconds, "queue_wait"), "s");
  std::printf("reconcile {\"requested\": %zu, \"hits\": %zu, \"misses\": %zu, "
              "\"cache_hits\": %zu, \"cache_misses\": %zu}\n",
              s.requested, s.hits, s.misses, s.cache.hits, s.cache.misses);
}

}  // namespace

void traced_pass(const Options& o, Report& report) {
  ThreadPool pool(o.workers);
  frontier_layers(o, pool, report);
  grid_layers(o, pool, report);
  serve_layers(o, pool, report);
}

}  // namespace perfbench
