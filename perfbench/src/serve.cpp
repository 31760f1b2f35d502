// serve: an in-process SweepService over a fresh ResultCache, driven by
// closed-loop client sessions (each sends its next sweep only after the
// previous one returned).  Every client asks for the same twelve sweep
// templates in its own seed-drawn order, and neighbouring templates share
// half their trial seeds, so cache stores, cache hits and in-flight dedup
// all happen within one session.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "cache/memo_sweep.hpp"
#include "fault/fault_plan.hpp"
#include "serve/server.hpp"
#include "sim/runner/json.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dyngossip;

std::vector<std::vector<SweepRequest>> serve_mix(const Options& o) {
  const char* const algos[] = {"single_source", "multi_source:sources=4",
                               "flooding:"};
  const char* const schedules[] = {"churn", "sigma:interval=4"};
  const std::size_t n = o.tiny ? 12 : 48;
  const std::size_t trials = o.tiny ? 4 : 8;
  std::vector<SweepRequest> templates;
  std::uint64_t group = 0;
  for (const char* algo : algos) {
    for (const char* schedule : schedules) {
      for (std::size_t window = 0; window < 2; ++window) {
        SweepRequest req;
        req.algo = algo;
        req.adversary = schedule;
        req.n = n;
        req.k = static_cast<std::uint32_t>(2 * n);
        req.trials = trials;
        req.seed_base = 50'000 + 1'000 * o.seed + 100 * group + window * trials / 2;
        templates.push_back(req);
      }
      ++group;
    }
  }
  // Client c asks for the templates in a fixed rotation starting at 3c,
  // two and a half times over.
  std::vector<std::vector<SweepRequest>> mix(o.workers);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    for (std::size_t j = 0; j < 5 * templates.size() / 2; ++j) {
      mix[c].push_back(templates[(j + 3 * c) % templates.size()]);
    }
  }
  return mix;
}

RunKey serve_run_key(const SweepRequest& req, std::uint64_t seed) {
  return make_run_key(AlgoSpec::parse(req.algo).to_string(),
                      AdversarySpec::parse(req.adversary).to_string(),
                      FaultSpec::parse(req.fault).to_string(), req.n, req.k,
                      req.sources, req.cap, seed);
}

CachedResult serve_direct(const SweepRequest& req, std::uint64_t seed) {
  const std::unique_ptr<Adversary> adversary =
      build_adversary(AdversarySpec::parse(req.adversary), req.n, seed);
  FaultPlan plan(FaultSpec::parse(req.fault), req.n, seed);
  AlgoBuildContext ctx;
  ctx.n = req.n;
  ctx.k = req.k;
  ctx.sources = req.sources;
  ctx.cap = req.cap;
  ctx.seed = seed;
  ctx.faults = &plan;
  const RunResult run = run_algo(AlgoSpec::parse(req.algo), ctx, *adversary);
  return make_cached_result(req.n, ctx.k_realized, run);
}

namespace {

std::uint64_t parse_hex(const std::string& text) {
  return std::stoull(text, nullptr, 16);
}

/// Checks one sweep's protocol lines and folds its rows into `s`.
void absorb_sweep(const SweepRequest& req, const std::vector<std::string>& lines,
                  ServeSession& s, Report& report) {
  s.requested += req.trials;
  std::size_t rows = 0;
  bool done = false;
  for (const std::string& line : lines) {
    const JsonValue doc = JsonValue::parse(line);
    const std::string& type = doc.find("type")->as_string();
    if (type == "error") {
      report.check(false, "serve error line: " + line);
      return;
    }
    if (type == "row") {
      const auto seed = static_cast<std::uint64_t>(doc.find("seed")->as_number());
      const std::uint64_t checksum = parse_hex(doc.find("checksum")->as_string());
      const std::string key = serve_key(req, seed);
      const auto [it, fresh] = s.rows_by_key.emplace(key, checksum);
      if (!fresh) report.check(it->second == checksum, "served rows agree: " + key);
      if (!doc.find("cached")->as_bool()) {
        ++s.computed_rows;
        ++s.computed_by_key[key];
      }
      s.node_rounds += req.n * static_cast<std::uint64_t>(doc.find("rounds")->as_number());
      ++rows;
    } else if (type == "done") {
      const auto hits = static_cast<std::size_t>(doc.find("hits")->as_number());
      const auto misses = static_cast<std::size_t>(doc.find("misses")->as_number());
      report.check(hits + misses == req.trials, "serve hits + misses == trials");
      s.hits += hits;
      s.misses += misses;
      done = true;
    }
  }
  report.check(done && rows == req.trials, "serve sweep delivered every row");
  s.rows += rows;
}

}  // namespace

ServeSession serve_session(const Options& o,
                           const std::vector<std::vector<SweepRequest>>& mix,
                           ThreadPool& pool, Report& report, std::size_t index,
                           bool keep_cache) {
  const std::string dir = o.scratch + "/serve-cache-" + std::to_string(index);
  std::filesystem::remove_all(dir);
  struct ClientLog {
    std::vector<double> latency_ms;
    std::vector<std::vector<std::string>> lines;
    std::string error;
  };
  std::vector<ClientLog> logs(mix.size());
  ServeSession s;
  const Clock::time_point begin = Clock::now();
  {
    ResultCache cache(dir);
    SweepService service(pool, &cache);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < mix.size(); ++c) {
      clients.emplace_back([&service, &mix, &logs, c] {
        try {
          for (const SweepRequest& req : mix[c]) {
            std::vector<std::string> lines;
            const Clock::time_point sent = Clock::now();
            service.run_sweep(req, [&lines](const std::string& line) {
              lines.push_back(line);
            });
            logs[c].latency_ms.push_back(1e3 * seconds_between(sent, Clock::now()));
            logs[c].lines.push_back(std::move(lines));
          }
        } catch (const std::exception& e) {
          logs[c].error = e.what();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    s.cache = cache.stats();
  }
  for (std::size_t c = 0; c < mix.size(); ++c) {
    report.check(logs[c].error.empty(), "serve client: " + logs[c].error);
    for (std::size_t r = 0; r < logs[c].lines.size(); ++r) {
      absorb_sweep(mix[c][r], logs[c].lines[r], s, report);
    }
    s.latency_ms.insert(s.latency_ms.end(), logs[c].latency_ms.begin(),
                        logs[c].latency_ms.end());
  }
  s.wall_s = seconds_between(begin, Clock::now());
  if (keep_cache) {
    s.cache_dir = dir;
  } else {
    std::filesystem::remove_all(dir);
  }
  return s;
}

void check_serve_rows(const std::vector<std::vector<SweepRequest>>& mix,
                      const std::map<std::string, std::uint64_t>& served,
                      ThreadPool& pool, Report& report) {
  std::map<std::string, std::pair<const SweepRequest*, std::uint64_t>> distinct;
  for (const std::vector<SweepRequest>& client : mix) {
    for (const SweepRequest& req : client) {
      for (std::size_t i = 0; i < req.trials; ++i) {
        distinct.emplace(serve_key(req, req.seed_base + i),
                         std::make_pair(&req, req.seed_base + i));
      }
    }
  }
  std::vector<std::pair<std::string, std::uint64_t>> direct(distinct.size());
  std::size_t slot = 0;
  for (const auto& [key, job] : distinct) {
    direct[slot].first = key;
    pool.submit([&out = direct[slot], job] {
      try {
        out.second = serve_direct(*job.first, job.second).checksum;
      } catch (const std::exception&) {
        out.second = 0;  // never a real checksum match below
      }
    });
    ++slot;
  }
  pool.wait_idle();
  for (const auto& [key, checksum] : direct) {
    const auto it = served.find(key);
    report.check(it != served.end() && checksum != 0 && it->second == checksum,
                 "served row == direct run_algo: " + key);
  }
}

void serve_workload(const Options& o, Report& report) {
  const std::vector<std::vector<SweepRequest>> mix = serve_mix(o);
  const auto setup_once = [&] {
    const std::string dir = o.scratch + "/serve-setup";
    std::filesystem::remove_all(dir);
    const Clock::time_point begin = Clock::now();
    AlgoRegistry algorithms;
    register_all_algorithms(algorithms);
    AdversaryRegistry schedules;
    register_all_adversaries(schedules);
    // The schedules of every sweep the first client sends (its list covers
    // every template).
    for (const SweepRequest& req : mix.front()) {
      for (std::size_t i = 0; i < req.trials; ++i) {
        build_first_graph(schedules, AdversarySpec::parse(req.adversary), req.n,
                          req.seed_base + i);
      }
    }
    ThreadPool pool(o.workers);
    ResultCache cache(dir);
    SweepService service(pool, &cache);
    const double took = seconds_between(begin, Clock::now());
    std::filesystem::remove_all(dir);
    return took;
  };
  std::vector<double> setup;
  time_setup(setup, o, setup_once);

  ThreadPool pool(o.workers);
  std::vector<double> walls;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::map<std::string, std::uint64_t> served;
  ServeSession last;
  const std::size_t min_sessions = o.tiny ? 1 : 3;
  const Clock::time_point start = Clock::now();
  do {
    last = serve_session(o, mix, pool, report, walls.size());
    walls.push_back(last.wall_s);
    p50s.push_back(percentile(last.latency_ms, 0.5));
    p90s.push_back(percentile(last.latency_ms, 0.9));
    for (const auto& [key, checksum] : last.rows_by_key) {
      const auto [it, fresh] = served.emplace(key, checksum);
      if (!fresh) report.check(it->second == checksum, "sessions agree: " + key);
    }
  } while (walls.size() < min_sessions ||
           seconds_between(start, Clock::now()) + median(walls) <= o.seconds);
  check_serve_rows(mix, served, pool, report);

  const double wall = median(walls);
  time_setup(setup, o, setup_once);
  report.metric("setup_s", median(setup), "s");
  report.metric("wall_s", wall, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("node_rounds_per_s", static_cast<double>(last.node_rounds) / wall,
                "1/s");
  report.metric("trials_per_s", static_cast<double>(last.rows) / wall, "1/s");
  report.metric("sweep_p50_ms", median(p50s), "ms");
  report.metric("sweep_p90_ms", median(p90s), "ms");
  std::printf("serve: clients=%zu sessions=%zu (latency samples: %zu sweeps per session) "
              "last session hits=%zu misses=%zu computed=%zu distinct=%zu\n",
              mix.size(), walls.size(), last.latency_ms.size(), last.hits, last.misses,
              last.computed_rows, last.computed_by_key.size());
}

}  // namespace perfbench
