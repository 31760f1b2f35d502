// The sweep service behind `dyngossip serve`, driven in-process through the
// same transport-free emit callback the socket layer uses: protocol framing,
// cache sharing between overlapping requests, round-robin fairness between
// concurrent sessions, and error surfacing.
#include "serve/server.hpp"

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "serve/protocol.hpp"
#include "serve/serve_cli.hpp"
#include "sim/runner/json.hpp"

namespace dyngossip {
namespace {

std::string fresh_cache_dir(const char* name) {
  // Per-process, so concurrent copies of this suite never share a store.
  const std::string dir = ::testing::TempDir() + "dg_serve_" + name + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

SweepRequest small_request(std::size_t trials, std::uint64_t seed_base) {
  SweepRequest req;
  req.adversary = "churn:rate=0.5";
  req.n = 24;
  req.k = 4;
  req.sources = 1;
  req.trials = trials;
  req.seed_base = seed_base;
  return req;
}

struct ParsedLine {
  std::string type;
  JsonValue doc;
};

ParsedLine parse_line(const std::string& line) {
  ParsedLine p;
  p.doc = JsonValue::parse(line);
  const JsonValue* type = p.doc.find("type");
  if (type != nullptr && type->type() == JsonValue::Type::kString) {
    p.type = type->as_string();
  }
  return p;
}

std::vector<std::string> run_and_collect(SweepService& service,
                                         const SweepRequest& req) {
  std::vector<std::string> lines;
  service.run_sweep(req, [&](const std::string& line) { lines.push_back(line); });
  return lines;
}

TEST(SweepService, StreamsAcceptedRowsDoneInTrialOrder) {
  ThreadPool pool(2);
  SweepService service(pool, nullptr);
  const std::vector<std::string> lines =
      run_and_collect(service, small_request(3, 100));
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(parse_line(lines[0]).type, "accepted");
  for (std::size_t i = 0; i < 3; ++i) {
    const ParsedLine row = parse_line(lines[1 + i]);
    EXPECT_EQ(row.type, "row");
    EXPECT_EQ(row.doc.find("trial")->as_number(), static_cast<double>(i));
    EXPECT_EQ(row.doc.find("seed")->as_number(), static_cast<double>(100 + i));
    EXPECT_FALSE(row.doc.find("cached")->as_bool());
    EXPECT_EQ(row.doc.find("checksum")->as_string().size(), 16u);
  }
  const ParsedLine done = parse_line(lines[4]);
  EXPECT_EQ(done.type, "done");
  EXPECT_EQ(done.doc.find("hits")->as_number(), 0.0);
  EXPECT_EQ(done.doc.find("misses")->as_number(), 3.0);
}

TEST(SweepService, OverlappingRequestsShareTheCache) {
  ResultCache cache(fresh_cache_dir("share"));
  ThreadPool pool(2);
  SweepService service(pool, &cache);

  const std::vector<std::string> first =
      run_and_collect(service, small_request(3, 100));
  // Second request overlaps trials 100..102 and adds 103: the overlap must
  // come back as hits with identical checksums — the acceptance criterion
  // for concurrent clients sharing entries.
  const std::vector<std::string> second =
      run_and_collect(service, small_request(4, 100));
  ASSERT_EQ(second.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    const ParsedLine a = parse_line(first[1 + i]);
    const ParsedLine b = parse_line(second[1 + i]);
    EXPECT_TRUE(b.doc.find("cached")->as_bool()) << "overlap trial " << i;
    EXPECT_EQ(a.doc.find("checksum")->as_string(),
              b.doc.find("checksum")->as_string());
  }
  EXPECT_FALSE(parse_line(second[4]).doc.find("cached")->as_bool());
  const ParsedLine done = parse_line(second[5]);
  EXPECT_EQ(done.doc.find("hits")->as_number(), 3.0);
  EXPECT_EQ(done.doc.find("misses")->as_number(), 1.0);
}

TEST(SweepService, ConcurrentSessionsBothCompleteWithConsistentRows) {
  ResultCache cache(fresh_cache_dir("concurrent"));
  ThreadPool pool(2);
  SweepService service(pool, &cache);

  std::vector<std::string> a_lines;
  std::vector<std::string> b_lines;
  std::thread a([&] {
    service.run_sweep(small_request(4, 100), [&](const std::string& line) {
      a_lines.push_back(line);
    });
  });
  std::thread b([&] {
    service.run_sweep(small_request(4, 100), [&](const std::string& line) {
      b_lines.push_back(line);
    });
  });
  a.join();
  b.join();

  ASSERT_EQ(a_lines.size(), 6u);
  ASSERT_EQ(b_lines.size(), 6u);
  // Identical keys computed once (dedup or cache) and byte-equal rows: the
  // purity invariant holds across sessions.
  for (std::size_t i = 1; i <= 4; ++i) {
    const ParsedLine ra = parse_line(a_lines[i]);
    const ParsedLine rb = parse_line(b_lines[i]);
    EXPECT_EQ(ra.doc.find("checksum")->as_string(),
              rb.doc.find("checksum")->as_string());
    EXPECT_EQ(ra.doc.find("messages")->as_number(),
              rb.doc.find("messages")->as_number());
  }
  const double a_hits = parse_line(a_lines[5]).doc.find("hits")->as_number();
  const double b_hits = parse_line(b_lines[5]).doc.find("hits")->as_number();
  EXPECT_EQ(a_hits + b_hits, 4.0) << "each overlapping key computed once";
}

TEST(SweepService, ConcurrentSessionsComputeEachKeyExactlyOnce) {
  // N sessions × M repetitions.  Every repetition asks all sessions for the
  // same fresh keys at once, so the sessions race on each key's first
  // computation: one owns it, the rest must be served by in-flight dedup or
  // the cache — including a session that misses the cache just before the
  // owner stores its row and takes the in-flight lock just after the owner
  // left it.
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kRepetitions = 6;
  constexpr std::size_t kTrials = 6;
  ResultCache cache(fresh_cache_dir("stress"));
  ThreadPool pool(4);
  SweepService service(pool, &cache);

  std::vector<std::vector<std::vector<std::string>>> lines(
      kSessions, std::vector<std::vector<std::string>>(kRepetitions));
  for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
    std::vector<std::thread> sessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.emplace_back([&, s, rep] {
        lines[s][rep] = run_and_collect(service, small_request(kTrials, 1000 + 100 * rep));
      });
    }
    for (std::thread& t : sessions) t.join();
  }

  double hits = 0.0;
  double misses = 0.0;
  std::vector<std::size_t> computed(kRepetitions * kTrials, 0);
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
      const std::vector<std::string>& out = lines[s][rep];
      ASSERT_EQ(out.size(), kTrials + 2);
      const ParsedLine done = parse_line(out.back());
      ASSERT_EQ(done.type, "done");
      const double h = done.doc.find("hits")->as_number();
      const double m = done.doc.find("misses")->as_number();
      EXPECT_EQ(h + m, static_cast<double>(kTrials)) << "session " << s;
      hits += h;
      misses += m;
      for (std::size_t i = 0; i < kTrials; ++i) {
        const ParsedLine row = parse_line(out[1 + i]);
        if (!row.doc.find("cached")->as_bool()) ++computed[rep * kTrials + i];
        EXPECT_EQ(row.doc.find("checksum")->as_string(),
                  parse_line(lines[0][rep][1 + i]).doc.find("checksum")->as_string());
      }
    }
  }
  constexpr std::size_t kRequested = kSessions * kRepetitions * kTrials;
  EXPECT_EQ(hits + misses, static_cast<double>(kRequested));
  EXPECT_EQ(misses, static_cast<double>(kRepetitions * kTrials));
  for (std::size_t key = 0; key < computed.size(); ++key) {
    EXPECT_EQ(computed[key], 1u) << "key " << key << " computed once";
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kRequested);
  EXPECT_EQ(stats.stores, kRepetitions * kTrials);
}

TEST(SweepService, InvalidRequestEmitsOneErrorLine) {
  ThreadPool pool(1);
  SweepService service(pool, nullptr);
  SweepRequest req = small_request(1, 0);
  req.adversary = "no_such_family:x=1";
  const std::vector<std::string> lines = run_and_collect(service, req);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(parse_line(lines[0]).type, "error");
  // Out-of-range k and cap are rejected before narrowing: cast first, they
  // would wrap to the accepted k = 5 and cap = 0.
  for (const char* line :
       {R"({"adversary":"churn","n":64,"k":4294967301})",
        R"({"adversary":"churn","n":64,"k":4,"cap":4294967296})"}) {
    std::vector<std::string> out;
    service.run_request_line(line,
                             [&](const std::string& l) { out.push_back(l); });
    ASSERT_EQ(out.size(), 1u) << line;
    EXPECT_EQ(parse_line(out[0]).type, "error") << line;
  }
}

TEST(SweepService, FaultFragileAlgorithmIsAnErrorAndServingGoesOn) {
  // spanning_tree asserts exactly-once delivery: under dup faults it would
  // abort the whole process mid-sweep.  The shared policy refuses it.
  ThreadPool pool(1);
  SweepService service(pool, nullptr);
  std::vector<std::string> out;
  service.run_request_line(
      R"({"algo":"spanning_tree","adversary":"static","fault":"fault:dup=0.05",)"
      R"("n":16,"k":4})",
      [&](const std::string& l) { out.push_back(l); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(parse_line(out[0]).type, "error");
  EXPECT_NE(out[0].find("reliable"), std::string::npos);
  const std::vector<std::string> next = run_and_collect(service, small_request(2, 0));
  ASSERT_FALSE(next.empty());
  EXPECT_EQ(parse_line(next.back()).type, "done");
}

TEST(RequestCli, OutOfRangeShapeIsRefusedBeforeConnecting) {
  // k = 2^32 + 5 would narrow to k = 5; the client refuses it with the
  // server's limits (exit 2) before it connects (a connect failure is 1).
  for (const char* bad : {"--k=4294967301", "--k=-1", "--cap=4294967296"}) {
    const std::vector<const char*> argv = {"dyngossip", "request",
                                           "--socket=/nonexistent", "--adversary=churn",
                                           "--n=64", "--k=4", bad};
    EXPECT_EQ(serve_main(static_cast<int>(argv.size()), argv.data()), 2) << bad;
  }
  const std::vector<const char*> ok = {"dyngossip", "request", "--socket=/nonexistent",
                                       "--adversary=churn", "--n=64", "--k=4"};
  EXPECT_EQ(serve_main(static_cast<int>(ok.size()), ok.data()), 1);
}

TEST(FairScheduler, RotatesBetweenSessions) {
  FairScheduler sched;
  const std::uint64_t a = sched.open_session();
  const std::uint64_t b = sched.open_session();
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sched.enqueue(a, [&order] { order.push_back(1); });
  }
  for (int i = 0; i < 3; ++i) {
    sched.enqueue(b, [&order] { order.push_back(2); });
  }
  while (std::function<void()> trial = sched.next()) trial();
  // Strict alternation: a 3-trial session cannot starve its sibling.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
  sched.close_session(a);
  sched.close_session(b);
  EXPECT_FALSE(static_cast<bool>(sched.next()));
}

TEST(FairScheduler, ClosedSessionsQueueDrainsBeforeRetirement) {
  FairScheduler sched;
  const std::uint64_t a = sched.open_session();
  int ran = 0;
  sched.enqueue(a, [&ran] { ++ran; });
  sched.enqueue(a, [&ran] { ++ran; });
  // Closing with work still queued must not drop it: other sessions may
  // have deduped onto those trials.
  sched.close_session(a);
  while (std::function<void()> trial = sched.next()) trial();
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(static_cast<bool>(sched.next()));
}

}  // namespace
}  // namespace dyngossip
