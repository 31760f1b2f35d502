// Timeline recorder: spans are recorded with the chrome://tracing
// trace-event shape, engines attached to a recorder emit round/phase
// spans, and a ThreadPool with a timeline attributes queue waits.
#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "core/single_source.hpp"
#include "engine/unicast_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "sim/runner/json.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/timeline.hpp"

namespace dyngossip {
namespace {

std::size_t count_category(const JsonValue& events, const char* category) {
  std::size_t count = 0;
  for (const JsonValue& e : events.items()) {
    if (e.find("cat") != nullptr && e.find("cat")->as_string() == category) {
      ++count;
    }
  }
  return count;
}

TEST(Timeline, SpansSerializeAsTraceEvents) {
  TimelineRecorder recorder;
  const auto begin = TimelineRecorder::now();
  recorder.span("round", "round", begin, TimelineRecorder::now());
  {
    const TimelineSpan span(&recorder, "send_phase", "phase");
  }
  EXPECT_EQ(recorder.event_count(), 2u);

  std::ostringstream os;
  recorder.write_json(os);
  const JsonValue events = JsonValue::parse(os.str());
  ASSERT_EQ(events.items().size(), 2u);
  const JsonValue& first = events.items().front();
  EXPECT_EQ(first.find("name")->as_string(), "round");
  EXPECT_EQ(first.find("ph")->as_string(), "X");
  ASSERT_NE(first.find("ts"), nullptr);
  ASSERT_NE(first.find("dur"), nullptr);
}

TEST(Timeline, NullRecorderSpanIsANoOp) {
  // The zero-cost-when-off contract: a TimelineSpan on a null recorder
  // must not crash (and must not read the clock — untestable here, but the
  // ctor body is three pointer copies).
  const TimelineSpan span(nullptr, "round", "round");
}

TEST(Timeline, EngineEmitsRoundAndPhaseSpans) {
  const std::size_t n = 32;
  const std::uint32_t k = 16;
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 3 * n;
  cc.churn_per_round = n / 8;
  cc.sigma = 3;
  cc.seed = 42;
  ChurnAdversary adversary(cc);
  TimelineRecorder recorder;
  SingleSourceConfig cfg{n, k, 0};
  UnicastEngineOptions opts;
  opts.telemetry.timeline = &recorder;
  UnicastEngine engine(SingleSourceNode::make_all(cfg), adversary,
                       SingleSourceNode::initial_knowledge(cfg), k, opts);
  (void)engine.run(static_cast<Round>(100 * n));

  std::ostringstream os;
  recorder.write_json(os);
  const JsonValue events = JsonValue::parse(os.str());
  EXPECT_GT(count_category(events, "round"), 0u);
  EXPECT_GT(count_category(events, "phase"), 0u);
}

std::size_t count_name(const JsonValue& events, const char* name) {
  std::size_t count = 0;
  for (const JsonValue& e : events.items()) {
    if (e.find("name")->as_string() == name) ++count;
  }
  return count;
}

TEST(Timeline, EveryEngineSpansTheAdversaryAndTheGraphPlane) {
  // One "adversary" and one "graph_plane" span per round graph, on the
  // unicast, broadcast and async engines alike.
  for (const char* algo : {"single_source", "flooding:", "async_push_pull:"}) {
    TimelineRecorder recorder;
    const std::unique_ptr<Adversary> adversary =
        build_adversary(AdversarySpec::parse("churn:"), 24, 5);
    AlgoBuildContext ctx;
    ctx.n = 24;
    ctx.k = 8;
    ctx.sources = 1;
    ctx.seed = 5;
    ctx.telemetry.timeline = &recorder;
    (void)run_algo(AlgoSpec::parse(algo), ctx, *adversary);

    std::ostringstream os;
    recorder.write_json(os);
    const JsonValue events = JsonValue::parse(os.str());
    const std::size_t rounds =
        count_name(events, "round") + count_name(events, "async_round");
    EXPECT_GT(rounds, 0u) << algo;
    EXPECT_EQ(count_name(events, "adversary"), rounds) << algo;
    EXPECT_EQ(count_name(events, "graph_plane"), rounds) << algo;
  }
}

TEST(Timeline, UnicastEngineSpansFateSealingOnlyUnderFaults) {
  // One "fault_seal" span per round of a faulted unicast run, none on the
  // fault-free path.
  for (const bool faulty : {false, true}) {
    TimelineRecorder recorder;
    const std::unique_ptr<Adversary> adversary =
        build_adversary(AdversarySpec::parse("churn:"), 24, 5);
    FaultPlan plan(FaultSpec::parse("drop=0.05,crash=0.01,recover=0.2"), 24, 5);
    AlgoBuildContext ctx;
    ctx.n = 24;
    ctx.k = 8;
    ctx.sources = 1;
    ctx.seed = 5;
    ctx.telemetry.timeline = &recorder;
    if (faulty) ctx.faults = &plan;
    (void)run_algo(AlgoSpec::parse("single_source"), ctx, *adversary);

    std::ostringstream os;
    recorder.write_json(os);
    const JsonValue events = JsonValue::parse(os.str());
    const std::size_t rounds = count_name(events, "round");
    EXPECT_GT(rounds, 0u);
    EXPECT_EQ(count_name(events, "fault_seal"), faulty ? rounds : 0u);
  }
}

TEST(Timeline, ThreadPoolAttributesQueueWaits) {
  TimelineRecorder recorder;
  ThreadPool pool(2);
  pool.set_timeline(&recorder);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 8);

  std::ostringstream os;
  recorder.write_json(os);
  const JsonValue events = JsonValue::parse(os.str());
  EXPECT_EQ(count_category(events, "pool"), 8u);
  for (const JsonValue& e : events.items()) {
    EXPECT_EQ(e.find("name")->as_string(), "queue_wait");
  }
}

}  // namespace
}  // namespace dyngossip
