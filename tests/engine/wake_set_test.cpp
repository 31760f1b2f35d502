// The unicast engine's wake set: send() runs for a live node only if the
// node was not quiescent after its last send(), or if since then an
// incident edge was inserted, a payload was delivered to it (a dropped one
// does not count) or it recovered from a crash.  Counting algorithms
// record every call; the sharded call sequence must equal the serial one.
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/scripted.hpp"
#include "adversary/static_adversary.hpp"
#include "core/single_source.hpp"
#include "engine/unicast_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "graph/generators.hpp"
#include "sim/runner/thread_pool.hpp"
#include "trace/run_payload.hpp"

namespace dyngossip {
namespace {

/// The rounds in which each node's send() ran.
using CallLog = std::vector<std::vector<Round>>;

/// Records its send() calls.  `quiet` nodes report quiescent; a node with
/// a `talk_round` sends one control payload to its lowest neighbor then.
class Counting final : public UnicastAlgorithm {
 public:
  Counting(NodeId self, CallLog& log, bool quiet, Round talk_round = 0)
      : self_(self), log_(log), quiet_(quiet), talk_round_(talk_round) {}

  void send(Round r, NeighborView neighbors, Outbox& out) override {
    log_[self_].push_back(r);
    if (r == talk_round_ && !neighbors.ids.empty()) {
      out.send(neighbors.ids[0], Message::control(ControlKind::kCenterAnnounce));
    }
  }
  void on_receive(Round, NodeId, const Message&) override {}
  [[nodiscard]] bool quiescent() const override { return quiet_; }

 private:
  NodeId self_;
  CallLog& log_;
  bool quiet_;
  Round talk_round_;
};

/// Leaves quiescent() at its default.
class DefaultCounting final : public UnicastAlgorithm {
 public:
  DefaultCounting(NodeId self, CallLog& log) : self_(self), log_(log) {}
  void send(Round r, NeighborView, Outbox&) override { log_[self_].push_back(r); }
  void on_receive(Round, NodeId, const Message&) override {}

 private:
  NodeId self_;
  CallLog& log_;
};

std::vector<KnowledgeSet> empty_knowledge(std::size_t n) {
  return std::vector<KnowledgeSet>(n, KnowledgeSet(1));
}

std::vector<std::unique_ptr<UnicastAlgorithm>> quiet_nodes(std::size_t n, CallLog& log) {
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  for (NodeId v = 0; v < n; ++v) nodes.push_back(std::make_unique<Counting>(v, log, true));
  return nodes;
}

Graph complete_minus(std::size_t n, NodeId a, NodeId b) {
  Graph g = complete_graph(n);
  g.remove_edge(a, b);
  return g;
}

TEST(WakeSet, DefaultAlgorithmIsCalledEveryLiveRound) {
  constexpr std::size_t n = 4;
  CallLog log(n);
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  for (NodeId v = 0; v < n; ++v) nodes.push_back(std::make_unique<DefaultCounting>(v, log));
  StaticAdversary adversary(path_graph(n));
  UnicastEngine engine(std::move(nodes), adversary, empty_knowledge(n), 1);
  for (int i = 0; i < 5; ++i) engine.step();
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(log[v], (std::vector<Round>{1, 2, 3, 4, 5})) << "node " << v;
  }
}

TEST(WakeSet, QuiescentNodeSleepsThroughUnchangedAndRemovalOnlyRounds) {
  constexpr std::size_t n = 4;
  CallLog log(n);
  std::vector<Graph> script;
  script.push_back(complete_graph(n));        // r1: every node starts awake
  script.push_back(complete_graph(n));        // r2: unchanged
  script.push_back(complete_minus(n, 0, 1));  // r3: removal only
  script.push_back(complete_minus(n, 0, 1));  // r4: unchanged
  script.push_back(complete_graph(n));        // r5: {0,1} inserted again
  script.push_back(complete_graph(n));        // r6: unchanged
  ScriptedAdversary adversary(std::move(script));
  UnicastEngine engine(quiet_nodes(n, log), adversary, empty_knowledge(n), 1);
  for (int i = 0; i < 6; ++i) engine.step();
  EXPECT_EQ(log[0], (std::vector<Round>{1, 5}));  // woken by the insertion
  EXPECT_EQ(log[1], (std::vector<Round>{1, 5}));
  EXPECT_EQ(log[2], (std::vector<Round>{1}));
  EXPECT_EQ(log[3], (std::vector<Round>{1}));
}

TEST(WakeSet, DeliveredPayloadWakesTheRecipientAndADroppedOneDoesNot) {
  constexpr std::size_t n = 3;
  for (const bool drop_all : {false, true}) {
    SCOPED_TRACE(drop_all ? "every payload dropped" : "fault-free");
    CallLog log(n);
    // Node 2 (path end, lowest neighbor 1) talks in round 3; 0 and 1 are
    // quiescent.  Node 2 itself stays awake: it is not quiescent.
    std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
    nodes.push_back(std::make_unique<Counting>(0, log, true));
    nodes.push_back(std::make_unique<Counting>(1, log, true));
    nodes.push_back(std::make_unique<Counting>(2, log, false, /*talk_round=*/3));
    StaticAdversary adversary(path_graph(n));
    FaultSpec spec;
    spec.drop = 1.0;
    FaultPlan plan(spec, n, /*trial_seed=*/1);
    UnicastEngineOptions opts;
    if (drop_all) opts.faults = &plan;
    UnicastEngine engine(std::move(nodes), adversary, empty_knowledge(n), 1, opts);
    for (int i = 0; i < 5; ++i) engine.step();
    EXPECT_EQ(engine.metrics().unicast.control, 1u);
    EXPECT_EQ(log[0], (std::vector<Round>{1}));
    const std::vector<Round> want_1 = drop_all ? std::vector<Round>{1} : std::vector<Round>{1, 4};
    EXPECT_EQ(log[1], want_1);
    EXPECT_EQ(log[2], (std::vector<Round>{1, 2, 3, 4, 5}));
  }
}

TEST(WakeSet, RecoveryWakesAQuiescentNode) {
  // A static graph and silent, quiescent nodes: after round 1 the only
  // calls are recoveries.  A node is called in round r iff it is live in r
  // and r is the first round or it was down in r - 1.
  constexpr std::size_t n = 24;
  CallLog log(n);
  StaticAdversary adversary(complete_graph(n));
  FaultSpec spec;
  spec.crash = 0.2;
  spec.recover = 0.3;
  FaultPlan plan(spec, n, /*trial_seed=*/7);
  UnicastEngineOptions opts;
  opts.faults = &plan;
  UnicastEngine engine(quiet_nodes(n, log), adversary, empty_knowledge(n), 1, opts);
  CallLog want(n);
  std::vector<bool> was_live(n, false);
  std::size_t recoveries = 0;
  for (Round r = 1; r <= 40; ++r) {
    engine.step();
    for (NodeId v = 0; v < n; ++v) {
      const bool live = plan.is_live(v);
      if (live && (r == 1 || !was_live[v])) want[v].push_back(r);
      if (live && r > 1 && !was_live[v]) ++recoveries;
      was_live[v] = live;
    }
  }
  EXPECT_GT(recoveries, 10u);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(log[v], want[v]) << "node " << v;
}

/// Algorithm 1 with its send() calls recorded (each node's log is touched
/// only by the shard that owns the node).
class LoggedSingleSource final : public UnicastAlgorithm {
 public:
  LoggedSingleSource(NodeId self, const SingleSourceConfig& cfg, CallLog& log)
      : self_(self), inner_(self, cfg), log_(log) {}
  void send(Round r, NeighborView neighbors, Outbox& out) override {
    log_[self_].push_back(r);
    inner_.send(r, neighbors, out);
  }
  void on_receive(Round r, NodeId from, const Message& m) override {
    inner_.on_receive(r, from, m);
  }
  [[nodiscard]] bool quiescent() const override { return inner_.quiescent(); }

 private:
  NodeId self_;
  SingleSourceNode inner_;
  CallLog& log_;
};

struct LoggedRun {
  CallLog calls;
  std::uint64_t checksum = 0;
  std::uint64_t skipped = 0;  ///< live node-rounds without a send() call
};

LoggedRun run_logged(ThreadPool* pool, bool faulty) {
  constexpr std::size_t n = 96;
  constexpr std::uint32_t k = 12;
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 4 * n;
  cc.churn_per_round = n / 8;
  cc.sigma = 3;
  cc.seed = 5;
  ChurnAdversary adversary(cc);
  const SingleSourceConfig cfg{n, k, 0};
  LoggedRun run;
  run.calls.assign(n, {});
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  for (NodeId v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<LoggedSingleSource>(v, cfg, run.calls));
  }
  FaultSpec spec;
  spec.drop = 0.1;
  spec.dup = 0.05;
  spec.crash = 0.01;
  spec.recover = 0.2;
  FaultPlan plan(spec, n, /*trial_seed=*/11);
  UnicastEngineOptions opts;
  opts.pool = pool;
  opts.min_parallel_nodes = 1;
  if (faulty) opts.faults = &plan;
  UnicastEngine engine(std::move(nodes), adversary,
                       SingleSourceNode::initial_knowledge(cfg), k, opts);
  std::uint64_t live_node_rounds = 0;
  const Round cap = 40 * k + n;
  while (!engine.harness().run_complete() && engine.round() < cap) {
    engine.step();
    live_node_rounds += faulty ? plan.live_count() : n;
  }
  const RunResult result{engine.metrics(), engine.metrics().rounds, engine.harness().run_complete()};
  run.checksum = run_payload_checksum(n, k, result);
  std::uint64_t calls = 0;
  for (const std::vector<Round>& c : run.calls) calls += c.size();
  run.skipped = live_node_rounds - calls;
  return run;
}

TEST(WakeSet, ShardedCallSequenceEqualsSerial) {
  ThreadPool pool(4);
  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "crash/recover, drop, dup" : "fault-free");
    const LoggedRun serial = run_logged(nullptr, faulty);
    const LoggedRun sharded = run_logged(&pool, faulty);
    EXPECT_GT(serial.skipped, 0u);  // the wake set did skip calls
    EXPECT_EQ(serial.checksum, sharded.checksum);
    for (NodeId v = 0; v < serial.calls.size(); ++v) {
      EXPECT_EQ(serial.calls[v], sharded.calls[v]) << "node " << v;
    }
  }
}

}  // namespace
}  // namespace dyngossip
