#include "sim/simulator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "core/flooding.hpp"
#include "core/multi_source.hpp"
#include "core/oblivious_ms.hpp"
#include "core/random_flooding.hpp"
#include "core/single_source.hpp"
#include "core/spanning_tree.hpp"
#include "engine/broadcast_engine.hpp"
#include "engine/unicast_engine.hpp"
#include "sim/bounds.hpp"

namespace dyngossip {

namespace {

[[nodiscard]] RunResult finish(const RunMetrics& metrics) {
  RunResult result;
  result.metrics = metrics;
  result.rounds = metrics.rounds;
  result.completed = metrics.completed;
  return result;
}

}  // namespace

RunResult run_single_source(std::size_t n, std::uint32_t k, NodeId source,
                            Adversary& adversary, Round max_rounds,
                            ThreadPool* pool, FaultPlan* faults,
                            double timeout_seconds, Telemetry telemetry) {
  SingleSourceConfig cfg{n, k, source};
  UnicastEngineOptions opts;
  opts.pool = pool;
  opts.env() = {faults, timeout_seconds, telemetry};
  UnicastEngine engine(SingleSourceNode::make_all(cfg), adversary,
                       SingleSourceNode::initial_knowledge(cfg), k, opts);
  return finish(engine.run(max_rounds));
}

RunResult run_multi_source(std::size_t n, const TokenSpacePtr& space,
                           Adversary& adversary, Round max_rounds,
                           ThreadPool* pool, FaultPlan* faults,
                           double timeout_seconds, Telemetry telemetry) {
  MultiSourceConfig cfg{n, space};
  UnicastEngineOptions opts;
  opts.pool = pool;
  opts.env() = {faults, timeout_seconds, telemetry};
  UnicastEngine engine(MultiSourceNode::make_all(cfg), adversary,
                       space->initial_knowledge(n), space->total_tokens(), opts);
  return finish(engine.run(max_rounds));
}

RunResult run_spanning_tree(std::size_t n, const TokenSpacePtr& space,
                            Adversary& adversary, Round max_rounds, NodeId root,
                            ThreadPool* pool, FaultPlan* faults,
                            double timeout_seconds, Telemetry telemetry) {
  SpanningTreeConfig cfg{n, space, root};
  UnicastEngineOptions opts;
  opts.pool = pool;
  opts.env() = {faults, timeout_seconds, telemetry};
  UnicastEngine engine(SpanningTreeNode::make_all(cfg), adversary,
                       space->initial_knowledge(n), space->total_tokens(), opts);
  return finish(engine.run(max_rounds));
}

RunResult run_phase_flooding(std::size_t n, std::size_t k,
                             const std::vector<KnowledgeSet>& initial,
                             Adversary& adversary, Round max_rounds,
                             ThreadPool* pool, FaultPlan* faults,
                             double timeout_seconds, Telemetry telemetry) {
  BroadcastEngineOptions opts;
  opts.pool = pool;
  opts.env() = {faults, timeout_seconds, telemetry};
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, initial), adversary,
                         initial, k, opts);
  return finish(engine.run(max_rounds));
}

RunResult run_random_flooding(std::size_t n, std::size_t k,
                              const std::vector<KnowledgeSet>& initial,
                              Adversary& adversary, Round max_rounds,
                              std::uint64_t seed, ThreadPool* pool,
                              FaultPlan* faults, double timeout_seconds,
                              Telemetry telemetry) {
  BroadcastEngineOptions opts;
  opts.pool = pool;
  opts.env() = {faults, timeout_seconds, telemetry};
  BroadcastEngine engine(RandomFloodingNode::make_all(n, k, initial, seed),
                         adversary, initial, k, opts);
  return finish(engine.run(max_rounds));
}

ObliviousMsResult run_oblivious_multi_source(std::size_t n,
                                             const TokenSpacePtr& space,
                                             Adversary& adversary,
                                             const ObliviousMsOptions& opts) {
  DG_CHECK(space != nullptr);
  const std::size_t s = space->num_sources();
  const std::uint32_t k = space->total_tokens();
  ObliviousMsResult result;

  const Round max_rounds =
      opts.max_rounds > 0
          ? opts.max_rounds
          : static_cast<Round>(std::min<std::uint64_t>(
                std::uint64_t{50} * n * std::max<std::uint64_t>(k, 1) + 1000,
                200'000'000ull));

  // Small source count: phase 1 is skipped and Multi-Source runs directly
  // (Algorithm 2, line 1).
  const bool small_s =
      static_cast<double>(s) <= bounds::source_threshold(n) && !opts.force_phase1;
  if (small_s) {
    result.skipped_phase1 = true;
    const RunResult direct =
        run_multi_source(n, space, adversary, max_rounds, opts.pool,
                         opts.faults, opts.timeout_seconds, opts.telemetry);
    result.phase2 = direct.metrics;
    result.total = direct.metrics;
    result.completed = direct.completed;
    return result;
  }

  Rng rng(opts.seed);

  // --- Center election: each node marks itself with probability f/n.
  // (Re-sampled until at least one center exists; the w.h.p. analysis
  // ignores the 2^{-Θ(f)} failure event, a simulation must not.)
  const double f = opts.f_override > 0
                       ? std::min(static_cast<double>(opts.f_override),
                                  static_cast<double>(n))
                       : bounds::centers_f(n, k);
  std::vector<bool> is_center(n, false);
  std::size_t center_count = 0;
  for (int attempt = 0; attempt < 256 && center_count == 0; ++attempt) {
    for (std::size_t v = 0; v < n; ++v) {
      is_center[v] = rng.bernoulli(f / static_cast<double>(n));
      if (is_center[v]) ++center_count;
    }
  }
  DG_CHECK(center_count > 0);
  result.num_centers = center_count;

  // --- Phase 1: random walks until every token rests at a center.
  WalkConfig wcfg;
  wcfg.n = n;
  wcfg.k = k;
  // γ = n log n / f, recomputed from the f actually in force.
  wcfg.gamma = static_cast<double>(n) * log2_clamped(static_cast<double>(n)) / f;
  wcfg.pseudocode_walk_prob = opts.pseudocode_walk_prob;

  std::vector<std::unique_ptr<UnicastAlgorithm>> walkers;
  walkers.reserve(n);
  {
    Rng node_seeds = rng.split();
    for (NodeId v = 0; v < n; ++v) {
      std::vector<TokenId> held;
      const std::size_t src = space->index_of_node(v);
      if (src != kNotASource) held = space->tokens_of(src);
      walkers.push_back(std::make_unique<WalkNode>(v, wcfg, is_center[v],
                                                   std::move(held),
                                                   node_seeds.split()));
    }
  }

  DynamicGraphTracker tracker(n);
  UnicastEngineOptions ueopts;
  ueopts.tracker = &tracker;
  ueopts.pool = opts.pool;
  ueopts.env() = {opts.faults, opts.timeout_seconds, opts.telemetry};
  UnicastEngine phase1(std::move(walkers), adversary,
                       space->initial_knowledge(n), k, ueopts);

  const Round phase1_cap =
      opts.phase1_cap > 0
          ? opts.phase1_cap
          : static_cast<Round>(std::min(
                bounds::phase1_round_bound(n, k),
                static_cast<double>(std::max<Round>(max_rounds / 2, 1))));

  auto all_settled = [&](const UnicastEngine& e) {
    for (NodeId v = 0; v < n; ++v) {
      const auto& node = static_cast<const WalkNode&>(e.node(v));
      if (!node.is_center() && !node.held().empty()) return false;
    }
    return true;
  };
  phase1.run_until(all_settled, phase1_cap);
  result.phase1 = phase1.metrics();
  result.phase1_rounds = phase1.metrics().rounds;
  result.phase1_capped = !all_settled(phase1);

  // Collect walk statistics and final token ownership.  If the cap was hit,
  // unsettled tokens remain owned by their current (non-center) holders:
  // those holders simply join the phase-2 source set.
  std::vector<std::pair<NodeId, std::vector<TokenId>>> ownership;
  std::vector<std::vector<TokenId>> held_by(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto& node = static_cast<const WalkNode&>(phase1.node(v));
    result.walk_virtual_steps += node.virtual_steps();
    result.walk_real_steps += node.walk_steps();
    if (!node.held().empty()) held_by[v] = node.held();
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!held_by[v].empty()) ownership.emplace_back(v, std::move(held_by[v]));
  }
  result.phase1.virtual_steps = result.walk_virtual_steps;

  // --- Phase 2: Multi-Source-Unicast with the centers (the ⟨center, index⟩
  // relabelling) as sources, continuing the same execution (round numbers,
  // topology tracker and adversary state carry over).
  auto phase2_space = std::make_shared<TokenSpace>(k, std::move(ownership));
  MultiSourceConfig mcfg{n, phase2_space};
  std::vector<KnowledgeSet> carried;
  carried.reserve(n);
  for (NodeId v = 0; v < n; ++v) carried.push_back(phase1.knowledge_of(v));

  UnicastEngineOptions p2opts;
  p2opts.tracker = &tracker;
  p2opts.pool = opts.pool;
  p2opts.env() = {opts.faults, opts.timeout_seconds, opts.telemetry};
  p2opts.start_round = phase1.round() + 1;
  // Build the nodes before handing `carried` to the engine (argument
  // evaluation order must not race with the move).
  auto phase2_nodes = MultiSourceNode::make_all_with(mcfg, carried);
  UnicastEngine phase2(std::move(phase2_nodes), adversary, std::move(carried), k,
                       p2opts);
  phase2.run(max_rounds);
  result.phase2 = phase2.metrics();

  result.total = merge_metrics(result.phase1, result.phase2);
  result.completed = result.phase2.completed;
  result.total.completed = result.completed;
  return result;
}

}  // namespace dyngossip
