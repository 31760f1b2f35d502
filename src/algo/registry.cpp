#include "algo/registry.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "async/async_engine.hpp"
#include "core/multi_source.hpp"
#include "core/neighbor_exchange.hpp"
#include "core/single_source.hpp"
#include "core/tokens.hpp"
#include "engine/unicast_engine.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_reader.hpp"

namespace dyngossip {

namespace {

[[noreturn]] void fail(const std::string& msg) { throw AlgoSpecError(msg); }

/// Typed spec-param access (the shared strict SpecValues core) plus the
/// algorithm build context's helpers.
class SpecReader : public SpecValues {
 public:
  SpecReader(const AlgoSpec& spec, const AlgoBuildContext& ctx)
      : SpecValues(spec.family, spec.params,
                   [](const std::string& msg) { fail(msg); }),
        ctx_(ctx) {}

  /// Spec seed= wins; otherwise the context's (per-trial) seed.
  [[nodiscard]] std::uint64_t seed() const {
    return static_cast<std::uint64_t>(
        get_int("seed", static_cast<std::int64_t>(ctx_.seed)));
  }

  /// Source count: spec sources= wins over the context default; clamped to
  /// [1, n] exactly like the historical multi-source dispatch.
  [[nodiscard]] std::size_t sources(std::size_t def) const {
    const std::size_t s = get_size("sources", def);
    return std::min(std::max<std::size_t>(1, s), ctx_.n);
  }

 private:
  const AlgoBuildContext& ctx_;
};

/// The run's round cap: explicit, or the shared 200·n·k default every
/// traced run has used since PR 3.
[[nodiscard]] Round cap_of(const AlgoBuildContext& ctx) {
  return ctx.cap > 0
             ? ctx.cap
             : static_cast<Round>(200ull * ctx.n *
                                  std::max<std::uint32_t>(ctx.k, 1));
}

/// The canonical s-source token placement (identical to the historical
/// run_traced_algo rule): min(s, n) sources at nodes i·(n/s) with
/// max(1, k/s) tokens each.  s = 1 is the single-source task: all k tokens
/// at node 0.
[[nodiscard]] TokenSpacePtr spread_space(std::size_t n, std::uint32_t k,
                                         std::size_t s) {
  std::vector<TokenSpace::SourceSpec> specs;
  specs.reserve(s);
  for (std::size_t i = 0; i < s; ++i) {
    specs.push_back(
        {static_cast<NodeId>(i * (n / s)),
         std::max<std::uint32_t>(1, k / static_cast<std::uint32_t>(s))});
  }
  return std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
}

[[nodiscard]] RunResult finish(const RunMetrics& metrics) {
  RunResult result;
  result.metrics = metrics;
  result.rounds = metrics.rounds;
  result.completed = metrics.completed;
  return result;
}

/// The token-labelling families derive K_v(0) from their TokenSpace; an
/// explicit override would silently diverge from the labelling.
void reject_initial_override(const AlgoSpec& spec, const AlgoBuildContext& ctx) {
  if (ctx.initial_knowledge != nullptr) {
    fail(spec.family +
         ": derives initial knowledge from its token labelling; the "
         "context's initial_knowledge override is not supported here");
  }
}

// ---- family run functions ------------------------------------------------

RunResult run_single_source_family(const AlgoSpec& spec, AlgoBuildContext& ctx,
                                   Adversary& adversary) {
  reject_initial_override(spec, ctx);
  const SpecReader r(spec, ctx);
  const std::string priority_text = r.get_string("priority", "paper");
  RequestPriority priority = RequestPriority::kPaper;
  if (priority_text == "paper") {
    priority = RequestPriority::kPaper;
  } else if (priority_text == "reversed") {
    priority = RequestPriority::kReversed;
  } else if (priority_text == "new_last") {
    priority = RequestPriority::kNewLast;
  } else {
    fail("single_source: priority must be paper, reversed, or new_last (got '" +
         priority_text + "')");
  }
  const std::size_t source = r.get_size("source", 0);
  if (source >= ctx.n) fail("single_source: source must be < n");
  ctx.k_realized = ctx.k;
  SingleSourceConfig cfg{ctx.n, ctx.k, static_cast<NodeId>(source), priority};
  UnicastEngineOptions opts;
  opts.pool = ctx.engine_pool;
  opts.env() = {ctx.faults, ctx.trial_timeout_seconds, ctx.telemetry};
  UnicastEngine engine(SingleSourceNode::make_all(cfg), adversary,
                       SingleSourceNode::initial_knowledge(cfg), ctx.k, opts);
  return finish(engine.run(cap_of(ctx)));
}

RunResult run_multi_source_family(const AlgoSpec& spec, AlgoBuildContext& ctx,
                                  Adversary& adversary) {
  reject_initial_override(spec, ctx);
  const SpecReader r(spec, ctx);
  const TokenSpacePtr space =
      spread_space(ctx.n, ctx.k, r.sources(ctx.sources));
  ctx.k_realized = space->total_tokens();
  return run_multi_source(ctx.n, space, adversary, cap_of(ctx),
                          ctx.engine_pool, ctx.faults,
                          ctx.trial_timeout_seconds, ctx.telemetry);
}

/// Shared K_v(0) selection for the knowledge-shaped broadcast/push
/// families: the context's explicit override when present, else the
/// canonical spread placement.  *k_out is the realized token count.
[[nodiscard]] std::vector<KnowledgeSet> initial_of(const AlgoSpec& spec,
                                                    const AlgoBuildContext& ctx,
                                                    std::uint64_t* k_out) {
  if (ctx.initial_knowledge != nullptr) {
    if (ctx.initial_knowledge->size() != ctx.n) {
      fail(spec.family + ": initial_knowledge must have exactly n entries");
    }
    *k_out = ctx.k;
    return *ctx.initial_knowledge;
  }
  const SpecReader r(spec, ctx);
  const TokenSpacePtr space = spread_space(ctx.n, ctx.k, r.sources(1));
  *k_out = space->total_tokens();
  return space->initial_knowledge(ctx.n);
}

RunResult run_flooding_family(const AlgoSpec& spec, AlgoBuildContext& ctx,
                              Adversary& adversary) {
  const std::vector<KnowledgeSet> initial = initial_of(spec, ctx, &ctx.k_realized);
  return run_phase_flooding(ctx.n, static_cast<std::size_t>(ctx.k_realized),
                            initial, adversary, cap_of(ctx), ctx.engine_pool,
                            ctx.faults, ctx.trial_timeout_seconds,
                            ctx.telemetry);
}

RunResult run_random_flooding_family(const AlgoSpec& spec, AlgoBuildContext& ctx,
                                     Adversary& adversary) {
  const SpecReader r(spec, ctx);
  const std::vector<KnowledgeSet> initial = initial_of(spec, ctx, &ctx.k_realized);
  return run_random_flooding(ctx.n, static_cast<std::size_t>(ctx.k_realized),
                             initial, adversary, cap_of(ctx), r.seed(),
                             ctx.engine_pool, ctx.faults,
                             ctx.trial_timeout_seconds, ctx.telemetry);
}

RunResult run_neighbor_exchange_family(const AlgoSpec& spec, AlgoBuildContext& ctx,
                                       Adversary& adversary) {
  const std::vector<KnowledgeSet> initial = initial_of(spec, ctx, &ctx.k_realized);
  return finish(run_neighbor_exchange(
      ctx.n, static_cast<std::size_t>(ctx.k_realized), initial, adversary,
      cap_of(ctx), ctx.engine_pool, ctx.faults, ctx.trial_timeout_seconds,
      ctx.telemetry));
}

RunResult run_oblivious_family(const AlgoSpec& spec, AlgoBuildContext& ctx,
                               Adversary& adversary) {
  reject_initial_override(spec, ctx);
  const SpecReader r(spec, ctx);
  const TokenSpacePtr space =
      spread_space(ctx.n, ctx.k, r.sources(ctx.sources));
  ctx.k_realized = space->total_tokens();
  ObliviousMsOptions opts;
  opts.seed = r.seed();
  opts.max_rounds = cap_of(ctx);  // same 200·n·k default as every family
  opts.force_phase1 = r.get_bool("force_phase1", false);
  opts.f_override = r.get_size("f", 0);
  opts.pool = ctx.engine_pool;
  opts.faults = ctx.faults;
  opts.timeout_seconds = ctx.trial_timeout_seconds;
  opts.telemetry = ctx.telemetry;
  const ObliviousMsResult result =
      run_oblivious_multi_source(ctx.n, space, adversary, opts);
  return finish(result.total);
}

RunResult run_spanning_tree_family(const AlgoSpec& spec, AlgoBuildContext& ctx,
                                   Adversary& adversary) {
  reject_initial_override(spec, ctx);
  const SpecReader r(spec, ctx);
  const std::size_t root = r.get_size("root", 0);
  if (root >= ctx.n) fail("spanning_tree: root must be < n");
  const TokenSpacePtr space = spread_space(ctx.n, ctx.k, r.sources(1));
  ctx.k_realized = space->total_tokens();
  return run_spanning_tree(ctx.n, space, adversary, cap_of(ctx),
                           static_cast<NodeId>(root), ctx.engine_pool,
                           ctx.faults, ctx.trial_timeout_seconds,
                           ctx.telemetry);
}

/// Shared core of the asynchronous push / push-pull families: knowledge-
/// shaped initial state (honors the context override like the other
/// broadcast/push families), Poisson clocks at rate=, edge lifetime sigma=,
/// and the continuous-time event loop of src/async/.  `cap` bounds the run
/// at cap schedule rounds = cap·σ clock units.
RunResult run_async_family(const AlgoSpec& spec, AlgoBuildContext& ctx,
                           Adversary& adversary, bool push_pull) {
  const SpecReader r(spec, ctx);
  AsyncEngineOptions opts;
  opts.rate = r.get_double("rate", 1.0);
  if (!(opts.rate > 0.0)) fail(spec.family + ": rate must be > 0");
  opts.sigma = r.get_double("sigma", 1.0);
  if (!(opts.sigma > 0.0)) fail(spec.family + ": sigma must be > 0");
  opts.push_pull = push_pull;
  opts.seed = r.seed();
  opts.env() = {ctx.faults, ctx.trial_timeout_seconds, ctx.telemetry};
  const std::vector<KnowledgeSet> initial =
      initial_of(spec, ctx, &ctx.k_realized);
  AsyncEngine engine(adversary, initial,
                     static_cast<std::size_t>(ctx.k_realized), opts);
  return finish(engine.run(cap_of(ctx)));
}

RunResult run_async_push_family(const AlgoSpec& spec, AlgoBuildContext& ctx,
                                Adversary& adversary) {
  return run_async_family(spec, ctx, adversary, /*push_pull=*/false);
}

RunResult run_async_push_pull_family(const AlgoSpec& spec,
                                     AlgoBuildContext& ctx,
                                     Adversary& adversary) {
  return run_async_family(spec, ctx, adversary, /*push_pull=*/true);
}

using Kind = AlgoKeySpec::Kind;

const AlgoKeySpec kSourcesMultiKey{"sources", Kind::kInt, "(run sources)",
                                   "source count; tokens split k/s per source"};
const AlgoKeySpec kSourcesSingleKey{
    "sources", Kind::kInt, "1",
    "source count (default: the single-source task, all k tokens at node 0)"};
const AlgoKeySpec kSeedKey{"seed", Kind::kInt, "(run seed)",
                           "algorithm randomness; omit to follow the run"};
const AlgoKeySpec kRateKey{"rate", Kind::kDouble, "1",
                           "Poisson clock rate per node (activations per "
                           "clock unit)"};
const AlgoKeySpec kSigmaKey{"sigma", Kind::kDouble, "1",
                            "edge lifetime: clock units each schedule "
                            "round's graph stays live"};

}  // namespace

// ---- AlgoSpec ------------------------------------------------------------

AlgoSpec AlgoSpec::parse(const std::string& text) {
  AlgoSpec spec;
  const std::string error =
      parse_spec_text(text, "algorithm", &spec.family, &spec.params);
  if (!error.empty()) fail(error);
  return spec;
}

std::string AlgoSpec::to_string() const { return render_spec_text(family, params); }

AlgoSpec& AlgoSpec::set(const std::string& key, const std::string& value) {
  params[key] = value;
  return *this;
}

AlgoSpec& AlgoSpec::set(const std::string& key, std::uint64_t value) {
  params[key] = std::to_string(value);
  return *this;
}

AlgoSpec& AlgoSpec::set(const std::string& key, double value) {
  params[key] = render_spec_double(value);
  return *this;
}

bool operator==(const AlgoSpec& a, const AlgoSpec& b) {
  return a.family == b.family && a.params == b.params;
}

const char* algo_key_kind_name(AlgoKeySpec::Kind kind) {
  return spec_key_kind_name(kind);
}

const char* algo_engine_name(AlgoEngine engine) {
  switch (engine) {
    case AlgoEngine::kUnicast: return "unicast";
    case AlgoEngine::kBroadcast: return "broadcast";
    case AlgoEngine::kAsync: return "async";
  }
  return "?";
}

// ---- AlgoRegistry --------------------------------------------------------

void AlgoRegistry::add(AlgoFamily family) {
  if (!valid_spec_name(family.name)) {
    throw std::invalid_argument("algorithm family name '" + family.name +
                                "' is invalid");
  }
  if (!family.run) {
    throw std::invalid_argument("algorithm family '" + family.name +
                                "' has no run function");
  }
  if (families_.count(family.name) != 0u) {
    throw std::invalid_argument("algorithm family '" + family.name +
                                "' registered twice");
  }
  families_.emplace(family.name, std::move(family));
}

const AlgoFamily* AlgoRegistry::find(const std::string& name) const noexcept {
  const auto it = families_.find(name);
  return it == families_.end() ? nullptr : &it->second;
}

std::vector<const AlgoFamily*> AlgoRegistry::list() const {
  std::vector<const AlgoFamily*> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) out.push_back(&family);
  return out;
}

void AlgoRegistry::validate(const AlgoSpec& spec) const {
  const AlgoFamily* family = find(spec.family);
  if (family == nullptr) {
    std::string known;
    for (const auto& [name, f] : families_) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    fail("unknown algorithm family '" + spec.family + "' (known: " + known + ")");
  }
  for (const auto& [key, value] : spec.params) {
    const bool declared =
        std::any_of(family->keys.begin(), family->keys.end(),
                    [&key](const AlgoKeySpec& k) { return k.key == key; });
    if (!declared) {
      std::string keys;
      for (const AlgoKeySpec& k : family->keys) {
        if (!keys.empty()) keys += ", ";
        keys += k.key;
      }
      fail(spec.family + ": unknown key '" + key + "' (keys: " +
           (keys.empty() ? "none" : keys) + ")");
    }
  }
}

RunResult AlgoRegistry::run(const AlgoSpec& spec, AlgoBuildContext& ctx,
                            Adversary& adversary) const {
  validate(spec);
  if (ctx.n < 2 || ctx.k < 1) {
    fail(spec.family + ": requires n >= 2 and k >= 1 in the build context");
  }
  return find(spec.family)->run(spec, ctx, adversary);
}

AlgoRegistry& AlgoRegistry::global() {
  // Registration inside the magic-static initializer: the first touch is
  // thread-safe even from concurrent pool workers (scenario trials dispatch
  // without any main-thread warm-up), same as AdversaryRegistry.
  static AlgoRegistry registry = [] {
    AlgoRegistry r;
    register_all_algorithms(r);
    return r;
  }();
  return registry;
}

RunResult run_algo(const AlgoSpec& spec, AlgoBuildContext& ctx,
                   Adversary& adversary) {
  return AlgoRegistry::global().run(spec, ctx, adversary);
}

bool algo_schedule_compatible(const AlgoFamily& family,
                              const AdversarySpec& adversary, std::string* why) {
  if (!family.requires_static) return true;
  if (adversary.family == "static") return true;
  const auto reject = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (adversary.family == "trace" || adversary.family == "scripted") {
    // A recording may well be static; its embedded metadata says so.  A
    // missing/unreadable file or free-form metadata passes here — the
    // build (or the protocol's own guard) surfaces the real problem with
    // its own message.
    const auto it = adversary.params.find("file");
    if (it == adversary.params.end()) return true;
    try {
      const std::unique_ptr<TraceSource> source = open_trace_source(it->second);
      const std::map<std::string, std::string> meta =
          parse_trace_metadata(source->header().metadata);
      const auto rec = meta.find("adversary");
      if (rec == meta.end()) return true;
      if (AdversarySpec::parse(rec->second).family == "static") return true;
      return reject("algorithm '" + family.name +
                    "' requires a static schedule, but this recording's "
                    "schedule family is '" +
                    AdversarySpec::parse(rec->second).family +
                    "'; re-record against --adversary=static:...");
    } catch (const TraceError&) {
      return true;
    } catch (const AdversarySpecError&) {
      return true;
    }
  }
  return reject("algorithm '" + family.name +
                "' requires a static schedule (the protocol asserts an "
                "unchanging neighborhood); pair it with "
                "--adversary=static:... or a static recording");
}

void register_all_algorithms(AlgoRegistry& registry) {
  if (registry.find("single_source") != nullptr) return;  // already installed
  registry.add(
      {"single_source",
       "Algorithm 1 (Single-Source-Unicast): request-based, 1-competitive "
       "O(n^2 + nk)",
       "single_source:priority=paper",
       AlgoEngine::kUnicast,
       /*requires_static=*/false,
       {{"priority", Kind::kString, "paper",
         "request priority over edge classes: paper | reversed | new_last"},
        {"source", Kind::kInt, "0", "the node initially holding all k tokens"}},
       run_single_source_family});
  registry.add(
      {"multi_source",
       "Multi-Source-Unicast (Section 3.2.1): per-source Algorithm 1, "
       "O(n^2 s + nk)",
       "multi_source:sources=8",
       AlgoEngine::kUnicast,
       /*requires_static=*/false,
       {kSourcesMultiKey},
       run_multi_source_family});
  registry.add(
      {"flooding",
       "naive phase flooding (Section 2's local-broadcast ceiling, O(n^2 k) "
       "total)",
       "flooding:sources=1",
       AlgoEngine::kBroadcast,
       /*requires_static=*/false,
       {kSourcesSingleKey},
       run_flooding_family});
  registry.add(
      {"random_flooding",
       "uniform-random token flooding (no deterministic round bound)",
       "random_flooding:seed=5",
       AlgoEngine::kBroadcast,
       /*requires_static=*/false,
       {kSourcesSingleKey, kSeedKey},
       run_random_flooding_family});
  registry.add(
      {"neighbor_exchange",
       "trivial push baseline (Section 1): each token once per ordered pair, "
       "O(n^2 k)",
       "neighbor_exchange:sources=1",
       AlgoEngine::kUnicast,
       /*requires_static=*/false,
       {kSourcesSingleKey},
       run_neighbor_exchange_family});
  registry.add(
      {"oblivious",
       "Algorithm 2 (Oblivious-Multi-Source): random-walk funnel to centers, "
       "then multi-source",
       "oblivious:sources=32,force_phase1=true",
       AlgoEngine::kUnicast,
       /*requires_static=*/false,
       {kSourcesMultiKey, kSeedKey,
        {"force_phase1", Kind::kBool, "false",
         "run the walk phase even when s is below the n^(2/3) threshold"},
        {"f", Kind::kInt, "0",
         "expected center count override (0: the paper's formula)"}},
       run_oblivious_family});
  registry.add(
      {"spanning_tree",
       "static spanning-tree pipeline (Section 1's baseline, O(n^2 + nk); "
       "static schedules only)",
       "spanning_tree:root=0",
       AlgoEngine::kUnicast,
       /*requires_static=*/true,
       {kSourcesSingleKey, {"root", Kind::kInt, "0", "BFS tree root node"}},
       run_spanning_tree_family});
  registry.add(
      {"async_push",
       "asynchronous push: Poisson node clocks, one random token to one "
       "random neighbor per activation",
       "async_push:rate=1,sigma=1",
       AlgoEngine::kAsync,
       /*requires_static=*/false,
       {kSourcesSingleKey, kSeedKey, kRateKey, kSigmaKey},
       run_async_push_family});
  registry.add(
      {"async_push_pull",
       "asynchronous push-pull: the contacted neighbor replies with one of "
       "its own tokens in the same contact",
       "async_push_pull:rate=1,sigma=1",
       AlgoEngine::kAsync,
       /*requires_static=*/false,
       {kSourcesSingleKey, kSeedKey, kRateKey, kSigmaKey},
       run_async_push_pull_family});
}

}  // namespace dyngossip
