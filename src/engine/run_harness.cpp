#include "engine/run_harness.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/round_probe.hpp"

namespace dyngossip {

std::size_t plan_shards(const ThreadPool* pool, std::size_t n,
                        std::size_t min_parallel_nodes) noexcept {
  if (pool == nullptr || pool->size() < 2) return 1;
  if (n < min_parallel_nodes) return 1;
  return std::min(pool->size() * 4, n);
}

RunHarness::RunHarness(std::vector<KnowledgeSet> knowledge, std::size_t k,
                       const RunEnv& env, RunLimits limits)
    : knowledge_(std::move(knowledge)),
      k_(k),
      faults_(env.faults),
      fault_active_(env.faults != nullptr && env.faults->active()),
      fault_amnesia_(fault_active_ && env.faults->amnesia()),
      run_timeout_seconds_(env.run_timeout_seconds),
      telemetry_(env.telemetry),
      stall_window_(std::max<std::uint64_t>(
          limits.stall_floor, limits.stall_per_node * knowledge_.size())),
      watchdog_mask_(limits.watchdog_stride - 1),
      start_offset_(limits.start_offset) {
  DG_CHECK(limits.watchdog_stride > 0 &&
           (limits.watchdog_stride & watchdog_mask_) == 0);
  for (const KnowledgeSet& kn : knowledge_) {
    DG_CHECK(kn.size() == k_);
    if (kn.all()) ++complete_nodes_;
  }
}

bool RunHarness::live_complete() const {
  if (faults_->live_count() == 0) return false;
  const auto n = static_cast<NodeId>(knowledge_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (faults_->is_live(v) && !knowledge_[v].all()) return false;
  }
  return true;
}

double RunHarness::coverage() const {
  const std::uint64_t universe =
      static_cast<std::uint64_t>(knowledge_.size()) * k_;
  if (universe == 0) return 1.0;
  std::uint64_t known = 0;
  for (const KnowledgeSet& kn : knowledge_) known += kn.count();
  return static_cast<double>(known) / static_cast<double>(universe);
}

void RunHarness::advance_faults(Round r) {
  faults_->begin_round(r);
  if (!fault_amnesia_) return;
  for (const NodeId v : faults_->crashed_this_round()) {
    KnowledgeSet& kn = knowledge_[v];
    if (kn.all()) --complete_nodes_;
    kn.reset_all();
    if (kn.all()) ++complete_nodes_;  // k = 0 universe only
  }
}

void RunHarness::start_run() {
  stop_ = RunStatus::kRoundCap;
  last_learnings_ = metrics_.learnings;
  quiet_ = 0;
  ticks_ = 0;
  started_ = std::chrono::steady_clock::now();
}

RunMetrics RunHarness::finish(Round last, std::uint64_t edges) {
  metrics_.completed = run_complete();
  metrics_.status = metrics_.completed ? RunStatus::kCompleted : stop_;
  metrics_.coverage = coverage();
  if (telemetry_.probe != nullptr && last > start_offset_) {
    probe_observe(last, edges, /*flush=*/true);
  }
  return metrics_;
}

void RunHarness::probe_observe(Round r, std::uint64_t edges, bool flush) {
  RoundProbe& probe = *telemetry_.probe;
  if (!flush && !probe.wants(r)) return;  // deltas keep accumulating
  if (flush && probe.last_round() == static_cast<std::uint64_t>(r)) return;
  RoundProbeSample s;
  s.round = r;
  s.coverage = coverage();
  s.learned = metrics_.learnings - probe_prev_.learnings;
  s.sent = metrics_.total_messages() - probe_prev_.total_messages();
  s.dropped = probe_dropped_;
  s.duplicated = probe_duplicated_;
  s.requests = metrics_.unicast.request - probe_prev_.unicast.request;
  s.served = metrics_.unicast.token - probe_prev_.unicast.token;
  s.edges_inserted = metrics_.tc - probe_prev_.tc;
  s.edges_removed = metrics_.deletions - probe_prev_.deletions;
  s.edges = edges;
  s.crashed = fault_active_
                  ? static_cast<std::uint64_t>(knowledge_.size() -
                                               faults_->live_count())
                  : 0;
  probe.record(s);
  probe_prev_ = metrics_;
  probe_dropped_ = 0;
  probe_duplicated_ = 0;
}

}  // namespace dyngossip
