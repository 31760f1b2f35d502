// Shared pieces of the dyngossip benchmark harness: options, the report
// that becomes the final JSON line, small statistics helpers, and the
// forwarding adversary decorator every workload wraps its schedules in.
//
// The harness drives the library from outside, through its public entry
// points only (run_algo, build_adversary, memoized_sweep,
// SweepService::run_sweep, ResultCache); every timer lives in these files.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The workload seed whose payload checksums are pinned in the sources.
inline constexpr std::uint64_t kDefaultSeed = 0;

struct Options {
  std::string workload;         ///< frontier | grid | serve
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;        ///< length of the measured window
  bool trace = false;           ///< run the traced per-layer pass instead
  bool tiny = false;            ///< self-test sizes (no pinned checksums)
  std::size_t workers = 4;      ///< pool workers and serve clients
  std::string scratch;          ///< writable directory inside the checkout

  /// Pinned checksums hold only for the default seed at full size.
  [[nodiscard]] bool pinned() const { return !tiny && seed == kDefaultSeed; }
};

/// Metrics plus the correctness tally of one benchmark run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Counts one checked operation; a false `ok` is a failure named `what`.
  /// Thread-safe.
  void check(bool ok, const std::string& what);

  /// Human-readable lines, then the final JSON line, on stdout.
  void print() const;

  [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  mutable std::mutex mu_;  ///< guards the tally below
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Linear-interpolation percentile, p in [0, 1] (0 for an empty sample).
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Order-sensitive checksum fold (SplitMix64 finaliser of acc ^ x).
[[nodiscard]] std::uint64_t fold(std::uint64_t acc, std::uint64_t x);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Forwarding Adversary decorator.  Stamps the start of every round call,
/// so consecutive stamps give round latencies, and sums the time spent
/// inside the wrapped schedule (the adversary layer's busy time).  Two
/// steady-clock reads per round; the wrapped schedule is unchanged.
class ClockedSchedule final : public dyngossip::Adversary {
 public:
  explicit ClockedSchedule(dyngossip::Adversary& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t num_nodes() const override {
    return inner_.num_nodes();
  }
  [[nodiscard]] const dyngossip::Graph& broadcast_round(
      const dyngossip::BroadcastRoundView& view) override;
  [[nodiscard]] const dyngossip::Graph& unicast_round(
      const dyngossip::UnicastRoundView& view) override;

  /// Latency of each round in ms: stamp to stamp, the last one to `end`.
  [[nodiscard]] std::vector<double> round_latencies_ms(
      Clock::time_point end) const;
  [[nodiscard]] double busy_seconds() const { return busy_s_; }
  [[nodiscard]] std::size_t calls() const { return starts_.size(); }

 private:
  template <typename Call>
  const dyngossip::Graph& timed(Call&& call);

  dyngossip::Adversary& inner_;
  std::vector<Clock::time_point> starts_;
  double busy_s_ = 0.0;
};

}  // namespace perfbench
