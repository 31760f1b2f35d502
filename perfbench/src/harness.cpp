#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

/// Shortest decimal that reads back as exactly `v`.
std::string exact(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
}

void Report::print() const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Metric& m : metrics_) {
    std::printf("metric %-26s %14s %s\n", m.name.c_str(), exact(m.value).c_str(),
                m.unit.c_str());
  }
  for (const std::string& f : failures_) std::printf("FAILED %s\n", f.c_str());
  std::printf("error_rate %s (%zu failed of %zu checked)\n",
              exact(attempted_ == 0 ? 1.0
                                    : static_cast<double>(failed_) /
                                          static_cast<double>(attempted_))
                  .c_str(),
              failed_, attempted_);
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics_[i].name + "\": {\"value\": " +
            exact(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::uint64_t fold(std::uint64_t acc, std::uint64_t x) {
  std::uint64_t z = acc ^ x;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename Call>
const dyngossip::Graph& ClockedSchedule::timed(Call&& call) {
  const Clock::time_point begin = Clock::now();
  starts_.push_back(begin);
  const dyngossip::Graph& g = call();
  busy_s_ += seconds_between(begin, Clock::now());
  return g;
}

const dyngossip::Graph& ClockedSchedule::broadcast_round(
    const dyngossip::BroadcastRoundView& view) {
  return timed([&]() -> const dyngossip::Graph& {
    return inner_.broadcast_round(view);
  });
}

const dyngossip::Graph& ClockedSchedule::unicast_round(
    const dyngossip::UnicastRoundView& view) {
  return timed([&]() -> const dyngossip::Graph& {
    return inner_.unicast_round(view);
  });
}

std::vector<double> ClockedSchedule::round_latencies_ms(
    Clock::time_point end) const {
  std::vector<double> out;
  out.reserve(starts_.size());
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    const Clock::time_point next = i + 1 < starts_.size() ? starts_[i + 1] : end;
    out.push_back(1e3 * seconds_between(starts_[i], next));
  }
  return out;
}

}  // namespace perfbench
