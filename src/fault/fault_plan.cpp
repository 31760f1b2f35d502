#include "fault/fault_plan.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dyngossip {

namespace {

// Distinct odd multipliers decorrelate the key dimensions before the
// SplitMix64 finalizer scrambles the sum (the standard stateless-stream
// construction; the constants are the SplitMix64/xoshiro mixing primes).
constexpr std::uint64_t kSaltMul = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kKeyAMul = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kKeyBMul = 0x94d049bb133111ebULL;

constexpr std::uint64_t kCrashSalt = 1;
constexpr std::uint64_t kRecoverSalt = 2;
constexpr std::uint64_t kDeliverySalt = 3;

}  // namespace

FaultPlan::FaultPlan(const FaultSpec& spec, std::size_t n,
                     std::uint64_t trial_seed)
    : spec_(spec),
      seed_(spec.has_seed ? spec.seed : trial_seed),
      live_count_(n),
      live_(n, 1) {}

double FaultPlan::roll(std::uint64_t salt, std::uint64_t a,
                       std::uint64_t b) const {
  std::uint64_t state = seed_ + salt * kSaltMul + a * kKeyAMul + b * kKeyBMul;
  (void)splitmix64(state);  // one scramble round separates nearby keys
  const std::uint64_t x = splitmix64(state);
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

void FaultPlan::begin_round(Round r) {
  DG_CHECK(r > last_round_);  // strictly forward; phases continue one plan
  crashed_now_.clear();
  recovered_now_.clear();
  if (spec_.crash <= 0.0) {
    last_round_ = r;
    return;
  }
  // Advance every skipped round too (an engine starting at round R > 1
  // shares the same position-keyed liveness history as one that stepped
  // through 1..R-1), so liveness stays a function of (spec, seed, r) alone.
  const std::size_t n = live_.size();
  for (Round x = last_round_ + 1; x <= r; ++x) {
    for (NodeId v = 0; v < n; ++v) {
      if (live_[v] != 0) {
        if (roll(kCrashSalt, x, v) < spec_.crash) {
          live_[v] = 0;
          --live_count_;
          crashed_now_.push_back(v);
        }
      } else if (spec_.recover > 0.0 &&
                 roll(kRecoverSalt, x, v) < spec_.recover) {
        live_[v] = 1;
        ++live_count_;
        recovered_now_.push_back(v);
      }
    }
  }
  last_round_ = r;
}

FaultPlan::Fate FaultPlan::delivery_fate(Round r, std::size_t arc,
                                         std::uint32_t seq) const {
  if (!has_delivery_faults()) return Fate::kDeliver;
  // The (bounded, O(1)) per-arc payload sequence selects the salt, so
  // (round, arc, seq) positions can never collide with each other or with
  // the liveness rolls (salts 1 and 2).
  const double u = roll(kDeliverySalt + seq, r, arc);
  if (u < spec_.drop) return Fate::kDrop;
  if (u < spec_.drop + spec_.dup) return Fate::kDuplicate;
  return Fate::kDeliver;
}

}  // namespace dyngossip
