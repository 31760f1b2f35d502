// σ-edge-stability validation.
//
// Section 1.3: a dynamic graph is σ-edge stable if every edge, once
// inserted, remains present for at least σ consecutive rounds.  Theorems 3.4
// and 3.6 assume 3-edge stability; the validator lets tests and benches
// assert that a σ-stable adversary actually honours the promise, and lets
// experiments report the realized stability of arbitrary schedules.
#pragma once

#include <unordered_map>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace dyngossip {

/// Streaming σ-stability checker over a round-graph sequence.
class StabilityValidator {
 public:
  /// Validator asserting σ-edge stability (σ >= 1; every sequence is
  /// 1-edge stable by definition).
  explicit StabilityValidator(Round sigma);

  /// Ingests round r's graph (rounds in order from 1).
  void observe(const Graph& g, Round r);

  /// Number of completed presence intervals shorter than σ seen so far.
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }

  /// Shortest completed presence interval (kNoRound before any removal).
  [[nodiscard]] Round min_lifetime() const noexcept { return min_lifetime_; }

  /// The σ this validator checks.
  [[nodiscard]] Round sigma() const noexcept { return sigma_; }

 private:
  Round sigma_;
  Round last_round_ = 0;
  std::unordered_map<EdgeKey, Round> live_;  // edge -> insertion round
  std::uint64_t violations_ = 0;
  Round min_lifetime_ = kNoRound;
};

}  // namespace dyngossip
