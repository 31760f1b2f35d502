// Multi-Source-Unicast (Section 3.2.1).
//
// Tokens start at s source nodes a_1 < a_2 < ... < a_s, with a_i holding
// k_i tokens labelled ⟨a_i, 1..k_i⟩.  All nodes give the highest priority to
// disseminating the tokens of the minimum-ID source whose dissemination they
// have not completed, which lets the single-source analysis apply source by
// source.  Per round, each node v runs three tasks in parallel:
//   1. for each edge {v,w}: if some source x has x ∈ I_v (v complete w.r.t.
//      x) and w ∉ R_v(x) (w not yet informed by v), announce completeness
//      w.r.t. the minimum such x (one announcement per edge per round);
//   2. answer every request received last round whose edge survived;
//   3. pick the minimum x ∉ I_v with S_v(x) ≠ ∅ (some neighbor announced
//      completeness w.r.t. x) and run Algorithm 1's request assignment as if
//      x were the only source.
//
// Message complexity (Theorem 3.5): 1-adversary-competitive O(n²s + nk).
// Time (Theorem 3.6): O(nk) rounds on 3-edge-stable graphs.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/knowledge_set.hpp"
#include "core/knowledge.hpp"
#include "core/tokens.hpp"
#include "engine/unicast_engine.hpp"

namespace dyngossip {

/// Static parameters of a multi-source run.
struct MultiSourceConfig {
  std::size_t n = 0;      ///< nodes
  TokenSpacePtr space;    ///< token labelling (shared, immutable)
};

/// Per-node state machine of the Multi-Source-Unicast algorithm.
class MultiSourceNode final : public UnicastAlgorithm {
 public:
  /// `initial_tokens` is K_v(0) (usually space->initial_knowledge(n)[v];
  /// Algorithm 2's phase 2 passes knowledge accumulated during phase 1).
  MultiSourceNode(NodeId self, const MultiSourceConfig& cfg,
                  const KnowledgeSet& initial_tokens);

  void send(Round r, NeighborView neighbors, Outbox& out) override;
  void on_receive(Round r, NodeId from, const Message& m) override;

  /// Nothing to do until something changes: the last send() queued nothing
  /// and no request is outstanding.
  [[nodiscard]] bool quiescent() const override {
    return !sent_any_ && sent_requests_.empty();
  }

  /// True iff v holds every token of source index x.
  [[nodiscard]] bool complete_wrt(std::size_t x) const {
    return per_source_[x].held == cfg_.space->count_of(x);
  }

  /// True iff v holds all k tokens.
  [[nodiscard]] bool complete_all() const noexcept {
    return tokens_.all();
  }

  /// Tokens currently held.
  [[nodiscard]] const KnowledgeSet& tokens() const noexcept { return tokens_; }

  /// Instrumentation: requests sent so far, by edge class at send time.
  [[nodiscard]] std::uint64_t requests_over(EdgeClass c) const {
    return requests_by_class_[static_cast<std::size_t>(c)];
  }

  /// Builds the n node instances with the canonical initial distribution.
  [[nodiscard]] static std::vector<std::unique_ptr<UnicastAlgorithm>> make_all(
      const MultiSourceConfig& cfg);

  /// Builds the n node instances from explicit initial knowledge (phase 2).
  [[nodiscard]] static std::vector<std::unique_ptr<UnicastAlgorithm>> make_all_with(
      const MultiSourceConfig& cfg, const std::vector<KnowledgeSet>& initial);

 private:
  /// Lazily materialized per-source protocol state.
  struct PerSource {
    bool known = false;         ///< source discovered (self, or announcement)
    bool complete = false;      ///< x ∈ I_v
    std::uint32_t held = 0;     ///< tokens of x currently held
    KnowledgeSet informed;     ///< R_v(x) — I announced my completeness to...
    KnowledgeSet announcers;   ///< S_v(x) — announced their completeness to me
  };

  /// Marks token t held; updates per-source counters and completeness.
  void account_token(TokenId t);

  NodeId self_;
  MultiSourceConfig cfg_;
  KnowledgeSet tokens_;
  std::vector<PerSource> per_source_;  ///< indexed by source index
  EdgeClassifier classifier_;
  RequestList sent_requests_;          ///< sorted by neighbor id
  std::vector<std::pair<NodeId, TokenId>> pending_answers_;
  std::uint64_t requests_by_class_[3] = {0, 0, 0};
  bool sent_any_ = false;  ///< the last send() queued a payload
  // Per-round scratch, reused across rounds (send() leaves in_flight_ empty).
  RequestList surviving_;
  RequestList next_requests_;
  KnowledgeSet in_flight_;
  std::vector<NodeId> by_class_[3];
};

}  // namespace dyngossip
