// The round graph plane: one shared per-round graph step for all engines.
//
// Every engine does the same thing with the round graph G_r the adversary
// hands it: snapshot it into a CSR RoundGraphView, verify the model's
// connectivity assumption, and diff it against G_{r-1} (the engines charge
// TC, Definition 1.3, and count deletions from the diff).  Doing that from
// scratch costs O(n + m) several times a round, although a churn schedule
// changes only O(churn) edges.  The plane absorbs the change instead of
// re-deriving it:
//
//   - Patch path.  When G_r is the same Graph identity as G_{r-1} and its
//     edit journal still reaches back to the version the plane last saw,
//     the journal is normalised into the round's net sorted GraphDiff (an
//     edge cut and re-added within the round cancels, exactly as a full
//     comparison treats it) and the view is patched in place.
//   - Rebuild path.  Otherwise — round 1, a different or reassigned graph
//     object (fresh resampling, the star/path/lb/scripted/smoothed
//     schedules), a reset journal — the view is rebuilt and the diff is one
//     per-node merge against the previous snapshot, which the plane keeps
//     by swapping buffers.
//
// Both paths produce the same view (canonical arc numbering, see
// round_view.hpp) and the same diff, so payloads are byte-identical either
// way.  Connectivity is checked once: the plane skips its BFS when the graph
// carries a current verdict from a connectivity helper (the churn
// adversaries check their own graph before repairing it), or when a patch
// removes no edge from the previous, already verified, round graph.
//
// The plane also keeps one `since` round per directed arc v->w: the first
// round of the current unbroken run of rounds in which this plane's views
// contained the arc.  It is what Algorithm 1's edge classification needs
// (an edge is "new" for the two rounds after its last insertion), served
// without any per-node merge in the algorithms.  The patch path stamps
// inserted arcs with r and lets every other value travel with its target
// through the view's block copies; the rebuild path carries the values over
// from the previous snapshot in the same merge that computes the diff.  A
// fresh plane, or one told to restart_since(), stamps every arc with the
// round it ingests next.  Only the unicast engine reads since, so a plane
// keeps it only when asked to.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph.hpp"
#include "graph/round_view.hpp"
#include "telemetry/timeline.hpp"

namespace dyngossip {

class RoundGraphPlane {
 public:
  /// Plane for an n-node network whose G_0 is empty.  `timeline`
  /// (nullable) receives one "adversary" and one "graph_plane" span per
  /// round.  `track_since` keeps the per-arc since rounds (since() is
  /// valid only then).
  explicit RoundGraphPlane(std::size_t n, TimelineRecorder* timeline = nullptr,
                           bool track_since = false)
      : timeline_(timeline), track_since_(track_since) {
    view_.rebuild(Graph(n));  // G_0, swapped in as the first round's predecessor
  }

  /// One round: asks `next_graph()` for G_r (the adversary step), then
  /// ingests it.  Returns the round's diff (valid until the next round).
  template <typename NextGraph>
  const GraphDiff& advance(Round r, NextGraph&& next_graph) {
    const Graph* g = nullptr;
    {
      const TimelineSpan span(timeline_, "adversary", "phase");
      g = &next_graph();
    }
    const TimelineSpan span(timeline_, "graph_plane", "phase");
    return ingest(*g, r);
  }

  /// Ingests G_r (r must follow the last ingested round) without timing
  /// the adversary: patches or rebuilds the view, checks connectivity
  /// (aborting on a disconnected G_r) and diffs against G_{r-1}.
  const GraphDiff& ingest(const Graph& g, Round r);

  /// Makes the next ingested round stamp every arc's since with its own
  /// number, as a fresh plane does (for an engine phase starting mid-run).
  void restart_since() noexcept { restart_since_ = true; }

  /// CSR snapshot of the last ingested round graph (G_0 before round 1).
  [[nodiscard]] const RoundGraphView& view() const noexcept { return view_; }

  /// The last ingested round graph (adversary-owned; valid until the next
  /// adversary call).
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// The last ingested round (0 before the first).
  [[nodiscard]] Round round() const noexcept { return round_; }

  /// `since` of v's arcs, aligned with view().neighbors(v).
  [[nodiscard]] std::span<const Round> since(NodeId v) const {
    DG_DCHECK(track_since_);
    return {since_.data() + view_.arc_begin(v), view_.degree(v)};
  }

  /// Writable `since` of v's arcs, for an engine that re-bases what one
  /// node has seen (a crashed node's recovery); the values then travel with
  /// the arcs like any others.
  [[nodiscard]] std::span<Round> mutable_since(NodeId v) {
    DG_DCHECK(track_since_);
    return {since_.data() + view_.arc_begin(v), view_.degree(v)};
  }

  /// Rounds ingested by the patch path so far (the rest were rebuilds).
  [[nodiscard]] std::uint64_t patched_rounds() const noexcept { return patched_; }

 private:
  /// Normalises the journal entries into the net sorted diff_; false when
  /// the journal cannot serve this round (the caller rebuilds).
  bool net_diff(const Graph& g);

  /// Rebuild path: one per-node merge of the freshly rebuilt view_ against
  /// prev_view_ (G_{r-1}) fills diff_ and, when tracked, since_ — each arc
  /// carries its previous value when `carry`, else gets r.
  void diff_rebuilt(Round r, bool carry);

  TimelineRecorder* timeline_;
  bool track_since_;
  bool restart_since_ = false;
  RoundGraphView view_;
  std::vector<Round> since_;        ///< per arc of view_
  RoundGraphView prev_view_;        ///< rebuild path: the replaced snapshot
  std::vector<Round> prev_since_;   ///< ... and its per-arc since
  ConnectivityChecker connectivity_;
  const Graph* graph_ = nullptr;
  std::uint64_t identity_ = 0;  ///< identity of the graph behind view_
  std::uint64_t version_ = 0;   ///< its version when view_ was last synced
  Round round_ = 0;             ///< last round ingested by this plane
  std::uint64_t patched_ = 0;
  GraphDiff diff_;                      ///< this round's net diff
  std::vector<EdgeKey> edit_scratch_;   ///< journal entries, sorted
};

}  // namespace dyngossip
