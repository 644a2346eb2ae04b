// A*-style top-k semantic search over the lazily materialized semantic graph
// (Section V, Algorithm 1), with the anytime variant of Section VI
// (Algorithm 2) selected by AStarConfig::anytime.
//
// The search state is (KG node, query-edge stage, hops consumed on that
// stage); the priority is the admissible pss estimate of Eq. 7. Two
// de-duplication modes are provided (see DedupMode):
//  - kPaperNodeVisited reproduces Algorithm 1 exactly: a global visited set
//    admits each KG node into the priority queue once, so every explored
//    partial path is node-simple and the search space matches the paper's
//    complexity analysis.
//  - kExactState de-duplicates full states lazily at pop time. Because the
//    estimate is monotone non-increasing along a path, the first pop of a
//    state carries its best weight product, making the returned top-k
//    provably optimal over bounded-length walks — a strictly stronger
//    guarantee than Algorithm 1's, at the cost of a larger frontier. The
//    ablation bench quantifies the difference.
// In both modes node matches of the target query node are terminal (never
// expanded), exactly as in the paper, and at most one match per distinct
// target node is emitted in optimal mode.
#ifndef KGSEARCH_CORE_ASTAR_SEARCH_H_
#define KGSEARCH_CORE_ASTAR_SEARCH_H_

#include <functional>
#include <vector>

#include "core/path_match.h"
#include "core/resolved_query.h"
#include "core/semantic_weights.h"
#include "embedding/predicate_space.h"
#include "kg/graph.h"
#include "kg/graph_view.h"
#include "util/status.h"

namespace kgsearch {

/// Partial-path de-duplication discipline (see file comment).
enum class DedupMode {
  kPaperNodeVisited,  ///< Algorithm 1: one queue entry per KG node
  kExactState,        ///< exact: one expansion per (node, stage, hops)
};

/// Parameters of one sub-query search.
struct AStarConfig {
  /// De-duplication discipline; the paper's algorithm is the default.
  DedupMode dedup = DedupMode::kPaperNodeVisited;
  /// Number of matches to return (top-k per sub-query graph).
  size_t k = 10;
  /// pss threshold τ (Definition 7); partial paths with estimate below τ are
  /// pruned without false negatives (Lemma 3).
  double tau = 0.8;
  /// User-desired path length n̂ per query edge (Section V-A). The search
  /// counts stages, hops and depth in 16 bits, so n̂ times the sub-query
  /// length must not exceed 65535.
  size_t n_hat = 4;
  /// Matches emitted per distinct target node in optimal mode. Values above
  /// 1 require kExactState (the paper-mode visited set admits each node
  /// once, so a target can only ever be reached by one path).
  size_t max_matches_per_target = 1;
  /// Safety valve on pops; 0 = unlimited.
  uint64_t max_expansions = 0;
  /// Cooperative interruption, polled every stop_check_interval pops in
  /// BOTH modes (between node expansions, never inside one). A non-OK
  /// status (kCancelled, kDeadlineExceeded) aborts the search and is
  /// returned from AStarSearch verbatim; partial matches are discarded.
  std::function<Status()> interrupt;

  // --- anytime mode (Algorithm 2) ---
  /// Collect matches when generated (not when popped) and run until
  /// should_stop() or queue exhaustion instead of stopping at k goals.
  bool anytime = false;
  /// Cap on retained anytime matches (best kept); 0 = unlimited.
  size_t anytime_match_cap = 0;
  /// Polled every stop_check_interval pops in anytime mode, with the number
  /// of matches collected so far (|M̂i| in Algorithm 3).
  std::function<bool(size_t matches_so_far)> should_stop;
  /// Pops between should_stop / interrupt polls (both modes for interrupt).
  size_t stop_check_interval = 64;
  /// Test hook invoked once per pop (e.g. to advance a ManualClock).
  std::function<void()> expansion_hook;
};

/// Counters describing one search run.
struct SearchStats {
  uint64_t pushed = 0;
  uint64_t popped = 0;
  uint64_t expanded = 0;         ///< non-goal states actually expanded
  uint64_t pruned_tau = 0;       ///< children dropped by the τ bound
  uint64_t pruned_visited = 0;   ///< pops skipped by state de-duplication
  uint64_t goals_emitted = 0;
  size_t materialized_nodes = 0; ///< semantic-graph nodes touched
  bool stopped_early = false;    ///< anytime stop triggered
  bool exhausted = false;        ///< priority queue drained
};

/// Top-k semantic path search for one resolved sub-query graph.
///
/// Returns matches in descending pss order. In optimal mode (anytime=false)
/// the result is globally optimal among paths within the hop bound
/// (Theorem 2); in anytime mode it contains every match generated before the
/// stop signal (best `anytime_match_cap` kept).
///
/// Takes a GraphView so the search can run against a pinned delta snapshot
/// (live ingest); a bare finalized KnowledgeGraph converts implicitly and
/// behaves exactly as before.
Result<std::vector<PathMatch>> AStarSearch(const GraphView& graph,
                                           const PredicateSpace& space,
                                           const ResolvedSubQuery& subquery,
                                           const AStarConfig& config,
                                           SearchStats* stats = nullptr);

}  // namespace kgsearch

#endif  // KGSEARCH_CORE_ASTAR_SEARCH_H_
