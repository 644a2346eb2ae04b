#include "core/astar_search.h"

#include <cmath>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "util/topk_heap.h"

namespace kgsearch {

namespace {

/// Longest path the 16-bit stage, hop and depth counters below can hold.
constexpr size_t kMaxPathHops = 65535;

/// One explored partial path, stored in an arena with parent links.
struct SearchNode {
  NodeId node;
  int32_t parent;          ///< arena index; -1 for start pseudo-states
  PredicateId via_pred;    ///< predicate of the edge into `node`
  float via_weight;        ///< semantic weight of that edge
  uint16_t stage;          ///< query edge currently being matched
  uint16_t hops_in_stage;  ///< hops consumed on that query edge (0 at start)
  uint16_t depth;          ///< total hops from the start node
  double log_sum;          ///< sum of log-weights along the partial path
};

/// Priority-queue entry; ties broken by insertion order for determinism.
struct QueueEntry {
  double priority;
  uint64_t seq;
  int32_t index;
  bool is_goal;
};

struct QueueLess {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq > b.seq;
  }
};

/// Packs (node, stage, hops_in_stage) into disjoint 32/16/16-bit fields.
uint64_t StateKey(const SearchNode& n) {
  return (static_cast<uint64_t>(n.node) << 32) |
         (static_cast<uint64_t>(n.stage) << 16) | n.hops_in_stage;
}

PathMatch Reconstruct(const std::vector<SearchNode>& arena, int32_t index) {
  PathMatch m;
  const SearchNode& last = arena[static_cast<size_t>(index)];
  m.pss = std::exp(last.log_sum / static_cast<double>(last.depth));
  // Walk parents back to the start pseudo-state.
  std::vector<int32_t> chain;
  for (int32_t i = index; i >= 0; i = arena[static_cast<size_t>(i)].parent) {
    chain.push_back(i);
  }
  uint16_t prev_stage = 0;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const SearchNode& n = arena[static_cast<size_t>(*it)];
    if (n.parent >= 0) {
      // A stage increase means the previous node matched the intermediate
      // query node between the two query edges.
      if (n.stage > prev_stage) {
        m.stage_ends.push_back(static_cast<uint32_t>(m.nodes.size()) - 1);
      }
      m.predicates.push_back(n.via_pred);
      m.weights.push_back(n.via_weight);
      prev_stage = n.stage;
    }
    m.nodes.push_back(n.node);
  }
  m.stage_ends.push_back(static_cast<uint32_t>(m.nodes.size()) - 1);
  return m;
}

}  // namespace

Result<std::vector<PathMatch>> AStarSearch(const GraphView& graph,
                                           const PredicateSpace& space,
                                           const ResolvedSubQuery& subquery,
                                           const AStarConfig& config,
                                           SearchStats* stats) {
  if (!graph.base().finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  if (subquery.Length() == 0) {
    return Status::InvalidArgument("sub-query has no edges");
  }
  if (config.n_hat == 0) {
    return Status::InvalidArgument("n_hat must be >= 1");
  }
  // A path has at most n̂ · L hops, and every hop count must fit in 16 bits.
  if (config.n_hat > kMaxPathHops / subquery.Length()) {
    return Status::InvalidArgument(
        "n_hat times the sub-query length must not exceed 65535");
  }
  if (config.tau <= 0.0 || config.tau > 1.0) {
    return Status::InvalidArgument("tau must be in (0, 1]");
  }
  if (config.anytime && !config.should_stop) {
    return Status::InvalidArgument("anytime mode requires should_stop");
  }

  const size_t num_stages = subquery.Length();
  const double total_bound =
      static_cast<double>(config.n_hat * num_stages);  // n̂ per query edge
  const NodeConstraint& target = subquery.node_constraints.back();

  SemanticWeights weights(graph, &space, &subquery);
  SearchStats local_stats;
  SearchStats& st = stats ? *stats : local_stats;
  st = SearchStats{};

  const bool paper_mode = config.dedup == DedupMode::kPaperNodeVisited;
  // Poll cadence for should_stop and interrupt; a configured 0 would mean
  // "never poll" via a division by zero, so clamp once here for every
  // caller.
  const size_t check_interval =
      config.stop_check_interval == 0 ? 1 : config.stop_check_interval;

  std::vector<SearchNode> arena;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, QueueLess> queue;
  std::unordered_set<uint64_t> expanded;     // kExactState pop-time dedup
  std::unordered_set<NodeId> visited;        // Algorithm 1 push-time dedup
  std::unordered_map<NodeId, size_t> emitted_targets;  // goal-emission dedup
  uint64_t seq = 0;

  std::vector<PathMatch> matches;       // optimal mode, in pop order
  TopKHeap<PathMatch> anytime_matches(  // anytime mode, best-cap retention
      config.anytime_match_cap == 0 ? SIZE_MAX : config.anytime_match_cap);

  // Initialization (Algorithm 1 line 1): one pseudo-state per node match of
  // the specific start node; its estimate is m(us)^(1/N̂) since the explored
  // weight product is empty.
  for (NodeId us : subquery.start_candidates) {
    if (paper_mode) visited.insert(us);
    double m = weights.MaxAdjacentWeight(us, 0);
    double est = std::exp(std::log(m) / total_bound);
    arena.push_back(SearchNode{us, -1, 0, 1.0f, 0, 0, 0, 0.0});
    if (est >= config.tau - 1e-12) {
      queue.push(QueueEntry{est, seq++,
                            static_cast<int32_t>(arena.size()) - 1, false});
      ++st.pushed;
    } else {
      ++st.pruned_tau;
    }
  }

  auto push_child = [&](const SearchNode& parent_node, int32_t parent_index,
                        const AdjEntry& adj, uint16_t stage,
                        uint16_t hops_in_stage) {
    // Algorithm 1 line 6: each KG node enters the queue at most once.
    if (paper_mode && !visited.insert(adj.neighbor).second) {
      ++st.pruned_visited;
      return;
    }
    const double w = weights.Weight(stage, adj.predicate);
    const double log_sum = parent_node.log_sum + std::log(w);
    const uint16_t depth = static_cast<uint16_t>(parent_node.depth + 1);
    const bool is_goal = (static_cast<size_t>(stage) + 1 == num_stages) &&
                         target.Matches(graph, adj.neighbor);
    if (is_goal) {
      // Exact pss for target node matches (Section V-A).
      const double pss = std::exp(log_sum / static_cast<double>(depth));
      if (pss < config.tau - 1e-12) {
        ++st.pruned_tau;
        return;
      }
      arena.push_back(SearchNode{adj.neighbor, parent_index, adj.predicate,
                                 static_cast<float>(w), stage, hops_in_stage,
                                 depth, log_sum});
      const int32_t idx = static_cast<int32_t>(arena.size()) - 1;
      if (config.anytime) {
        // Algorithm 2 lines 10-11: collect immediately instead of queueing.
        anytime_matches.Push(pss, Reconstruct(arena, idx));
        ++st.goals_emitted;
      } else {
        queue.push(QueueEntry{pss, seq++, idx, true});
        ++st.pushed;
      }
      return;
    }
    // Lemma 3 pruning: the estimate upper-bounds every completion's pss.
    const double m = weights.MaxAdjacentWeight(adj.neighbor, stage);
    const double est = std::exp((log_sum + std::log(m)) / total_bound);
    if (est < config.tau - 1e-12) {
      ++st.pruned_tau;
      return;
    }
    arena.push_back(SearchNode{adj.neighbor, parent_index, adj.predicate,
                               static_cast<float>(w), stage, hops_in_stage,
                               depth, log_sum});
    queue.push(QueueEntry{est, seq++,
                          static_cast<int32_t>(arena.size()) - 1, false});
    ++st.pushed;
  };

  while (!queue.empty()) {
    if (config.max_expansions > 0 && st.popped >= config.max_expansions) break;
    QueueEntry entry = queue.top();
    queue.pop();
    ++st.popped;
    if (config.expansion_hook) config.expansion_hook();

    // Cooperative interruption (deadline / cancellation): polled between
    // expansions at the same cadence as the anytime stop estimator. The
    // search aborts with the interrupt's status; collected matches are
    // dropped — an interrupted query has no answer, partial or otherwise.
    if (config.interrupt && st.popped % check_interval == 0) {
      Status interrupted = config.interrupt();
      if (!interrupted.ok()) return interrupted;
    }

    const SearchNode node = arena[static_cast<size_t>(entry.index)];
    if (entry.is_goal) {
      // Theorem 2: a popped target match is the best remaining match.
      if (++emitted_targets[node.node] <= config.max_matches_per_target) {
        matches.push_back(Reconstruct(arena, entry.index));
        ++st.goals_emitted;
        if (matches.size() >= config.k) break;
      }
      continue;
    }
    if (!paper_mode && !expanded.insert(StateKey(node)).second) {
      ++st.pruned_visited;
      continue;
    }
    ++st.expanded;

    // Transition 1: advance to the next query edge when the current node is
    // a node match of the intermediate query node between the two edges.
    // Runs before the continue transition so that in paper mode the
    // node-visited set cannot swallow a goal push behind a same-node
    // continue push.
    if (node.hops_in_stage >= 1 &&
        static_cast<size_t>(node.stage + 1) < num_stages &&
        subquery.node_constraints[node.stage + 1].Matches(graph, node.node)) {
      const uint16_t next_stage = static_cast<uint16_t>(node.stage + 1);
      for (const AdjEntry& adj : graph.Neighbors(node.node)) {
        push_child(node, entry.index, adj, next_stage, 1);
      }
    }
    // Transition 2: continue matching the current query edge (hop budget n̂).
    if (node.hops_in_stage < config.n_hat) {
      const uint16_t nh = static_cast<uint16_t>(node.hops_in_stage + 1);
      for (const AdjEntry& adj : graph.Neighbors(node.node)) {
        push_child(node, entry.index, adj, node.stage, nh);
      }
    }

    if (config.anytime && st.popped % check_interval == 0 &&
        config.should_stop(anytime_matches.size())) {
      st.stopped_early = true;
      break;
    }
  }
  st.exhausted = queue.empty();
  st.materialized_nodes = weights.materialized_nodes();

  if (config.anytime) {
    matches.clear();
    for (auto& [pss, match] : anytime_matches.TakeSortedDescending()) {
      (void)pss;  // PathMatch carries its pss already
      matches.push_back(std::move(match));
    }
  }
  return matches;
}

}  // namespace kgsearch
