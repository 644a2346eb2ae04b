#include "core/query_graph.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/rng.h"
#include "util/string_util.h"

namespace kgsearch {

Status QueryGraph::Validate() const {
  if (nodes_.empty()) return Status::InvalidArgument("query graph is empty");
  if (edges_.empty()) {
    return Status::InvalidArgument("query graph has no edges");
  }
  if (SpecificNodes().empty()) {
    return Status::InvalidArgument("query graph needs >= 1 specific node");
  }
  if (TargetNodes().empty()) {
    return Status::InvalidArgument("query graph needs >= 1 target node");
  }
  for (const QueryNode& n : nodes_) {
    if (n.type.empty()) {
      return Status::InvalidArgument("every query node needs a type");
    }
  }
  for (const QueryEdge& e : edges_) {
    if (e.predicate.empty()) {
      return Status::InvalidArgument("every query edge needs a predicate");
    }
  }
  // Connectivity (undirected) from node 0.
  std::vector<std::vector<int>> adj(nodes_.size());
  for (const QueryEdge& e : edges_) {
    adj[static_cast<size_t>(e.from)].push_back(e.to);
    adj[static_cast<size_t>(e.to)].push_back(e.from);
  }
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<int> stack{0};
  seen[0] = true;
  size_t visited = 1;
  while (!stack.empty()) {
    int u = stack.back();
    stack.pop_back();
    for (int v : adj[static_cast<size_t>(u)]) {
      if (!seen[static_cast<size_t>(v)]) {
        seen[static_cast<size_t>(v)] = true;
        ++visited;
        stack.push_back(v);
      }
    }
  }
  if (visited != nodes_.size()) {
    return Status::InvalidArgument("query graph must be connected");
  }
  return Status::OK();
}

namespace {

/// A candidate sub-query path with its edge-cover bitmask and Eq. 1 cost.
struct CandidatePath {
  SubQueryGraph path;
  uint32_t edge_mask = 0;
  double cost = 0.0;
};

/// Enumerates all node-simple paths from `start` (a specific node) to
/// `pivot` via DFS over the query graph.
void EnumeratePaths(const QueryGraph& query, int start, int pivot,
                    double avg_degree, size_t n_hat,
                    std::vector<CandidatePath>* out) {
  struct HalfEdge {
    int to;
    int edge_index;
  };
  std::vector<std::vector<HalfEdge>> adj(query.NumNodes());
  for (size_t i = 0; i < query.NumEdges(); ++i) {
    const QueryEdge& e = query.edge(static_cast<int>(i));
    adj[static_cast<size_t>(e.from)].push_back({e.to, static_cast<int>(i)});
    adj[static_cast<size_t>(e.to)].push_back({e.from, static_cast<int>(i)});
  }

  std::vector<bool> on_path(query.NumNodes(), false);
  SubQueryGraph current;
  current.node_seq.push_back(start);
  on_path[static_cast<size_t>(start)] = true;

  // Recursive DFS; query graphs are tiny (<= 20 edges), so depth is bounded.
  std::function<void(int)> dfs = [&](int u) {
    if (u == pivot) {
      // The pivot always terminates a path (path graphs end at the pivot).
      CandidatePath cand;
      cand.path = current;
      for (int ei : current.edge_seq) cand.edge_mask |= 1u << ei;
      cand.cost = std::pow(std::max(avg_degree, 2.0),
                           static_cast<double>(n_hat * current.Length()));
      out->push_back(std::move(cand));
      return;
    }
    for (const HalfEdge& he : adj[static_cast<size_t>(u)]) {
      if (on_path[static_cast<size_t>(he.to)]) continue;
      current.node_seq.push_back(he.to);
      current.edge_seq.push_back(he.edge_index);
      on_path[static_cast<size_t>(he.to)] = true;
      dfs(he.to);
      on_path[static_cast<size_t>(he.to)] = false;
      current.node_seq.pop_back();
      current.edge_seq.pop_back();
    }
  };
  dfs(start);
}

/// Outcome of the cover search for one pivot.
enum class CoverOutcome {
  kFound,
  kNoCover,   ///< no edge-disjoint specific-to-pivot path cover exists
  kOverflow,  ///< covers exist, but each one's Eq. 1 cost overflows a double
};

/// The refusal when covers exist but n̂ makes every cost +inf: the DP can
/// rank none of them, and n̂ is what the caller can change.
Status NHatOverflowStatus(size_t n_hat) {
  return Status::InvalidArgument(StrFormat(
      "n_hat %zu is too large: the Eq. 1 cost of every full cover "
      "(max(avg degree, 2)^(n_hat * path length) per path) overflows a "
      "double",
      n_hat));
}

/// Finds the min-cost edge-disjoint path cover for one pivot via DP over the
/// covered-edge bitmask (the "dynamic programming" of Section III-A).
CoverOutcome CoverForPivot(const QueryGraph& query, int pivot,
                           const DecomposeOptions& options,
                           Decomposition* out) {
  const size_t num_edges = query.NumEdges();
  KG_CHECK(num_edges <= 20);  // queries are small by construction
  std::vector<CandidatePath> candidates;
  for (int s : query.SpecificNodes()) {
    EnumeratePaths(query, s, pivot, options.avg_degree, options.n_hat,
                   &candidates);
  }
  if (candidates.empty()) return CoverOutcome::kNoCover;

  const uint32_t full = (num_edges == 32) ? 0xffffffffu
                                          : ((1u << num_edges) - 1);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dp(full + 1, inf);
  std::vector<int> choice(full + 1, -1);   // candidate used to reach mask
  std::vector<uint32_t> parent(full + 1, 0);
  // Masks some disjoint path set covers, at any cost: it tells a query with
  // no cover from one whose every cover costs +inf.
  std::vector<bool> reached(full + 1, false);
  dp[0] = 0.0;
  reached[0] = true;
  for (uint32_t mask = 0; mask <= full; ++mask) {
    if (!reached[mask] || mask == full) continue;
    // Lowest uncovered edge must be covered by the next path; this canonical
    // ordering makes each cover enumerated exactly once.
    uint32_t lowest = 0;
    while (mask & (1u << lowest)) ++lowest;
    for (size_t c = 0; c < candidates.size(); ++c) {
      const CandidatePath& cand = candidates[c];
      if (!(cand.edge_mask & (1u << lowest))) continue;
      if (cand.edge_mask & mask) continue;  // overlaps covered edges
      uint32_t next = mask | cand.edge_mask;
      reached[next] = true;
      double cost = dp[mask] + cand.cost;
      if (cost < dp[next]) {
        dp[next] = cost;
        choice[next] = static_cast<int>(c);
        parent[next] = mask;
      }
    }
  }
  if (dp[full] == inf) {
    return reached[full] ? CoverOutcome::kOverflow : CoverOutcome::kNoCover;
  }

  out->pivot = pivot;
  out->cost = dp[full];
  out->subqueries.clear();
  uint32_t mask = full;
  while (mask != 0) {
    KG_CHECK(choice[mask] >= 0);
    out->subqueries.push_back(candidates[static_cast<size_t>(choice[mask])].path);
    mask = parent[mask];
  }
  std::reverse(out->subqueries.begin(), out->subqueries.end());
  return CoverOutcome::kFound;
}

}  // namespace

Result<Decomposition> DecomposeQueryForPivot(const QueryGraph& query,
                                             int pivot,
                                             const DecomposeOptions& options) {
  KG_RETURN_NOT_OK(query.Validate());
  if (query.NumEdges() > 20) {
    return Status::InvalidArgument("query graphs above 20 edges unsupported");
  }
  if (pivot < 0 || pivot >= static_cast<int>(query.NumNodes()) ||
      query.node(pivot).is_specific()) {
    return Status::InvalidArgument("pivot must be a target node");
  }
  Decomposition d;
  const CoverOutcome outcome = CoverForPivot(query, pivot, options, &d);
  if (outcome == CoverOutcome::kOverflow) {
    return NHatOverflowStatus(options.n_hat);
  }
  if (outcome == CoverOutcome::kNoCover) {
    return Status::InvalidArgument(
        "pivot admits no full cover by specific-to-pivot paths");
  }
  return d;
}

Result<Decomposition> DecomposeQuery(const QueryGraph& query,
                                     const DecomposeOptions& options) {
  KG_RETURN_NOT_OK(query.Validate());
  if (query.NumEdges() > 20) {
    return Status::InvalidArgument("query graphs above 20 edges unsupported");
  }

  std::vector<Decomposition> feasible;
  bool overflowed = false;
  for (int pivot : query.TargetNodes()) {
    Decomposition d;
    const CoverOutcome outcome = CoverForPivot(query, pivot, options, &d);
    if (outcome == CoverOutcome::kFound) feasible.push_back(std::move(d));
    overflowed |= outcome == CoverOutcome::kOverflow;
  }
  if (feasible.empty()) {
    if (overflowed) return NHatOverflowStatus(options.n_hat);
    return Status::InvalidArgument(
        "no pivot admits a full cover by specific-to-pivot paths");
  }

  if (options.strategy == PivotStrategy::kRandom) {
    Rng rng(options.seed);
    return feasible[rng.UniformIndex(feasible.size())];
  }
  // kMinCost: Eq. 1.
  size_t best = 0;
  for (size_t i = 1; i < feasible.size(); ++i) {
    if (feasible[i].cost < feasible[best].cost) best = i;
  }
  return feasible[best];
}

}  // namespace kgsearch
