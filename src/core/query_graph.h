// Query graph model (Definition 2) and its decomposition into path-shaped
// sub-query graphs (Definition 6, Eq. 1).
#ifndef KGSEARCH_CORE_QUERY_GRAPH_H_
#define KGSEARCH_CORE_QUERY_GRAPH_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace kgsearch {

/// A query node: target nodes know only their type; specific nodes know
/// type and name (Section III-A).
struct QueryNode {
  std::string type;
  std::string name;  ///< empty for target nodes

  bool is_specific() const { return !name.empty(); }
  bool operator==(const QueryNode&) const = default;
};

/// A query edge with a predicate label (undirected for matching purposes).
struct QueryEdge {
  int from = -1;
  int to = -1;
  std::string predicate;

  bool operator==(const QueryEdge&) const = default;
};

/// A small labeled graph expressing the user's intent.
class QueryGraph {
 public:
  /// Adds a target node (unknown entity; only the type is known).
  int AddTargetNode(std::string type) {
    nodes_.push_back(QueryNode{std::move(type), ""});
    return static_cast<int>(nodes_.size()) - 1;
  }

  /// Adds a specific node (known entity; type and name known).
  int AddSpecificNode(std::string type, std::string name) {
    KG_CHECK(!name.empty());
    nodes_.push_back(QueryNode{std::move(type), std::move(name)});
    return static_cast<int>(nodes_.size()) - 1;
  }

  /// Adds an edge between two existing nodes.
  int AddEdge(int from, int to, std::string predicate) {
    KG_CHECK(from >= 0 && from < static_cast<int>(nodes_.size()));
    KG_CHECK(to >= 0 && to < static_cast<int>(nodes_.size()));
    KG_CHECK(from != to);
    edges_.push_back(QueryEdge{from, to, std::move(predicate)});
    return static_cast<int>(edges_.size()) - 1;
  }

  const std::vector<QueryNode>& nodes() const { return nodes_; }
  const std::vector<QueryEdge>& edges() const { return edges_; }
  const QueryNode& node(int i) const { return nodes_[static_cast<size_t>(i)]; }
  const QueryEdge& edge(int i) const { return edges_[static_cast<size_t>(i)]; }
  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  /// Indexes of target nodes.
  std::vector<int> TargetNodes() const {
    std::vector<int> out;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i].is_specific()) out.push_back(static_cast<int>(i));
    }
    return out;
  }
  /// Indexes of specific nodes.
  std::vector<int> SpecificNodes() const {
    std::vector<int> out;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].is_specific()) out.push_back(static_cast<int>(i));
    }
    return out;
  }

  /// Structural sanity: connected, has >= 1 specific and >= 1 target node,
  /// no isolated nodes (every node touched by an edge unless the graph is a
  /// single node).
  Status Validate() const;

  /// Structural equality (same nodes and edges, in order).
  bool operator==(const QueryGraph&) const = default;

 private:
  std::vector<QueryNode> nodes_;
  std::vector<QueryEdge> edges_;
};

/// One path-shaped sub-query graph (Definition 6): a walk through query
/// nodes from a specific node to the pivot, listed as alternating node and
/// edge indexes of the parent QueryGraph.
struct SubQueryGraph {
  std::vector<int> node_seq;  ///< size = edge_seq.size() + 1; [0] specific
  std::vector<int> edge_seq;  ///< indexes into QueryGraph::edges()

  size_t Length() const { return edge_seq.size(); }
};

/// A full decomposition: pivot target node + covering sub-query paths.
struct Decomposition {
  int pivot = -1;
  std::vector<SubQueryGraph> subqueries;
  /// Eq. 1 objective value: the estimated search space, summing
  /// max(avg degree, 2)^(n̂ * path length) over the sub-queries (raw, not
  /// log-scale).
  double cost = 0.0;
};

/// Pivot-selection strategies (Section VII-C).
enum class PivotStrategy {
  kMinCost,  ///< Eq. 1: minimize estimated search space via DP
  kRandom,   ///< baseline: first/any target node, arbitrary path cover
};

/// Options for decomposition.
struct DecomposeOptions {
  PivotStrategy strategy = PivotStrategy::kMinCost;
  /// Average KG degree; drives the per-hop branching factor in the cost.
  double avg_degree = 16.0;
  /// User-desired per-edge hop bound (n̂); scales path cost exponents.
  size_t n_hat = 4;
  /// Seed used only by kRandom.
  uint64_t seed = 42;
};

/// Decomposes `query` into sub-query path graphs intersecting at a pivot
/// (Definition 6). Fails when the query is invalid, when no full edge cover
/// by specific→pivot paths exists for any pivot, or (naming n_hat) when
/// covers exist but n̂ makes every one's Eq. 1 cost overflow a double.
Result<Decomposition> DecomposeQuery(const QueryGraph& query,
                                     const DecomposeOptions& options);

/// Decomposes `query` forcing a particular pivot target node (used by the
/// pivot-selection experiments of Section VII-C). Fails when that pivot
/// admits no full cover.
Result<Decomposition> DecomposeQueryForPivot(const QueryGraph& query,
                                             int pivot,
                                             const DecomposeOptions& options);

}  // namespace kgsearch

#endif  // KGSEARCH_CORE_QUERY_GRAPH_H_
