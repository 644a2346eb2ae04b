#include "baselines/adapters.h"

namespace kgsearch {

SgqMethod::SgqMethod(MethodContext context, QueryOptions options,
                     std::string label)
    : label_(std::move(label)),
      engine_(context.graph, context.space, context.library),
      options_(options) {}

Result<std::vector<NodeId>> SgqMethod::QueryTopK(const QueryGraph& query,
                                                 int answer_node,
                                                 size_t k) const {
  QueryOptions options = options_;
  options.k = k;
  Result<QueryResult> r = engine_.Query(query, options);
  if (!r.ok()) return r.status();
  const QueryResult& result = r.ValueOrDie();
  return ExtractAnswers(result.matches, result.decomposition, answer_node);
}

}  // namespace kgsearch
