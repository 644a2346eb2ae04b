#include "embedding/predicate_space.h"

#include <algorithm>
#include <sstream>

#include "util/string_util.h"
#include "util/topk_heap.h"

namespace kgsearch {

PredicateSpace::PredicateSpace(std::vector<FloatVec> vectors,
                               std::vector<std::string> names)
    : names_(std::move(names)) {
  KG_CHECK(vectors.size() == names_.size());
  for (FloatVec& v : vectors) NormalizeInPlace(&v);
  store_ = VectorStore::FromVectors(vectors);
}

PredicateSpace PredicateSpace::FromTransE(const KnowledgeGraph& graph,
                                          const TransEEmbedding& embedding) {
  KG_CHECK(embedding.predicate.size() == graph.NumPredicates());
  std::vector<std::string> names;
  names.reserve(graph.NumPredicates());
  for (PredicateId p = 0; p < graph.NumPredicates(); ++p) {
    names.emplace_back(graph.PredicateName(p));
  }
  return PredicateSpace(embedding.predicate, std::move(names));
}

PredicateSpace PredicateSpace::FromStore(VectorStore store,
                                         std::vector<std::string> names) {
  KG_CHECK(store.size() == names.size());
  PredicateSpace space;
  space.store_ = std::move(store);
  space.names_ = std::move(names);
  return space;
}

double PredicateSpace::Cosine(PredicateId a, PredicateId b) const {
  KG_CHECK(a < store_.size() && b < store_.size());
  if (a == b) return 1.0;
  // Rows are unit-normalized at construction, so the dot is the cosine.
  return Dot(store_.Row(a), store_.Row(b), store_.dim());
}

void PredicateSpace::WeightRow(PredicateId q, size_t count,
                               double* out) const {
  KG_CHECK(q < store_.size() && count <= store_.size());
  const float* qrow = store_.Row(q);
  const size_t dim = store_.dim();
  for (size_t p = 0; p < count; ++p) {
    double c = (p == q) ? 1.0 : Dot(qrow, store_.Row(p), dim);
    if (c < kMinWeight) {
      c = kMinWeight;
    } else if (c > 1.0) {
      c = 1.0;
    }
    out[p] = c;
  }
}

std::vector<SimilarPredicate> PredicateSpace::TopSimilar(PredicateId p,
                                                         size_t n) const {
  KG_CHECK(p < store_.size());
  const size_t keep = std::min(n, store_.size() - 1);
  if (keep == 0) return {};

  // SimilarityScan visits ids in ascending order, so TopKHeap's
  // insertion-order tie break equals the (similarity desc, id asc) order.
  TopKHeap<PredicateId> top(keep);
  SimilarityScan(p, [&top](PredicateId q, double s) { top.Push(s, q); });

  std::vector<SimilarPredicate> out;
  out.reserve(keep);
  for (auto& entry : top.TakeSortedDescending()) {
    out.push_back(SimilarPredicate{entry.second, entry.first});
  }
  return out;
}

void PredicateSpace::SimilarityScan(
    PredicateId p, const std::function<void(PredicateId, double)>& fn) const {
  KG_CHECK(p < store_.size());
  const float* qrow = store_.Row(p);
  const size_t dim = store_.dim();
  for (PredicateId q = 0; q < store_.size(); ++q) {
    if (q == p) continue;
    fn(q, Dot(qrow, store_.Row(q), dim));
  }
}

std::string PredicateSpace::Serialize() const {
  std::ostringstream out;
  for (size_t i = 0; i < store_.size(); ++i) {
    out << names_[i] << ' ' << store_.dim();
    const float* row = store_.Row(i);
    for (size_t j = 0; j < store_.dim(); ++j) out << ' ' << row[j];
    out << '\n';
  }
  return out.str();
}

Result<PredicateSpace> PredicateSpace::Deserialize(
    std::string_view text, const KnowledgeGraph* graph) {
  std::vector<FloatVec> vectors;
  std::vector<std::string> names;
  int lineno = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = (eol == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() : eol + 1;
    ++lineno;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    std::istringstream in{std::string(trimmed)};
    std::string name;
    size_t dim = 0;
    if (!(in >> name >> dim) || dim == 0) {
      return Status::ParseError(
          StrFormat("line %d: expected 'name dim v...'", lineno));
    }
    if (!vectors.empty() && dim != vectors.front().size()) {
      return Status::ParseError(
          StrFormat("line %d: dimension %zu does not match first line's %zu",
                    lineno, dim, vectors.front().size()));
    }
    FloatVec v(dim);
    for (size_t i = 0; i < dim; ++i) {
      if (!(in >> v[i])) {
        return Status::ParseError(
            StrFormat("line %d: expected %zu vector components", lineno, dim));
      }
    }
    names.push_back(std::move(name));
    vectors.push_back(std::move(v));
  }
  if (graph == nullptr) {
    return PredicateSpace(std::move(vectors), std::move(names));
  }
  // Reorder to the graph's predicate ids; every graph predicate must appear.
  std::vector<FloatVec> ordered(graph->NumPredicates());
  std::vector<std::string> ordered_names(graph->NumPredicates());
  std::vector<bool> seen(graph->NumPredicates(), false);
  for (size_t i = 0; i < names.size(); ++i) {
    PredicateId p = graph->FindPredicate(names[i]);
    if (p == kInvalidSymbol) {
      return Status::ParseError("unknown predicate in space: " + names[i]);
    }
    ordered[p] = std::move(vectors[i]);
    ordered_names[p] = names[i];
    seen[p] = true;
  }
  for (PredicateId p = 0; p < graph->NumPredicates(); ++p) {
    if (!seen[p]) {
      return Status::ParseError(
          "predicate missing from space: " +
          std::string(graph->PredicateName(p)));
    }
  }
  return PredicateSpace(std::move(ordered), std::move(ordered_names));
}

}  // namespace kgsearch
