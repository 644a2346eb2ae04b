#include "embedding/predicate_space.h"

#include <algorithm>
#include <sstream>

#include "embedding/simd_kernels.h"
#include "util/string_util.h"
#include "util/topk_heap.h"

namespace kgsearch {

namespace {

/// Exact dot over two store rows at logical dimension: the same index
/// order and double accumulation as vector_math::Dot on FloatVecs, so
/// scores computed here are bitwise equal to the pre-SoA representation.
double ExactDot(const float* a, const float* b, size_t dim) {
  double s = 0.0;
  for (size_t i = 0; i < dim; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

}  // namespace

void PredicateSpace::InitDerived() {
  KG_CHECK(store_.size() == names_.size());
  norms_ = ComputeRowNormsL2(store_);
  max_norm_ = 0.0;
  for (float n : norms_) {
    max_norm_ = std::max(max_norm_, static_cast<double>(n));
  }
}

PredicateSpace::PredicateSpace(std::vector<FloatVec> vectors,
                               std::vector<std::string> names)
    : names_(std::move(names)) {
  KG_CHECK(vectors.size() == names_.size());
  for (FloatVec& v : vectors) NormalizeInPlace(&v);
  store_ = VectorStore::FromVectors(vectors);
  InitDerived();
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
  space.InitDerived();
  return space;
}

double PredicateSpace::Cosine(PredicateId a, PredicateId b) const {
  KG_CHECK(a < store_.size() && b < store_.size());
  if (a == b) return 1.0;
  // Rows are unit-normalized at construction, so the dot is the cosine.
  return ExactDot(store_.Row(a), store_.Row(b), store_.dim());
}

void PredicateSpace::WeightRow(PredicateId q, size_t count,
                               double* out) const {
  KG_CHECK(q < store_.size() && count <= store_.size());
  const float* qrow = store_.Row(q);
  const size_t dim = store_.dim();
  for (size_t p = 0; p < count; ++p) {
    double c = (p == q) ? 1.0 : ExactDot(qrow, store_.Row(p), dim);
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
  const size_t total = store_.size();
  const size_t keep = std::min(n, total - 1);
  if (keep == 0) return {};

  // Float selection pass: one batched kernel scan over the flat block.
  std::vector<float> scores(total);
  simd::DotBatch(store_.Row(p), store_.data(), total, store_.stride(),
                 scores.data());
  TopKHeap<PredicateId> select(keep);
  for (PredicateId q = 0; q < total; ++q) {
    if (q == p) continue;
    select.Push(static_cast<double>(scores[q]), q);
  }

  // Every exact-top-k member's float score is within DotErrorBound of its
  // exact score, and the float kth score is within the same bound of the
  // exact kth score — so keeping everything above (float kth − 2·bound)
  // provably retains the exact answer. The exact re-rank then restores
  // bit-identical scores and ordering.
  const double margin =
      simd::DotErrorBound(store_.dim(), norms_[p], max_norm_);
  const double threshold = select.MinScore() - 2.0 * margin;

  // Pushing in ascending id order makes TopKHeap's insertion-order tie
  // break equal the historical (similarity desc, id asc) comparator.
  TopKHeap<PredicateId> exact(keep);
  for (PredicateId q = 0; q < total; ++q) {
    if (q == p) continue;
    if (static_cast<double>(scores[q]) < threshold) continue;
    exact.Push(Cosine(p, q), q);
  }

  std::vector<SimilarPredicate> out;
  out.reserve(keep);
  for (auto& entry : exact.TakeSortedDescending()) {
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
    fn(q, ExactDot(qrow, store_.Row(q), dim));
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
