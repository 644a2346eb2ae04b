// Dense float vector helpers for embedding training and similarity.
//
// Every dot product in the library — over FloatVecs here, over VectorStore
// rows in PredicateSpace — runs the one loop in Dot(const float*, ...), so
// equal inputs give bitwise-equal results on every path.
#ifndef KGSEARCH_EMBEDDING_VECTOR_MATH_H_
#define KGSEARCH_EMBEDDING_VECTOR_MATH_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace kgsearch {

using FloatVec = std::vector<float>;

/// Dot product of two `n`-float arrays, accumulated in double in index
/// order.
inline double Dot(const float* a, const float* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

/// Dot product. Requires equal sizes.
inline double Dot(const FloatVec& a, const FloatVec& b) {
  KG_CHECK(a.size() == b.size());
  return Dot(a.data(), b.data(), a.size());
}

/// Euclidean norm.
inline double Norm(const FloatVec& a) { return std::sqrt(Dot(a, a)); }

/// Scales `a` to unit norm in place; zero vectors are left unchanged.
inline void NormalizeInPlace(FloatVec* a) {
  double n = Norm(*a);
  if (n <= 0.0) return;
  float inv = static_cast<float>(1.0 / n);
  for (float& x : *a) x *= inv;
}

/// Cosine similarity in [-1, 1]; 0 when either vector is zero.
inline double Cosine(const FloatVec& a, const FloatVec& b) {
  double na = Norm(a), nb = Norm(b);
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

/// a += scale * b.
inline void Axpy(double scale, const FloatVec& b, FloatVec* a) {
  KG_CHECK(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    (*a)[i] += static_cast<float>(scale * b[i]);
  }
}

/// Squared L2 distance of (h + r - t), the TransE score.
inline double TransEScoreL2Sq(const FloatVec& h, const FloatVec& r,
                              const FloatVec& t) {
  KG_CHECK(h.size() == r.size() && r.size() == t.size());
  double s = 0.0;
  for (size_t i = 0; i < h.size(); ++i) {
    double d = static_cast<double>(h[i]) + r[i] - t[i];
    s += d * d;
  }
  return s;
}

/// Uniform init in [-6/sqrt(dim), 6/sqrt(dim)] as in the TransE paper.
/// Templated over the generator so per-item FastRng streams work too.
template <typename RngT = Rng>
inline FloatVec RandomInitVec(size_t dim, RngT* rng) {
  double bound = 6.0 / std::sqrt(static_cast<double>(dim));
  FloatVec v(dim);
  for (float& x : v) x = static_cast<float>(rng->UniformReal(-bound, bound));
  return v;
}

/// A unit vector drawn uniformly from the sphere.
template <typename RngT = Rng>
inline FloatVec RandomUnitVec(size_t dim, RngT* rng) {
  FloatVec v(dim);
  for (float& x : v) x = static_cast<float>(rng->Normal());
  NormalizeInPlace(&v);
  return v;
}

}  // namespace kgsearch

#endif  // KGSEARCH_EMBEDDING_VECTOR_MATH_H_
