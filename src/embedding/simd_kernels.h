// Compatibility name: the embedding module has no vector kernels. Every
// similarity is the exact double-accumulated scalar dot in PredicateSpace
// (embedding/predicate_space.h). perfbench/ still stamps KernelBackend()
// into its records and changes only together with the benchmark.
#ifndef KGSEARCH_EMBEDDING_SIMD_KERNELS_H_
#define KGSEARCH_EMBEDDING_SIMD_KERNELS_H_

namespace kgsearch {
namespace simd {

/// Always "scalar".
inline const char* KernelBackend() { return "scalar"; }

}  // namespace simd
}  // namespace kgsearch

#endif  // KGSEARCH_EMBEDDING_SIMD_KERNELS_H_
