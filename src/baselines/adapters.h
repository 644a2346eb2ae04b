// GraphQueryMethod adapters over the paper's own engine (SGQ and TBQ), so
// the evaluation harness can run every method through one interface.
#ifndef KGSEARCH_BASELINES_ADAPTERS_H_
#define KGSEARCH_BASELINES_ADAPTERS_H_

#include <string>
#include <utility>

#include "baselines/method.h"
#include "core/engine.h"

namespace kgsearch {

/// SGQ (Section V) or TBQ (Section VI), as `options.mode` says, behind the
/// common method interface.
class SgqMethod : public GraphQueryMethod {
 public:
  SgqMethod(MethodContext context, QueryOptions options,
            std::string label = "SGQ");

  std::string name() const override { return label_; }
  Result<std::vector<NodeId>> QueryTopK(const QueryGraph& query,
                                        int answer_node,
                                        size_t k) const override;

  /// Adjusts the TBQ time bound (the harness derives it from SGQ's
  /// measured time per query).
  void set_time_bound_micros(int64_t micros) {
    options_.time_bound_micros = micros;
  }

  const SgqEngine& engine() const { return engine_; }

 private:
  std::string label_;
  SgqEngine engine_;
  QueryOptions options_;
};

/// TBQ behind the common method interface; the label carries the
/// configured time bound (e.g. "TBQ-0.9" for 90% of SGQ's time).
class TbqMethod : public SgqMethod {
 public:
  TbqMethod(std::string label, MethodContext context,
            TimeBoundedOptions options)
      : SgqMethod(context, options, std::move(label)) {}
};

}  // namespace kgsearch

#endif  // KGSEARCH_BASELINES_ADAPTERS_H_
