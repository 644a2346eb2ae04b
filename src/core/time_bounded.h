// Compatibility aliases: time-bounded queries run on SgqEngine
// (core/engine.h) and return QueryResult. perfbench/ still compiles against
// these names and changes only together with the benchmark; new code uses
// SgqEngine and QueryResult directly.
#ifndef KGSEARCH_CORE_TIME_BOUNDED_H_
#define KGSEARCH_CORE_TIME_BOUNDED_H_

#include "core/engine.h"

namespace kgsearch {

using TbqEngine = SgqEngine;
using TimeBoundedResult = QueryResult;

}  // namespace kgsearch

#endif  // KGSEARCH_CORE_TIME_BOUNDED_H_
