// The Q117 car-domain dataset (gen/car_domain.h) served by a KgSession, for
// the serving tests that drive the asynchronous path, KgSession::Submit:
// registration, Q117 requests as explicit query graphs, and order-sensitive
// answer fingerprints to compare against serial SgqEngine execution.
#ifndef KGSEARCH_TESTS_TESTING_Q117_SESSION_H_
#define KGSEARCH_TESTS_TESTING_Q117_SESSION_H_

#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "gen/car_domain.h"

namespace kgsearch {
namespace testing_fixture {

/// Generates the car-domain dataset (deterministic for the seed) and
/// registers it under `name`.
inline Status RegisterCarDomain(KgSession* session, size_t num_cars,
                                const std::string& name = "cars") {
  auto generated = MakeCarDomainDataset(num_cars, 117);
  if (!generated.ok()) return generated.status();
  GeneratedDataset& ds = *generated.ValueOrDie();
  return session->RegisterDataset(name, std::move(ds.graph),
                                  std::move(ds.space), std::move(ds.library));
}

/// A serial (threads = 1) engine over the session's own copy of `dataset`.
inline SgqEngine SerialEngine(const KgSession& session,
                              const std::string& dataset = "cars") {
  return SgqEngine(session.graph(dataset), session.space(dataset),
                   session.library(dataset));
}

/// An SGQ request for Q117 variant `variant` at top-`k`.
inline QueryRequest Q117Request(int variant, size_t k = 10,
                                const std::string& dataset = "cars") {
  QueryRequest request;
  request.dataset = dataset;
  request.query_graph = MakeQ117Variant(variant);
  request.options.k = k;
  return request;
}

/// The answer ids of a response, in rank order (QueryResult::AnswerIds's
/// counterpart).
inline std::vector<NodeId> AnswerIds(const QueryResponse& response) {
  std::vector<NodeId> ids;
  ids.reserve(response.answers.size());
  for (const AnswerDto& a : response.answers) ids.push_back(a.id);
  return ids;
}

/// (pivot id, score) in rank order.
using AnswerFingerprint = std::vector<std::pair<NodeId, double>>;

inline AnswerFingerprint Fingerprint(const QueryResult& result) {
  AnswerFingerprint fp;
  fp.reserve(result.matches.size());
  for (const FinalMatch& m : result.matches) {
    fp.emplace_back(m.pivot_match, m.score);
  }
  return fp;
}

inline AnswerFingerprint Fingerprint(const QueryResponse& response) {
  AnswerFingerprint fp;
  fp.reserve(response.answers.size());
  for (const AnswerDto& a : response.answers) fp.emplace_back(a.id, a.score);
  return fp;
}

}  // namespace testing_fixture
}  // namespace kgsearch

#endif  // KGSEARCH_TESTS_TESTING_Q117_SESSION_H_
