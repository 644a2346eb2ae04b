// Concurrency stress: many threads firing queries through one QueryService
// over one shared executor, with every concurrent result compared against
// serial SgqEngine execution. This binary is the primary subject of the CI
// ThreadSanitizer job.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "gen/car_domain.h"
#include "service/query_service.h"

namespace kgsearch {
namespace {

class ServiceStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = MakeCarDomainDataset(150, 117);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    dataset_ = std::move(result).ValueOrDie().release();
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static GeneratedDataset* dataset_;
};

GeneratedDataset* ServiceStressTest::dataset_ = nullptr;

/// The mixed per-thread workload: every Q117 variant at two different ks.
struct WorkItem {
  int variant;
  size_t k;
};

std::vector<WorkItem> MakeWorkload() {
  std::vector<WorkItem> items;
  for (int variant = 1; variant <= 4; ++variant) {
    items.push_back({variant, 10});
    items.push_back({variant, 40});
  }
  return items;
}

EngineOptions OptionsFor(const WorkItem& item) {
  EngineOptions options;
  options.k = item.k;
  return options;
}

/// Compact, order-sensitive fingerprint of a result for equality checks.
std::vector<std::pair<NodeId, double>> Fingerprint(const QueryResult& r) {
  std::vector<std::pair<NodeId, double>> fp;
  fp.reserve(r.matches.size());
  for (const FinalMatch& m : r.matches) {
    fp.emplace_back(m.pivot_match, m.score);
  }
  return fp;
}

// N threads x M queries through one service; every result must equal the
// serial SgqEngine reference bit-for-bit (pivot ids and scores, in rank
// order). Satisfies the ">= 8 concurrent in-flight queries" criterion:
// 8 client threads issue synchronous queries simultaneously.
TEST_F(ServiceStressTest, ConcurrentResultsIdenticalToSerialExecution) {
  // Serial reference, computed single-threaded (threads = 1).
  SgqEngine serial(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  const std::vector<WorkItem> workload = MakeWorkload();
  std::map<std::pair<int, size_t>, std::vector<std::pair<NodeId, double>>>
      reference;
  for (const WorkItem& item : workload) {
    EngineOptions options = OptionsFor(item);
    options.threads = 1;
    auto r = serial.Query(MakeQ117Variant(item.variant), options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto& ref_entry = reference[{item.variant, item.k}];
    ref_entry = Fingerprint(r.ValueOrDie());
    ASSERT_FALSE(ref_entry.empty());
  }

  QueryServiceOptions soptions;
  soptions.num_threads = 4;
  QueryService service(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library, soptions);

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 3;  // round 1 cold caches, rounds 2-3 warm
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t w = 0; w < workload.size(); ++w) {
          // Stagger start positions so threads hit different queries.
          const WorkItem& item = workload[(w + t) % workload.size()];
          auto r = service.Query(MakeQ117Variant(item.variant),
                                 OptionsFor(item));
          if (!r.ok()) {
            failures.fetch_add(1);
            continue;
          }
          // .at(): concurrent readers must never mutate the shared map.
          if (Fingerprint(r.ValueOrDie()) !=
              reference.at({item.variant, item.k})) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.queries_total, kThreads * kRounds * MakeWorkload().size());
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

// A full burst of async submissions (4x more than pool threads) must all
// resolve with serial-identical results.
TEST_F(ServiceStressTest, AsyncBurstResolvesEveryFutureCorrectly) {
  SgqEngine serial(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  QueryServiceOptions soptions;
  soptions.num_threads = 4;
  QueryService service(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library, soptions);

  const std::vector<WorkItem> workload = MakeWorkload();
  std::vector<std::future<Result<QueryResult>>> futures;
  for (size_t rep = 0; rep < 2; ++rep) {
    for (const WorkItem& item : workload) {
      futures.push_back(
          service.Submit(MakeQ117Variant(item.variant), OptionsFor(item)));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const WorkItem& item = workload[i % workload.size()];
    auto r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EngineOptions options = OptionsFor(item);
    options.threads = 1;
    auto ref = serial.Query(MakeQ117Variant(item.variant), options);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(Fingerprint(r.ValueOrDie()), Fingerprint(ref.ValueOrDie()))
        << "variant " << item.variant << " k " << item.k;
  }
}

// Mixed SGQ + generously-bounded TBQ traffic: TBQ under a bound that never
// binds is deterministic even under concurrency (every search runs to
// exhaustion), so all concurrent TBQ answers must agree with a serial TBQ
// reference.
TEST_F(ServiceStressTest, MixedSgqTbqTrafficStaysDeterministic) {
  QueryServiceOptions soptions;
  soptions.num_threads = 4;
  QueryService service(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library, soptions);

  TimeBoundedOptions toptions;
  toptions.k = 20;
  toptions.time_bound_micros = 1'000'000'000;
  toptions.per_match_assembly_micros = 0.5;

  SgqEngine serial_tbq(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library);
  TimeBoundedOptions serial_opts = toptions;
  serial_opts.threads = 1;
  auto tbq_ref = serial_tbq.Query(MakeQ117Variant(4), serial_opts);
  ASSERT_TRUE(tbq_ref.ok());
  ASSERT_FALSE(tbq_ref.ValueOrDie().stopped_by_time);
  const std::vector<NodeId> tbq_answers = tbq_ref.ValueOrDie().AnswerIds();

  EngineOptions sgq_options;
  sgq_options.k = 20;
  SgqEngine serial_sgq(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library);
  EngineOptions sgq_serial = sgq_options;
  sgq_serial.threads = 1;
  auto sgq_ref = serial_sgq.Query(MakeQ117Variant(4), sgq_serial);
  ASSERT_TRUE(sgq_ref.ok());
  const std::vector<NodeId> sgq_answers = sgq_ref.ValueOrDie().AnswerIds();

  std::vector<std::future<Result<QueryResult>>> sgq_futures;
  std::vector<std::future<Result<QueryResult>>> tbq_futures;
  for (int i = 0; i < 8; ++i) {
    sgq_futures.push_back(service.Submit(MakeQ117Variant(4), sgq_options));
    tbq_futures.push_back(
        service.Submit(MakeQ117Variant(4), toptions));
  }
  for (auto& f : sgq_futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie().AnswerIds(), sgq_answers);
  }
  for (auto& f : tbq_futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.ValueOrDie().stopped_by_time);
    EXPECT_EQ(r.ValueOrDie().AnswerIds(), tbq_answers);
  }
}

}  // namespace
}  // namespace kgsearch
