// Serving demo: one KgSession multiplexing a burst of concurrent SGQ and
// TBQ requests over its shared thread pool, then reporting the dataset's
// serving counters — the interactive-engine deployment shape the paper
// targets (many users, bounded response times), now entirely behind the
// public API facade.
//
//   $ ./example_service_demo [--threads N] [--clients C] [--rounds R]
//                            [--deadline-ms D] [--max-in-flight M]
//                            [--max-queued Q]
//
// Each client thread behaves like one user session: it fires the four Q117
// query variants synchronously, plus an async time-bounded variant, and
// checks every answer against the single-user reference. With
// --deadline-ms every request carries a hard per-request deadline, and
// with --max-in-flight/--max-queued the dataset's service sheds overload
// with ResourceExhausted instead of queueing it — the demo's counters then
// show the rejected/deadline-exceeded traffic alongside the served
// traffic, and a request is only counted as a mismatch when it *succeeds*
// with the wrong answer.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "api/session.h"
#include "gen/car_domain.h"

using namespace kgsearch;

namespace {

/// The Q117 request in public-API form; variants per MakeQ117Variant.
QueryRequest Q117Request(int variant, QueryMode mode) {
  QueryRequest request;
  request.dataset = "car";
  request.mode = mode;
  request.query_graph = MakeQ117Variant(variant);
  request.options.k = 10;
  if (mode == QueryMode::kTbq) {
    request.options.time_bound_micros = 20'000;  // 20ms interactive budget
  }
  return request;
}

std::vector<uint32_t> AnswerIds(const QueryResponse& response) {
  std::vector<uint32_t> out;
  out.reserve(response.answers.size());
  for (const AnswerDto& a : response.answers) out.push_back(a.id);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  size_t threads = std::thread::hardware_concurrency();
  size_t clients = 8;
  size_t rounds = 3;
  int64_t deadline_ms = 0;
  size_t max_in_flight = 0;
  size_t max_queued = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      threads = static_cast<size_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      clients = static_cast<size_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      rounds = static_cast<size_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      deadline_ms = std::atoll(argv[i + 1]);
      if (deadline_ms < 0) {
        std::fprintf(stderr, "--deadline-ms must be >= 0\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--max-in-flight") == 0) {
      max_in_flight = static_cast<size_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--max-queued") == 0) {
      max_queued = static_cast<size_t>(std::atoi(argv[i + 1]));
    }
  }

  auto dataset = MakeCarDomainDataset(300, 117);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }

  KgSessionOptions soptions;
  soptions.num_threads = threads;
  soptions.max_in_flight = max_in_flight;
  soptions.max_queued = max_queued;
  KgSession session(soptions);
  GeneratedDataset& ds = *dataset.ValueOrDie();
  Status registered =
      session.RegisterDataset("car", std::move(ds.graph), std::move(ds.space),
                              std::move(ds.library));
  if (!registered.ok()) {
    std::fprintf(stderr, "register: %s\n", registered.ToString().c_str());
    return 1;
  }
  for (const DatasetInfo& info : session.ListDatasets()) {
    std::printf("dataset '%s': %zu nodes, %zu edges\n", info.name.c_str(),
                info.nodes, info.edges);
  }
  std::printf("session up: %zu pool threads, %zu clients x %zu rounds\n\n",
              session.num_threads(), clients, rounds);

  // Single-user reference answers for the four query variants.
  std::vector<std::vector<uint32_t>> reference;
  for (int variant = 1; variant <= 4; ++variant) {
    auto r = session.Query(Q117Request(variant, QueryMode::kSgq));
    if (!r.ok()) {
      std::fprintf(stderr, "variant %d: %s\n", variant,
                   r.status().ToString().c_str());
      return 1;
    }
    const QueryResponse& response = r.ValueOrDie();
    reference.push_back(AnswerIds(response));
    std::printf("Q117 variant %d: %zu answers, top answer %s\n", variant,
                response.answers.size(),
                response.answers.empty() ? "-"
                                         : response.answers[0].name.c_str());
  }

  // Every client request carries the configured deadline; a shed request
  // (rejected by admission or expired) is legitimate overload behavior,
  // not a correctness failure.
  auto make_request = [deadline_ms](int variant, QueryMode mode) {
    QueryRequest request = Q117Request(variant, mode);
    request.deadline_ms = deadline_ms;
    return request;
  };
  auto is_shed = [](const Status& status) {
    return status.code() == StatusCode::kResourceExhausted ||
           status.code() == StatusCode::kDeadlineExceeded;
  };

  std::vector<std::thread> sessions;
  std::vector<size_t> mismatches(clients, 0);
  std::vector<size_t> shed(clients, 0);
  std::vector<size_t> errors(clients, 0);
  std::vector<size_t> tbq_answer_counts(clients, 0);
  for (size_t c = 0; c < clients; ++c) {
    sessions.emplace_back([&, c] {
      for (size_t round = 0; round < rounds; ++round) {
        // An async TBQ request rides along with the synchronous SGQ traffic.
        auto tbq_future =
            session.Submit(make_request(3, QueryMode::kTbq));
        for (int variant = 1; variant <= 4; ++variant) {
          auto r = session.Query(make_request(variant, QueryMode::kSgq));
          if (r.ok()) {
            if (AnswerIds(r.ValueOrDie()) !=
                reference[static_cast<size_t>(variant - 1)]) {
              ++mismatches[c];
            }
          } else if (is_shed(r.status())) {
            ++shed[c];
          } else {
            ++errors[c];
          }
        }
        auto tbq = tbq_future.get();
        if (tbq.ok()) {
          tbq_answer_counts[c] += tbq.ValueOrDie().answers.size();
        } else if (is_shed(tbq.status())) {
          ++shed[c];
        } else {
          ++errors[c];
        }
      }
    });
  }
  for (auto& s : sessions) s.join();

  size_t total_mismatches = 0, total_shed = 0, total_errors = 0;
  for (size_t m : mismatches) total_mismatches += m;
  for (size_t s : shed) total_shed += s;
  for (size_t e : errors) total_errors += e;
  std::printf("\nall sessions done; answer mismatches vs. reference: %zu "
              "(shed by overload control: %zu, other errors: %zu)\n",
              total_mismatches, total_shed, total_errors);

  auto stats_result = session.Stats("car");
  if (!stats_result.ok()) {
    std::fprintf(stderr, "stats: %s\n",
                 stats_result.status().ToString().c_str());
    return 1;
  }
  const ServiceStatsSnapshot stats = stats_result.ValueOrDie();
  std::printf("\n-- serving counters (dataset 'car') --\n");
  std::printf("queries total      %llu (SGQ %llu, TBQ %llu; failed %llu)\n",
              static_cast<unsigned long long>(stats.queries_total),
              static_cast<unsigned long long>(stats.sgq_queries),
              static_cast<unsigned long long>(stats.tbq_queries),
              static_cast<unsigned long long>(stats.queries_failed));
  std::printf("overload control   rejected %llu, deadline-exceeded %llu, "
              "cancelled %llu\n",
              static_cast<unsigned long long>(stats.queries_rejected),
              static_cast<unsigned long long>(
                  stats.queries_deadline_exceeded),
              static_cast<unsigned long long>(stats.queries_cancelled));
  std::printf("qps (lifetime avg) %.1f over %.2fs uptime\n", stats.qps,
              stats.uptime_seconds);
  std::printf("latency            p50 %.2fms  p95 %.2fms  max %.2fms\n",
              stats.latency_p50_ms, stats.latency_p95_ms,
              stats.latency_max_ms);
  std::printf("decomposition cache %.0f%% hit rate (%llu hits)\n",
              100.0 * stats.decomposition_cache_hit_rate(),
              static_cast<unsigned long long>(stats.decomposition_cache_hits));
  std::printf("matcher cache       %.0f%% hit rate (%llu hits)\n",
              100.0 * stats.matcher_cache_hit_rate(),
              static_cast<unsigned long long>(stats.matcher_cache_hits));
  std::printf("queue depth        %zu, in flight %zu\n", stats.queue_depth,
              stats.in_flight);
  return total_mismatches == 0 && total_errors == 0 ? 0 : 1;
}
