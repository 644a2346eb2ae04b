#include "wire.h"

#include <time.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "util/json.h"
#include "workload.h"

namespace perfbench {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

kgsearch::Result<std::unique_ptr<BenchServer>> StartBenchServer(
    const std::string& kgpack, size_t pool_threads) {
  auto bench = std::make_unique<BenchServer>();
  kgsearch::KgSessionOptions options;
  options.num_threads = pool_threads;
  bench->session = std::make_unique<kgsearch::KgSession>(options);
  kgsearch::DatasetLoadOptions load;
  load.graph_path = kgpack;

  const double cpu_start_ms = ProcessCpuMs();
  const auto start = std::chrono::steady_clock::now();
  KG_RETURN_NOT_OK(bench->session->LoadDataset(kDataset, load));
  bench->load_s = SecondsSince(start);
  bench->server = std::make_unique<kgsearch::TcpServer>(bench->session.get());
  KG_RETURN_NOT_OK(bench->server->Start());
  bench->setup_s = SecondsSince(start);
  bench->setup_cpu_s = (ProcessCpuMs() - cpu_start_ms) / 1e3;
  return bench;
}

kgsearch::Result<kgsearch::NdjsonClient> ConnectClient(
    const BenchServer& server) {
  return kgsearch::NdjsonClient::Connect("127.0.0.1", server.server->port(),
                                         /*read_timeout_ms=*/60'000);
}

kgsearch::Result<WireStats> FetchWireStats(kgsearch::NdjsonClient* client) {
  kgsearch::Result<std::string> line =
      client->Call(std::string("GET /stats/") + kDataset);
  KG_RETURN_NOT_OK(line.status());
  kgsearch::Result<kgsearch::JsonValue> json =
      kgsearch::JsonValue::Parse(line.ValueOrDie());
  KG_RETURN_NOT_OK(json.status());
  const kgsearch::JsonValue* datasets = json.ValueOrDie().Find("datasets");
  const kgsearch::JsonValue* stats =
      datasets != nullptr && datasets->is_object() ? datasets->Find(kDataset)
                                                   : nullptr;
  if (stats == nullptr || !stats->is_object()) {
    return kgsearch::Status::ParseError("stats document without dataset: " +
                                        line.ValueOrDie());
  }
  WireStats out;
  const std::pair<const char*, uint64_t*> fields[] = {
      {"decomposition_cache_hits", &out.decomposition_hits},
      {"decomposition_cache_misses", &out.decomposition_misses},
      {"matcher_cache_hits", &out.matcher_hits},
      {"matcher_cache_misses", &out.matcher_misses},
      {"matcher_cache_stale_hits", &out.matcher_stale},
  };
  for (const auto& [key, slot] : fields) {
    kgsearch::Result<uint64_t> value = kgsearch::JsonGetUint(*stats, key);
    KG_RETURN_NOT_OK(value.status());
    *slot = value.ValueOrDie();
  }
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    uint64_t ticks = 0;
    if (!(stat >> ticks)) break;
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

std::string CompilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace perfbench
