// The system under test as the benchmark drives it: a KgSession with one
// loaded kgpack dataset, served by a TcpServer on loopback, plus the few
// process facts a result record needs.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "api/session.h"
#include "server/client.h"
#include "server/tcp_server.h"
#include "util/status.h"

namespace perfbench {

struct BenchServer {
  std::unique_ptr<kgsearch::KgSession> session;
  std::unique_ptr<kgsearch::TcpServer> server;  ///< stopped before session
  double load_s = 0.0;   ///< KgSession::LoadDataset alone, wall time
  double setup_s = 0.0;  ///< LoadDataset plus TcpServer::Start, wall time
  double setup_cpu_s = 0.0;  ///< the same, in process CPU time

  ~BenchServer() {
    if (server) server->Stop();
    server.reset();
    session.reset();
  }
};

/// Builds a session with `pool_threads` workers, loads `kgpack` as
/// kDataset, and starts a loopback server on an ephemeral port.
kgsearch::Result<std::unique_ptr<BenchServer>> StartBenchServer(
    const std::string& kgpack, size_t pool_threads);

kgsearch::Result<kgsearch::NdjsonClient> ConnectClient(
    const BenchServer& server);

/// The dataset's serving counters as `GET /stats/<dataset>` reports them.
struct WireStats {
  uint64_t decomposition_hits = 0;
  uint64_t decomposition_misses = 0;
  uint64_t matcher_hits = 0;  ///< as the LRU counts them, stale included
  uint64_t matcher_misses = 0;
  uint64_t matcher_stale = 0;
};
kgsearch::Result<WireStats> FetchWireStats(kgsearch::NdjsonClient* client);

/// Peak resident set of this process so far (VmHWM), in MB.
double PeakRssMb();

/// CPU time of this process so far, every thread of it (the in-process
/// server's included), in ms. The kernel accounts time the hypervisor stole
/// from a vCPU apart from the task's own run time, so on a shared host this
/// clock, unlike the wall clock, does not run while the program waits for a
/// core it was promised.
double ProcessCpuMs();

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and the
/// part stolen by the hypervisor. A run's steal share tells a slow run on a
/// shared host apart from a slow program.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// Compiler name and version this binary was built with.
std::string CompilerId();

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
