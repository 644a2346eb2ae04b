// KgSession: the public front door of the library.
//
// One session owns a named dataset registry — each dataset is a
// (KnowledgeGraph, PredicateSpace, TransformationLibrary) triple served by
// its own QueryService — and one process-wide ThreadPool shared by every
// dataset's service, so N datasets never mean N pools. Datasets come from
// the in-memory builders (RegisterDataset) or from disk (LoadDataset:
// N-Triples/TSV graphs, optional serialized predicate space or on-the-fly
// TransE training, optional transformation-library TSV).
//
// Queries enter as QueryRequest DTOs (api/protocol.h) carrying query text
// (api/query_text grammar) or an explicit QueryGraph, and leave as
// QueryResponse DTOs with ranked answers, per-stage timings, and engine
// stats; QueryJson speaks the JSON wire form end to end. Execution routes
// through the dataset's QueryService unchanged, so facade answers are
// bit-identical to direct engine calls (the api differential tests assert
// this). Malformed input of any kind — unknown dataset, bad text, invalid
// query graph — returns a Status; the facade never KG_CHECK-aborts on user
// input.
//
// Dynamic graphs (ROADMAP item 3): every dataset carries a DeltaOverlay
// (kg/delta_overlay.h). Ingest() commits mutation batches against it;
// each query pins the overlay's published snapshot at dataset-resolution
// time and runs entirely against that one GraphView, so no query ever sees
// half a batch. CompactDataset() folds base+delta into a fresh graph and
// swaps it in blue-green: the new dataset (sharing the predicate space and
// transformation library of the old) replaces the registry entry
// atomically, in-flight queries finish on the old graph under a drain
// lease, and the old dataset is destroyed only after the drain.
//
// Thread-safety: all public methods may be called concurrently. A registry
// entry can be REPLACED (ReplaceDataset, CompactDataset, LoadDataset with
// replace_existing), so internal access goes through drain leases: a
// lease, taken under the registry lock, keeps the resolved Dataset alive
// until released; replacement waits for every lease before destroying the
// old dataset. The borrowed pointers returned by service()/graph()/...
// are valid until the named dataset is replaced or compacted (forever, if
// the caller never does either — the pre-replacement contract).
#ifndef KGSEARCH_API_SESSION_H_
#define KGSEARCH_API_SESSION_H_

#include <future>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/protocol.h"
#include "embedding/transe.h"
#include "kg/delta_overlay.h"
#include "match/transformation_library.h"
#include "service/query_service.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kgsearch {

/// Session-wide knobs; per-dataset services inherit the cache capacities
/// and admission limits.
struct KgSessionOptions {
  /// Worker threads in the shared pool; 0 = hardware concurrency (min 2).
  size_t num_threads = 0;
  /// Decomposition-plan cache entries per dataset; 0 disables.
  size_t decomposition_cache_capacity = 512;
  /// Matcher candidate cache entries (specific-node names) per dataset;
  /// 0 disables.
  size_t matcher_cache_capacity = 4096;
  /// Per-dataset admission limits (see service/admission.h): requests over
  /// capacity fail fast with kResourceExhausted instead of queueing
  /// without bound. 0 = admission control off (the default).
  size_t max_in_flight = 0;
  size_t max_queued = 0;
  /// Whether request-supplied priority is honored. kHigh bypasses the
  /// admission limits, so a session whose requests come from untrusted
  /// wire clients (QueryJson) should set this to false — every request is
  /// then treated as kNormal and the limits actually bind. True by
  /// default for in-process callers, who are as trusted as the limits
  /// they configured.
  bool honor_request_priority = true;
};

/// How to load one dataset from disk.
struct DatasetLoadOptions {
  /// Graph file. A kgpack snapshot (detected by its magic bytes, see
  /// kg/snapshot.h) restores the whole dataset — graph, predicate space,
  /// and transformation library — directly from flat buffers, in which case
  /// the other fields must be left empty/false. Otherwise ".tsv" parses as
  /// TSV triples and anything else as N-Triples.
  std::string graph_path;
  /// Serialized PredicateSpace (optional; empty = train TransE).
  std::string space_path;
  /// Transformation-library TSV (optional; empty = no alias records).
  std::string library_path;
  /// Train TransE even when space_path is set.
  bool train_transe = false;
  /// TransE hyper-parameters used when training.
  TransEConfig transe_config = {.dim = 48, .epochs = 60};
  /// Atomically replace an existing dataset of the same name (blue-green,
  /// with drain) instead of failing kAlreadyExists.
  bool replace_existing = false;
};

/// Registry listing entry. Counts reflect the live view (base graph plus
/// the current delta epoch), not just the base.
struct DatasetInfo {
  std::string name;
  size_t nodes = 0;
  size_t edges = 0;
  size_t predicates = 0;
  /// Current delta epoch (0 = pristine base, nothing ingested since the
  /// last registration/compaction).
  uint64_t epoch = 0;
};

/// The facade: dataset registry + request execution over one shared pool.
class KgSession {
 public:
  explicit KgSession(KgSessionOptions options = {},
                     const Clock* clock = SystemClock::Default());
  /// Waits for in-flight async requests, then tears down services and pool.
  ~KgSession();

  KgSession(const KgSession&) = delete;
  KgSession& operator=(const KgSession&) = delete;

  // ----- dataset registry -----

  /// Registers an in-memory dataset under `name`. The graph must be
  /// finalized and the space must cover its predicates by id and name
  /// (CheckSpaceCoversGraph, kg/snapshot.h), so every registered dataset
  /// can be saved. kAlreadyExists when the name is taken; kInvalidArgument
  /// on null or inconsistent parts.
  Status RegisterDataset(const std::string& name,
                         std::unique_ptr<KnowledgeGraph> graph,
                         std::unique_ptr<PredicateSpace> space,
                         TransformationLibrary library);

  /// Registers like RegisterDataset, but an existing dataset of the same
  /// name is atomically replaced (blue-green): queries resolving the name
  /// after the swap run on the new dataset, in-flight queries finish on the
  /// old one, the old delta overlay is retired (pending Ingests fail fast
  /// and retry onto the new dataset), and the old dataset is destroyed
  /// after its last lease drains. This is the fix for the registration
  /// name-collision bug: previously the only choices were kAlreadyExists
  /// or an unsynchronized unload.
  Status ReplaceDataset(const std::string& name,
                        std::unique_ptr<KnowledgeGraph> graph,
                        std::unique_ptr<PredicateSpace> space,
                        TransformationLibrary library);

  /// Loads a dataset from disk per `options` and registers it. Snapshot
  /// files take the kgpack fast path: no parsing, no training.
  Status LoadDataset(const std::string& name,
                     const DatasetLoadOptions& options);

  /// Serializes a registered dataset to a kgpack snapshot file that a later
  /// LoadDataset (or another process) restores bit-identically —
  /// snapshot-served answers match freshly-trained ones exactly.
  Status SaveDataset(const std::string& name, const std::string& path) const;

  bool HasDataset(const std::string& name) const;
  std::vector<DatasetInfo> ListDatasets() const;

  // ----- live ingest (delta overlay) -----

  /// Commits one mutation batch against the named dataset's delta overlay,
  /// all-or-nothing; the response carries the epoch the batch published.
  /// Queries accepted after the commit returns see every op; queries
  /// already pinned keep their snapshot. Every op must pass CheckIngestOp
  /// (api/protocol.h), and predicates of added triples must already exist
  /// in the dataset (its predicate space has no embedding rows for new
  /// ones): kInvalidArgument otherwise. A batch that races a
  /// concurrent compaction/replacement is retried transparently against
  /// the new registry entry.
  Result<IngestResponse> Ingest(const IngestRequest& request);

  /// Folds the dataset's delta into a fresh finalized base graph
  /// (kg/delta_overlay.h FoldDelta — bit-identical to a from-scratch
  /// build) and swaps it in blue-green, sharing the predicate space and
  /// transformation library with the outgoing generation. The new overlay
  /// starts empty at epoch 0. No-op when nothing was ingested. Queries are
  /// never failed by the swap: in-flight ones finish on the old graph.
  Status CompactDataset(const std::string& name);

  /// The dataset's current delta epoch (0 = pristine base); kNotFound for
  /// unknown names.
  Result<uint64_t> DatasetEpoch(const std::string& name) const;

  // ----- query execution -----

  /// Synchronous request execution (SGQ or TBQ per request.mode). A
  /// request.deadline_ms budget is stamped into an absolute engine
  /// deadline HERE, at acceptance; expiry mid-query returns
  /// kDeadlineExceeded. `cancel` (optional, non-owning, must outlive the
  /// call) revokes the request cooperatively: kCancelled. Admission
  /// overload returns kResourceExhausted. request.priority == kHigh
  /// bypasses admission limits.
  Result<QueryResponse> Query(const QueryRequest& request,
                              const CancelToken* cancel = nullptr);

  /// Asynchronous execution on the shared pool: the library's one
  /// asynchronous query path (the TCP server sends every wire request
  /// through it). The deadline budget is stamped at submission, so time
  /// spent queued counts against it; a request that waits out its whole
  /// budget resolves to kDeadlineExceeded without running the engines.
  /// Admission against the dataset's service is ALSO decided at submission
  /// (async limits: max_in_flight + max_queued), so overload resolves the
  /// future with kResourceExhausted immediately instead of after a queue
  /// wait — the pool queue holds only admitted work, and the dataset's
  /// Stats().queue_depth counts it. `cancel` must outlive the future's
  /// resolution.
  std::future<Result<QueryResponse>> Submit(QueryRequest request,
                                            const CancelToken* cancel =
                                                nullptr);

  /// Executes a batch concurrently; results come back in request order
  /// (each entry succeeds or fails independently). One optional token
  /// revokes the whole batch.
  std::vector<Result<QueryResponse>> QueryBatch(
      const std::vector<QueryRequest>& requests,
      const CancelToken* cancel = nullptr);

  /// The JSON wire entry point: decodes a request document, executes it,
  /// and encodes the response — or an {"error": ...} document for any
  /// failure. Never throws or aborts on malformed input.
  std::string QueryJson(std::string_view request_json);

  /// The JSON wire entry point for ingest: decodes an
  /// {"v":1,"ingest":{...}} document, commits it, and encodes the
  /// response — or an {"error": ...} document. Never throws or aborts.
  std::string IngestJson(std::string_view request_json);

  /// Parses query text against `dataset`'s graph (type inference for
  /// specific nodes) without executing it.
  Result<QueryGraph> ParseQuery(const std::string& dataset,
                                std::string_view text) const;

  // ----- introspection (parity tests, demos, stats) -----

  /// Per-dataset serving counters; kNotFound for unknown names. Its
  /// `queue_depth` counts this dataset's Submit/QueryBatch requests that
  /// were admitted but have not started executing (a load signal, racy by
  /// nature).
  Result<ServiceStatsSnapshot> Stats(const std::string& dataset) const;

  /// Borrowed pointers, valid until the named dataset is replaced or
  /// compacted (so: for the session's lifetime, if the caller never does
  /// either); nullptr when the dataset is unknown.
  QueryService* service(const std::string& dataset) const;
  const KnowledgeGraph* graph(const std::string& dataset) const;
  const PredicateSpace* space(const std::string& dataset) const;
  const TransformationLibrary* library(const std::string& dataset) const;

  size_t num_threads() const { return pool_->num_threads(); }

 private:
  struct Dataset {
    std::unique_ptr<KnowledgeGraph> graph;
    /// Shared (not owned 1:1): a compaction generation reuses the previous
    /// generation's space and library — FoldDelta preserves predicate ids,
    /// so the embedding rows keep their meaning.
    std::shared_ptr<PredicateSpace> space;
    std::shared_ptr<TransformationLibrary> library;
    /// Writer-side mutation entry point; always present (epoch 0 = no
    /// deltas). Queries pin overlay->Snapshot() at dataset resolution.
    std::unique_ptr<DeltaOverlay> overlay;
    std::unique_ptr<QueryService> service;
    /// Drain gate: one count per outstanding DatasetLease. Replacement
    /// waits for zero before destroying this dataset, so every lease-held
    /// pointer stays valid without per-read locking.
    WaitGroup in_use;
  };

  /// RAII drain lease over one registry entry. Acquired under the registry
  /// lock (AcquireDataset); while held, the Dataset outlives any
  /// replacement (the replacer blocks in in_use.Wait()). Destruction on
  /// the replacer's thread is guaranteed: leases never own the Dataset,
  /// they only defer its teardown.
  class DatasetLease {
   public:
    DatasetLease() = default;
    /// `dataset` must have had in_use.Add(1) called on the caller's behalf.
    explicit DatasetLease(Dataset* dataset) : dataset_(dataset) {}
    DatasetLease(DatasetLease&& other) noexcept
        : dataset_(other.dataset_) {
      other.dataset_ = nullptr;
    }
    DatasetLease& operator=(DatasetLease&& other) noexcept {
      if (this != &other) {
        Release();
        dataset_ = other.dataset_;
        other.dataset_ = nullptr;
      }
      return *this;
    }
    DatasetLease(const DatasetLease&) = delete;
    DatasetLease& operator=(const DatasetLease&) = delete;
    ~DatasetLease() { Release(); }

    void Release() {
      if (dataset_ != nullptr) {
        dataset_->in_use.Done();
        dataset_ = nullptr;
      }
    }
    Dataset* get() const { return dataset_; }
    explicit operator bool() const { return dataset_ != nullptr; }

   private:
    Dataset* dataset_ = nullptr;
  };

  /// Resolves `name` and takes a drain lease on the entry (null lease when
  /// unknown). The lease keeps the Dataset alive across replacement.
  DatasetLease AcquireDataset(const std::string& name) const
      EXCLUDES(mutex_);

  /// Builds a ready-to-serve Dataset (validations + overlay + service)
  /// from its parts. Every generation of every dataset is built here;
  /// compaction passes the outgoing generation's space and library.
  Result<std::unique_ptr<Dataset>> BuildDataset(
      std::unique_ptr<KnowledgeGraph> graph,
      std::shared_ptr<PredicateSpace> space,
      std::shared_ptr<TransformationLibrary> library);

  /// RegisterDataset (`replace` false) and ReplaceDataset (`replace`
  /// true): BuildDataset, then InstallDataset.
  Status BuildAndInstall(const std::string& name,
                         std::unique_ptr<KnowledgeGraph> graph,
                         std::unique_ptr<PredicateSpace> space,
                         TransformationLibrary library, bool replace);

  /// The one registry write path. Installs `dataset` under `name`; an
  /// existing entry either rejects the install (kAlreadyExists, `replace`
  /// false) or is swapped out atomically, retired (pending Ingests fail
  /// fast and retry), drained, and destroyed — on this thread, after every
  /// lease is gone. `expected` (optional) aborts the swap with
  /// kFailedPrecondition when the current entry is no longer that pointer
  /// (compaction's conflict check against a racing replacement).
  Status InstallDataset(const std::string& name,
                        std::unique_ptr<Dataset> dataset, bool replace,
                        const Dataset* expected = nullptr)
      EXCLUDES(mutex_);

  /// The QueryServiceOptions every generation of every dataset serves
  /// with.
  QueryServiceOptions ServiceOptions() const;

  /// The priority admission actually sees: the request's own unless the
  /// session is configured to distrust it. Responses still echo what the
  /// client sent.
  RequestPriority EffectivePriority(const QueryRequest& request) const {
    return options_.honor_request_priority ? request.priority
                                           : RequestPriority::kNormal;
  }

  /// Request execution after the deadline budget has been stamped into an
  /// absolute clock time (0 = none). Query stamps at call time, Submit at
  /// submission time — both before any queueing or parsing. `dataset` is
  /// the pre-resolved entry when the caller already holds a lease on it
  /// (Submit's path — the lease must outlive the call), null to resolve
  /// (and lease) here. The snapshot pin happens HERE, at resolution: the
  /// whole request — parsing, decomposition, search, answer fill — runs
  /// against one GraphView of the epoch current at this moment. When
  /// `pre_admitted` is set the caller already holds an admission slot on
  /// the dataset's service (Submit's path) and owes its release; otherwise
  /// the service's synchronous gate applies. Deadline/cancel outcomes are
  /// always surfaced (and counted) by the service, never short-circuited
  /// here, so the per-dataset overload counters stay truthful.
  Result<QueryResponse> Execute(const QueryRequest& request,
                                int64_t deadline_micros,
                                const CancelToken* cancel,
                                Dataset* dataset = nullptr,
                                bool pre_admitted = false);

  const Clock* clock_;
  KgSessionOptions options_;
  /// Declared before datasets_: services (which reference the pool) are
  /// destroyed first, the pool last.
  std::unique_ptr<ThreadPool> pool_;
  /// Registry lock ("session" layer in util/mutex.h's lock ordering):
  /// guards the map structure and lease acquisition — Dataset contents are
  /// immutable after registration (the overlay and service synchronize
  /// themselves), and entry lifetime is governed by the drain leases.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Dataset>> datasets_
      GUARDED_BY(mutex_);
  /// Async requests not yet finished; drained by the destructor before any
  /// dataset or the pool is torn down. It is what keeps a dataset's service
  /// alive while work submitted to it waits in the pool.
  WaitGroup outstanding_;
};

}  // namespace kgsearch

#endif  // KGSEARCH_API_SESSION_H_
