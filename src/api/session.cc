#include "api/session.h"

#include <chrono>
#include <thread>
#include <utility>

#include "api/query_text.h"
#include "kg/snapshot.h"
#include "kg/triple_io.h"
#include "util/cancel.h"
#include "util/string_util.h"

namespace kgsearch {

namespace {

void FillAnswers(const GraphView& graph,
                 const std::vector<FinalMatch>& matches,
                 QueryResponse* response) {
  response->answers.reserve(matches.size());
  for (const FinalMatch& m : matches) {
    AnswerDto answer;
    answer.id = m.pivot_match;
    answer.name = std::string(graph.NodeName(m.pivot_match));
    answer.type = std::string(graph.NodeTypeName(m.pivot_match));
    answer.score = m.score;
    response->answers.push_back(std::move(answer));
  }
}

void FillStats(const std::vector<SearchStats>& subquery_stats,
               const TaStats& ta_stats, ResponseStats* stats) {
  stats->subqueries = subquery_stats.size();
  for (const SearchStats& s : subquery_stats) {
    stats->expanded += s.expanded;
    stats->generated += s.goals_emitted;
  }
  stats->ta_sorted_accesses = ta_stats.sorted_accesses;
  stats->ta_early_terminated = ta_stats.early_terminated;
}

}  // namespace

KgSession::KgSession(KgSessionOptions options, const Clock* clock)
    : clock_(clock),
      options_(options),
      pool_(std::make_unique<ThreadPool>(
          DefaultPoolThreads(options.num_threads))) {}

KgSession::~KgSession() {
  // Async tasks capture `this` and dataset pointers; finish them before
  // services, datasets, or the pool are torn down.
  outstanding_.Wait();
}

QueryServiceOptions KgSession::ServiceOptions() const {
  QueryServiceOptions service_options;
  service_options.executor = pool_.get();
  service_options.decomposition_cache_capacity =
      options_.decomposition_cache_capacity;
  service_options.matcher_cache_capacity = options_.matcher_cache_capacity;
  service_options.max_in_flight = options_.max_in_flight;
  service_options.max_queued = options_.max_queued;
  return service_options;
}

Result<std::unique_ptr<KgSession::Dataset>> KgSession::BuildDataset(
    std::unique_ptr<KnowledgeGraph> graph,
    std::shared_ptr<PredicateSpace> space,
    std::shared_ptr<TransformationLibrary> library) {
  if (graph == nullptr || space == nullptr) {
    return Status::InvalidArgument("dataset needs a graph and a space");
  }
  if (!graph->finalized()) {
    return Status::InvalidArgument("dataset graph must be finalized");
  }
  KG_RETURN_NOT_OK(CheckSpaceCoversGraph(*graph, *space));
  auto dataset = std::make_unique<Dataset>();
  dataset->graph = std::move(graph);
  dataset->space = std::move(space);
  dataset->library = std::move(library);
  dataset->overlay = std::make_unique<DeltaOverlay>(dataset->graph.get());
  dataset->service = std::make_unique<QueryService>(
      dataset->graph.get(), dataset->space.get(), dataset->library.get(),
      ServiceOptions(), clock_);
  return dataset;
}

Status KgSession::InstallDataset(const std::string& name,
                                 std::unique_ptr<Dataset> dataset,
                                 bool replace, const Dataset* expected) {
  std::unique_ptr<Dataset> old;
  {
    MutexLock lock(&mutex_);
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      if (expected != nullptr) {
        return Status::FailedPrecondition(
            "dataset replaced during compaction: " + name);
      }
      datasets_.emplace(name, std::move(dataset));
      return Status::OK();
    }
    if (!replace) {
      return Status::AlreadyExists("dataset already registered: " + name);
    }
    if (expected != nullptr && it->second.get() != expected) {
      return Status::FailedPrecondition(
          "dataset replaced during compaction: " + name);
    }
    old = std::move(it->second);
    it->second = std::move(dataset);
  }
  // Swap done: new arrivals resolve the fresh dataset. Retire the old
  // overlay first so a writer mid-Ingest fails fast (and retries against
  // the new entry) instead of committing into a graph nobody can reach,
  // then drain the leases. Queries never fail from the swap — lease
  // holders finish on the old graph before it is destroyed here.
  old->overlay->Retire();
  old->in_use.Wait();
  return Status::OK();
}

Status KgSession::RegisterDataset(const std::string& name,
                                  std::unique_ptr<KnowledgeGraph> graph,
                                  std::unique_ptr<PredicateSpace> space,
                                  TransformationLibrary library) {
  return BuildAndInstall(name, std::move(graph), std::move(space),
                         std::move(library), /*replace=*/false);
}

Status KgSession::ReplaceDataset(const std::string& name,
                                 std::unique_ptr<KnowledgeGraph> graph,
                                 std::unique_ptr<PredicateSpace> space,
                                 TransformationLibrary library) {
  return BuildAndInstall(name, std::move(graph), std::move(space),
                         std::move(library), /*replace=*/true);
}

Status KgSession::BuildAndInstall(const std::string& name,
                                  std::unique_ptr<KnowledgeGraph> graph,
                                  std::unique_ptr<PredicateSpace> space,
                                  TransformationLibrary library,
                                  bool replace) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }
  Result<std::unique_ptr<Dataset>> dataset = BuildDataset(
      std::move(graph), std::move(space),
      std::make_shared<TransformationLibrary>(std::move(library)));
  KG_RETURN_NOT_OK(dataset.status());
  return InstallDataset(name, std::move(dataset).ValueOrDie(), replace);
}

Status KgSession::LoadDataset(const std::string& name,
                              const DatasetLoadOptions& options) {
  if (!options.replace_existing && HasDataset(name)) {
    // Checked again under the registry lock, but failing before parsing and
    // training keeps the common mistake cheap.
    return Status::AlreadyExists("dataset already registered: " + name);
  }
  if (options.graph_path.empty()) {
    return Status::InvalidArgument("DatasetLoadOptions.graph_path is empty");
  }

  Result<std::string> text = ReadFileToString(options.graph_path);
  KG_RETURN_NOT_OK(text.status());

  // kgpack fast path: the file bundles graph + space + library already in
  // flat form, so the remaining load options have nothing to apply to.
  if (LooksLikeKgPack(text.ValueOrDie())) {
    if (!options.space_path.empty() || !options.library_path.empty() ||
        options.train_transe) {
      return Status::InvalidArgument(
          "kgpack snapshots bundle their own space and library; clear "
          "space_path/library_path/train_transe when loading " +
          options.graph_path);
    }
    Result<DatasetSnapshot> snapshot = DecodeSnapshot(text.ValueOrDie());
    KG_RETURN_NOT_OK(snapshot.status());
    DatasetSnapshot& parts = snapshot.ValueOrDie();
    return BuildAndInstall(name, std::move(parts.graph),
                           std::move(parts.space), std::move(parts.library),
                           options.replace_existing);
  }

  Result<std::unique_ptr<KnowledgeGraph>> graph =
      EndsWith(options.graph_path, ".tsv")
          ? ParseTsvTriples(text.ValueOrDie())
          : ParseNTriples(text.ValueOrDie());
  KG_RETURN_NOT_OK(graph.status());

  std::unique_ptr<PredicateSpace> space;
  if (!options.space_path.empty() && !options.train_transe) {
    Result<std::string> space_text = ReadFileToString(options.space_path);
    KG_RETURN_NOT_OK(space_text.status());
    Result<PredicateSpace> parsed = PredicateSpace::Deserialize(
        space_text.ValueOrDie(), graph.ValueOrDie().get());
    KG_RETURN_NOT_OK(parsed.status());
    space = std::make_unique<PredicateSpace>(std::move(parsed).ValueOrDie());
  } else {
    Result<TransEEmbedding> embedding =
        TrainTransE(*graph.ValueOrDie(), options.transe_config);
    KG_RETURN_NOT_OK(embedding.status());
    space = std::make_unique<PredicateSpace>(PredicateSpace::FromTransE(
        *graph.ValueOrDie(), embedding.ValueOrDie()));
  }

  TransformationLibrary library;
  if (!options.library_path.empty()) {
    Result<std::string> library_text = ReadFileToString(options.library_path);
    KG_RETURN_NOT_OK(library_text.status());
    Result<TransformationLibrary> parsed =
        TransformationLibrary::Deserialize(library_text.ValueOrDie());
    KG_RETURN_NOT_OK(parsed.status());
    library = std::move(parsed).ValueOrDie();
  }

  return BuildAndInstall(name, std::move(graph).ValueOrDie(),
                         std::move(space), std::move(library),
                         options.replace_existing);
}

Status KgSession::SaveDataset(const std::string& name,
                              const std::string& path) const {
  DatasetLease lease = AcquireDataset(name);
  if (!lease) {
    return Status::NotFound("unknown dataset: \"" + name + "\"");
  }
  Dataset* dataset = lease.get();
  // Snapshot the live view: when anything was ingested, fold base+delta
  // into a fresh graph so the file round-trips the merged state (a later
  // LoadDataset restores exactly what queries were answering).
  std::shared_ptr<const DeltaSnapshot> pinned = dataset->overlay->Snapshot();
  if (pinned != nullptr) {
    Result<std::unique_ptr<KnowledgeGraph>> folded =
        FoldDelta(*dataset->graph, pinned.get());
    KG_RETURN_NOT_OK(folded.status());
    return SaveSnapshot(path, *folded.ValueOrDie(), *dataset->space,
                        *dataset->library);
  }
  return SaveSnapshot(path, *dataset->graph, *dataset->space,
                      *dataset->library);
}

KgSession::DatasetLease KgSession::AcquireDataset(
    const std::string& name) const {
  MutexLock lock(&mutex_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) return DatasetLease();
  it->second->in_use.Add(1);
  return DatasetLease(it->second.get());
}

bool KgSession::HasDataset(const std::string& name) const {
  MutexLock lock(&mutex_);
  return datasets_.find(name) != datasets_.end();
}

std::vector<DatasetInfo> KgSession::ListDatasets() const {
  MutexLock lock(&mutex_);
  std::vector<DatasetInfo> out;
  out.reserve(datasets_.size());
  for (const auto& [name, dataset] : datasets_) {
    std::shared_ptr<const DeltaSnapshot> pinned =
        dataset->overlay->Snapshot();
    const GraphView view(dataset->graph.get(), pinned.get());
    DatasetInfo info;
    info.name = name;
    info.nodes = view.NumNodes();
    info.edges = view.NumEdges();
    info.predicates = view.NumPredicates();
    info.epoch = view.epoch();
    out.push_back(std::move(info));
  }
  return out;
}

Result<QueryResponse> KgSession::Query(const QueryRequest& request,
                                       const CancelToken* cancel) {
  if (request.deadline_ms < 0) {
    return Status::InvalidArgument("deadline_ms must be >= 0");
  }
  return Execute(request, DeadlineFromNowMs(request.deadline_ms, clock_),
                 cancel);
}

Result<QueryResponse> KgSession::Execute(const QueryRequest& request,
                                         int64_t deadline_micros,
                                         const CancelToken* cancel,
                                         Dataset* dataset,
                                         bool pre_admitted) {
  KG_RETURN_NOT_OK(CheckProtocolVersion(request.version));
  DatasetLease lease;
  if (dataset == nullptr) {
    lease = AcquireDataset(request.dataset);
    dataset = lease.get();
  }
  if (dataset == nullptr) {
    return Status::NotFound("unknown dataset: \"" + request.dataset + "\"");
  }
  // THE snapshot pin: everything below — parsing, decomposition, search,
  // answer fill — reads this one GraphView, so the request sees exactly the
  // epoch current at resolution time regardless of concurrent commits.
  const std::shared_ptr<const DeltaSnapshot> pinned =
      dataset->overlay->Snapshot();
  const GraphView view(dataset->graph.get(), pinned.get());
  // Deliberately no deadline/cancel short-circuit here: the service's own
  // entry check handles a request that spent its whole budget queued (or
  // was revoked while waiting), so the per-dataset overload counters see
  // every such outcome.

  StopWatch total(clock_);
  QueryResponse response;
  response.dataset = request.dataset;
  response.mode = request.mode;
  response.deadline_ms = request.deadline_ms;
  response.priority = request.priority;

  // Hot path: never copy a caller-supplied QueryGraph, just borrow it.
  QueryGraph parsed_storage;
  const QueryGraph* query = nullptr;
  if (request.query_graph.has_value()) {
    query = &*request.query_graph;
  } else if (request.query_text.empty()) {
    return Status::InvalidArgument(
        "request needs query_text or query_graph");
  } else {
    StopWatch parse_watch(clock_);
    Result<QueryGraph> parsed = ParseQueryText(request.query_text, view);
    KG_RETURN_NOT_OK(parsed.status());
    parsed_storage = std::move(parsed).ValueOrDie();
    query = &parsed_storage;
    response.timings.parse_ms = parse_watch.ElapsedMillis();
  }
  // The API boundary check: a malformed QueryGraph (disconnected, no
  // target, empty predicate, ...) must answer kInvalidArgument, never trip
  // a KG_CHECK inside the engine.
  KG_RETURN_NOT_OK(query->Validate());

  QueryOptions options;
  static_cast<QueryKnobs&>(options) = request.options;
  options.mode = request.mode;
  options.deadline_micros = deadline_micros;
  options.cancel = cancel;
  options.view = &view;
  Result<QueryResult> result =
      pre_admitted ? dataset->service->QueryAdmitted(*query, options)
                   : dataset->service->Query(*query, options,
                                             EffectivePriority(request));
  KG_RETURN_NOT_OK(result.status());
  const QueryResult& r = result.ValueOrDie();
  FillAnswers(view, r.matches, &response);
  FillStats(r.subquery_stats, r.ta_stats, &response.stats);
  response.stopped_by_time = r.stopped_by_time;
  response.timings.engine_ms = r.elapsed_ms;
  response.timings.total_ms = total.ElapsedMillis();
  return response;
}

std::future<Result<QueryResponse>> KgSession::Submit(
    QueryRequest request, const CancelToken* cancel) {
  if (request.deadline_ms < 0) {
    std::promise<Result<QueryResponse>> invalid;
    invalid.set_value(Status::InvalidArgument("deadline_ms must be >= 0"));
    return invalid.get_future();
  }
  // Stamp the budget NOW: the clock runs while the task waits for a pool
  // worker, so a submission flood cannot stretch anyone's deadline.
  const int64_t deadline_micros =
      DeadlineFromNowMs(request.deadline_ms, clock_);

  // Admission is ALSO decided now, against the dataset's service (async
  // limits), so the pool queue only ever holds admitted work and overload
  // answers in microseconds. The slot is held across the queue wait, which
  // is what the dataset's queue_depth counts, and released by the task (or
  // the shutdown path). An unknown dataset skips the gate — Execute
  // resolves it to kNotFound, and if the name is registered between
  // submission and execution the service's synchronous gate still applies.
  // The drain lease taken here rides into the task (shared_ptr: the pool's
  // std::function needs a copyable closure) so the resolved Dataset — and
  // the gate inside it — survives any replacement until the task finishes.
  auto lease =
      std::make_shared<DatasetLease>(AcquireDataset(request.dataset));
  Dataset* dataset = lease->get();
  AdmissionController* gate = nullptr;
  if (dataset != nullptr) {
    gate = dataset->service->mutable_admission();
    if (!gate->TryAdmit(/*async=*/true, EffectivePriority(request))) {
      std::promise<Result<QueryResponse>> rejected;
      rejected.set_value(gate->OverCapacityStatus(
          /*async=*/true, "dataset \"" + request.dataset + "\""));
      return rejected.get_future();
    }
  }
  auto promise = std::make_shared<std::promise<Result<QueryResponse>>>();
  std::future<Result<QueryResponse>> future = promise->get_future();
  // outstanding_.Done() is the task's very last action: the slot and the
  // lease go back first, so the destructor (which waits on outstanding_)
  // can never race a release into a torn-down dataset. A throwing Execute
  // reaches the client through the future.
  outstanding_.Add(1);
  const bool accepted = pool_->TrySubmit(
      [this, promise, request = std::move(request), deadline_micros, cancel,
       lease, dataset, gate] {
        try {
          promise->set_value([&] {
            // Returned before the future resolves, even if Execute throws.
            AdmissionSlot slot(gate);
            return Execute(request, deadline_micros, cancel, dataset,
                           /*pre_admitted=*/gate != nullptr);
          }());
        } catch (...) {
          promise->set_exception(std::current_exception());
        }
        lease->Release();
        outstanding_.Done();
      });
  if (!accepted) {
    if (gate != nullptr) gate->Release();
    lease->Release();
    outstanding_.Done();
    promise->set_value(Status::Internal("session is shutting down"));
  }
  return future;
}

std::vector<Result<QueryResponse>> KgSession::QueryBatch(
    const std::vector<QueryRequest>& requests, const CancelToken* cancel) {
  std::vector<std::future<Result<QueryResponse>>> futures;
  futures.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    futures.push_back(Submit(request, cancel));
  }
  std::vector<Result<QueryResponse>> out;
  out.reserve(requests.size());
  for (auto& fut : futures) {
    out.push_back(fut.get());
  }
  return out;
}

std::string KgSession::QueryJson(std::string_view request_json) {
  Result<QueryRequest> request = DecodeQueryRequestJson(request_json);
  if (!request.ok()) return EncodeErrorJson(request.status());
  Result<QueryResponse> response = Query(request.ValueOrDie());
  if (!response.ok()) return EncodeErrorJson(response.status());
  return EncodeQueryResponseJson(response.ValueOrDie());
}

Result<IngestResponse> KgSession::Ingest(const IngestRequest& request) {
  KG_RETURN_NOT_OK(CheckProtocolVersion(request.version));
  if (request.ops.empty()) {
    return Status::InvalidArgument("ingest request has no ops");
  }
  MutationBatch batch;
  batch.ops.reserve(request.ops.size());
  for (const IngestOpDto& op : request.ops) {
    KG_RETURN_NOT_OK(CheckIngestOp(op));
    batch.ops.push_back(
        op.retract ? Mutation::Retract(op.head, op.predicate, op.tail)
                   : Mutation::Add(op.head, op.predicate, op.tail,
                                   op.head_type, op.tail_type));
  }

  // Retry loop: a commit that loses to a concurrent compaction/replacement
  // (retired overlay → kFailedPrecondition) is transparently re-applied
  // against the freshly installed registry entry. Bounded two ways — a
  // wall-clock give-up and an iteration cap (a frozen test clock must not
  // spin forever).
  const int64_t give_up_micros = clock_->NowMicros() + 2'000'000;
  const Dataset* last_retired = nullptr;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    DatasetLease lease = AcquireDataset(request.dataset);
    Dataset* dataset = lease.get();
    if (dataset == nullptr) {
      return Status::NotFound("unknown dataset: \"" + request.dataset +
                              "\"");
    }
    // Adds must use predicates the BASE graph already interned: the
    // predicate space has embedding rows only for base predicate ids, so a
    // new predicate would search with undefined semantics. (The overlay
    // itself allows them — this policy belongs to the serving layer.)
    for (const IngestOpDto& op : request.ops) {
      if (!op.retract &&
          dataset->graph->FindPredicate(op.predicate) == kInvalidSymbol) {
        return Status::InvalidArgument(
            "unknown predicate \"" + op.predicate +
            "\": the dataset's predicate space has no embedding for it");
      }
    }
    Result<uint64_t> epoch = dataset->overlay->Commit(batch);
    if (epoch.ok()) {
      IngestResponse response;
      response.dataset = request.dataset;
      response.epoch = epoch.ValueOrDie();
      response.ops_applied = request.ops.size();
      return response;
    }
    if (epoch.status().code() != StatusCode::kFailedPrecondition) {
      return epoch.status();
    }
    if (clock_->NowMicros() >= give_up_micros) break;
    if (dataset == last_retired) {
      // The retired entry is still installed (the replacer is mid-drain);
      // yield briefly instead of hammering the registry lock.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    last_retired = dataset;
  }
  return Status::FailedPrecondition(
      "ingest into \"" + request.dataset +
      "\" kept racing dataset replacement; giving up");
}

Status KgSession::CompactDataset(const std::string& name) {
  DatasetLease lease = AcquireDataset(name);
  if (!lease) {
    return Status::NotFound("unknown dataset: \"" + name + "\"");
  }
  Dataset* dataset = lease.get();
  // Retire first: from here on no new epoch can be published, so the final
  // snapshot is THE delta to fold and no committed batch can be lost. The
  // fold itself runs without any lock held.
  std::shared_ptr<const DeltaSnapshot> final_delta =
      dataset->overlay->Retire();
  if (final_delta == nullptr) {
    dataset->overlay->Reopen();  // epoch 0: nothing to fold
    return Status::OK();
  }
  Result<std::unique_ptr<KnowledgeGraph>> folded =
      FoldDelta(*dataset->graph, final_delta.get());
  if (!folded.ok()) {
    dataset->overlay->Reopen();  // keep serving the old state
    return folded.status();
  }
  // FoldDelta preserves predicate ids, so the outgoing generation's space
  // and library keep their meaning — the new generation SHARES them.
  Result<std::unique_ptr<Dataset>> fresh = BuildDataset(
      std::move(folded).ValueOrDie(), dataset->space, dataset->library);
  if (!fresh.ok()) {
    dataset->overlay->Reopen();  // keep serving the old state
    return fresh.status();
  }
  // Release our own lease BEFORE the install drains — holding it across
  // in_use.Wait() would deadlock on ourselves. `expected` pins the swap to
  // the entry we folded: if a racing ReplaceDataset got there first our
  // fold is stale and is simply discarded (kFailedPrecondition).
  const Dataset* expected = dataset;
  lease.Release();
  // kFailedPrecondition = lost the race to a concurrent replacement; the
  // winner's dataset is serving and our fold is simply discarded.
  return InstallDataset(name, std::move(fresh).ValueOrDie(), /*replace=*/true,
                        expected);
}

Result<uint64_t> KgSession::DatasetEpoch(const std::string& name) const {
  DatasetLease lease = AcquireDataset(name);
  if (!lease) {
    return Status::NotFound("unknown dataset: \"" + name + "\"");
  }
  return lease.get()->overlay->epoch();
}

std::string KgSession::IngestJson(std::string_view request_json) {
  Result<IngestRequest> request = DecodeIngestRequestJson(request_json);
  if (!request.ok()) return EncodeErrorJson(request.status());
  Result<IngestResponse> response = Ingest(request.ValueOrDie());
  if (!response.ok()) return EncodeErrorJson(response.status());
  return EncodeIngestResponseJson(response.ValueOrDie());
}

Result<QueryGraph> KgSession::ParseQuery(const std::string& dataset,
                                         std::string_view text) const {
  DatasetLease lease = AcquireDataset(dataset);
  if (!lease) {
    return Status::NotFound("unknown dataset: \"" + dataset + "\"");
  }
  Dataset* found = lease.get();
  const std::shared_ptr<const DeltaSnapshot> pinned =
      found->overlay->Snapshot();
  return ParseQueryText(text, GraphView(found->graph.get(), pinned.get()));
}

Result<ServiceStatsSnapshot> KgSession::Stats(
    const std::string& dataset) const {
  DatasetLease lease = AcquireDataset(dataset);
  if (!lease) {
    return Status::NotFound("unknown dataset: \"" + dataset + "\"");
  }
  return lease.get()->service->Stats();
}

QueryService* KgSession::service(const std::string& dataset) const {
  DatasetLease lease = AcquireDataset(dataset);
  return lease ? lease.get()->service.get() : nullptr;
}

const KnowledgeGraph* KgSession::graph(const std::string& dataset) const {
  DatasetLease lease = AcquireDataset(dataset);
  return lease ? lease.get()->graph.get() : nullptr;
}

const PredicateSpace* KgSession::space(const std::string& dataset) const {
  DatasetLease lease = AcquireDataset(dataset);
  return lease ? lease.get()->space.get() : nullptr;
}

const TransformationLibrary* KgSession::library(
    const std::string& dataset) const {
  DatasetLease lease = AcquireDataset(dataset);
  return lease ? lease.get()->library.get() : nullptr;
}

}  // namespace kgsearch
