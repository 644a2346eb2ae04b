#include "api/protocol.h"

#include <limits>
#include <utility>

#include "util/string_util.h"

namespace kgsearch {

namespace {

/// Decodes a non-negative integer field into an unsigned type, rejecting
/// values outside T's range (no silent truncation).
template <typename T>
Status GetUnsigned(const JsonValue& object, std::string_view key,
                   T fallback, T* out) {
  Result<uint64_t> v =
      JsonGetUintOr(object, key, static_cast<uint64_t>(fallback));
  if (!v.ok()) {
    // Distinguish "present but negative/fractional" for a clearer message.
    if (object.is_object()) {
      const JsonValue* raw = object.Find(key);
      if (raw != nullptr && raw->is_number()) {
        return Status::InvalidArgument(
            "field \"" + std::string(key) +
            "\" must be a non-negative integer");
      }
    }
    return v.status();
  }
  if (v.ValueOrDie() > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return Status::InvalidArgument("field \"" + std::string(key) +
                                   "\" is out of range");
  }
  *out = static_cast<T>(v.ValueOrDie());
  return Status::OK();
}

const char* PivotStrategyName(PivotStrategy strategy) {
  switch (strategy) {
    case PivotStrategy::kMinCost: return "min_cost";
    case PivotStrategy::kRandom: return "random";
  }
  return "?";
}

Result<PivotStrategy> ParsePivotStrategyName(std::string_view name) {
  if (name == "min_cost") return PivotStrategy::kMinCost;
  if (name == "random") return PivotStrategy::kRandom;
  return Status::InvalidArgument("unknown pivot_strategy: " +
                                 std::string(name));
}

const char* DedupModeName(DedupMode mode) {
  switch (mode) {
    case DedupMode::kPaperNodeVisited: return "paper_node_visited";
    case DedupMode::kExactState: return "exact_state";
  }
  return "?";
}

Result<DedupMode> ParseDedupModeName(std::string_view name) {
  if (name == "paper_node_visited") return DedupMode::kPaperNodeVisited;
  if (name == "exact_state") return DedupMode::kExactState;
  return Status::InvalidArgument("unknown dedup mode: " + std::string(name));
}

Status CheckVersion(const JsonValue& json) {
  Result<int64_t> v = JsonGetInt(json, "v");
  KG_RETURN_NOT_OK(v.status());
  return CheckProtocolVersion(v.ValueOrDie());
}

JsonValue EncodeRequestOptions(const RequestOptions& o) {
  JsonValue json = JsonValue::Object();
  json.Set("k", JsonValue::Uint(o.k));
  json.Set("tau", JsonValue::Number(o.tau));
  json.Set("n_hat", JsonValue::Uint(o.n_hat));
  json.Set("pivot_strategy",
           JsonValue::String(PivotStrategyName(o.pivot_strategy)));
  json.Set("seed", JsonValue::Uint(o.seed));
  json.Set("dedup", JsonValue::String(DedupModeName(o.dedup)));
  json.Set("max_expansions", JsonValue::Uint(o.max_expansions));
  json.Set("budget_factor", JsonValue::Uint(o.budget_factor));
  json.Set("max_retry_rounds", JsonValue::Uint(o.max_retry_rounds));
  json.Set("matches_per_target", JsonValue::Uint(o.matches_per_target));
  json.Set("time_bound_micros", JsonValue::Int(o.time_bound_micros));
  json.Set("alert_ratio", JsonValue::Number(o.alert_ratio));
  json.Set("per_match_assembly_micros",
           JsonValue::Number(o.per_match_assembly_micros));
  json.Set("match_cap", JsonValue::Uint(o.match_cap));
  json.Set("stop_check_interval", JsonValue::Uint(o.stop_check_interval));
  return json;
}

Result<RequestOptions> DecodeRequestOptions(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("\"options\" must be an object");
  }
  RequestOptions o;
  KG_RETURN_NOT_OK(GetUnsigned(json, "k", o.k, &o.k));
  Result<double> tau = JsonGetNumberOr(json, "tau", o.tau);
  KG_RETURN_NOT_OK(tau.status());
  o.tau = tau.ValueOrDie();
  KG_RETURN_NOT_OK(GetUnsigned(json, "n_hat", o.n_hat, &o.n_hat));
  Result<std::string> strategy = JsonGetStringOr(
      json, "pivot_strategy", PivotStrategyName(o.pivot_strategy));
  KG_RETURN_NOT_OK(strategy.status());
  Result<PivotStrategy> parsed_strategy =
      ParsePivotStrategyName(strategy.ValueOrDie());
  KG_RETURN_NOT_OK(parsed_strategy.status());
  o.pivot_strategy = parsed_strategy.ValueOrDie();
  KG_RETURN_NOT_OK(GetUnsigned(json, "seed", o.seed, &o.seed));
  Result<std::string> dedup =
      JsonGetStringOr(json, "dedup", DedupModeName(o.dedup));
  KG_RETURN_NOT_OK(dedup.status());
  Result<DedupMode> parsed_dedup = ParseDedupModeName(dedup.ValueOrDie());
  KG_RETURN_NOT_OK(parsed_dedup.status());
  o.dedup = parsed_dedup.ValueOrDie();
  KG_RETURN_NOT_OK(
      GetUnsigned(json, "max_expansions", o.max_expansions, &o.max_expansions));
  KG_RETURN_NOT_OK(
      GetUnsigned(json, "budget_factor", o.budget_factor, &o.budget_factor));
  KG_RETURN_NOT_OK(GetUnsigned(json, "max_retry_rounds", o.max_retry_rounds,
                               &o.max_retry_rounds));
  KG_RETURN_NOT_OK(GetUnsigned(json, "matches_per_target",
                               o.matches_per_target, &o.matches_per_target));
  Result<int64_t> bound =
      JsonGetIntOr(json, "time_bound_micros", o.time_bound_micros);
  KG_RETURN_NOT_OK(bound.status());
  o.time_bound_micros = bound.ValueOrDie();
  Result<double> alert = JsonGetNumberOr(json, "alert_ratio", o.alert_ratio);
  KG_RETURN_NOT_OK(alert.status());
  o.alert_ratio = alert.ValueOrDie();
  Result<double> assembly = JsonGetNumberOr(json, "per_match_assembly_micros",
                                            o.per_match_assembly_micros);
  KG_RETURN_NOT_OK(assembly.status());
  o.per_match_assembly_micros = assembly.ValueOrDie();
  KG_RETURN_NOT_OK(GetUnsigned(json, "match_cap", o.match_cap, &o.match_cap));
  KG_RETURN_NOT_OK(GetUnsigned(json, "stop_check_interval",
                               o.stop_check_interval, &o.stop_check_interval));
  return o;
}

}  // namespace

const char* QueryModeName(QueryMode mode) {
  switch (mode) {
    case QueryMode::kSgq: return "sgq";
    case QueryMode::kTbq: return "tbq";
  }
  return "?";
}

Result<QueryMode> ParseQueryModeName(std::string_view name) {
  if (name == "sgq") return QueryMode::kSgq;
  if (name == "tbq") return QueryMode::kTbq;
  return Status::InvalidArgument("unknown query mode: " + std::string(name));
}

Status CheckProtocolVersion(int64_t version) {
  if (version != kApiProtocolVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported protocol version %lld (this build speaks %lld)",
                  static_cast<long long>(version),
                  static_cast<long long>(kApiProtocolVersion)));
  }
  return Status::OK();
}

EngineOptions ToEngineOptions(const RequestOptions& options) {
  EngineOptions o;
  static_cast<QueryKnobs&>(o) = options;
  return o;
}

TimeBoundedOptions ToTimeBoundedOptions(const RequestOptions& options) {
  TimeBoundedOptions o;
  static_cast<QueryKnobs&>(o) = options;
  return o;
}

JsonValue EncodeQueryGraph(const QueryGraph& query) {
  JsonValue json = JsonValue::Object();
  JsonValue nodes = JsonValue::Array();
  for (const QueryNode& node : query.nodes()) {
    JsonValue n = JsonValue::Object();
    n.Set("type", JsonValue::String(node.type));
    if (node.is_specific()) n.Set("name", JsonValue::String(node.name));
    nodes.Append(std::move(n));
  }
  json.Set("nodes", std::move(nodes));
  JsonValue edges = JsonValue::Array();
  for (const QueryEdge& edge : query.edges()) {
    JsonValue e = JsonValue::Object();
    e.Set("from", JsonValue::Int(edge.from));
    e.Set("to", JsonValue::Int(edge.to));
    e.Set("predicate", JsonValue::String(edge.predicate));
    edges.Append(std::move(e));
  }
  json.Set("edges", std::move(edges));
  return json;
}

Result<QueryGraph> DecodeQueryGraph(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("query_graph must be an object");
  }
  const JsonValue* nodes = json.Find("nodes");
  if (nodes == nullptr || !nodes->is_array()) {
    return Status::InvalidArgument("query_graph needs a \"nodes\" array");
  }
  QueryGraph query;
  for (const JsonValue& n : nodes->items()) {
    Result<std::string> type = JsonGetString(n, "type");
    KG_RETURN_NOT_OK(type.status());
    if (!n.is_object() || n.Find("name") == nullptr) {
      query.AddTargetNode(std::move(type).ValueOrDie());
      continue;
    }
    // A present "name" means a specific node; an empty one is a client
    // bug, not a target node.
    Result<std::string> name = JsonGetString(n, "name");
    KG_RETURN_NOT_OK(name.status());
    if (name.ValueOrDie().empty()) {
      return Status::InvalidArgument(
          "query_graph node \"name\" must be non-empty (omit it for a "
          "target node)");
    }
    query.AddSpecificNode(std::move(type).ValueOrDie(),
                          std::move(name).ValueOrDie());
  }
  const JsonValue* edges = json.Find("edges");
  if (edges == nullptr || !edges->is_array()) {
    return Status::InvalidArgument("query_graph needs an \"edges\" array");
  }
  const int64_t num_nodes = static_cast<int64_t>(query.NumNodes());
  for (const JsonValue& e : edges->items()) {
    Result<int64_t> from = JsonGetInt(e, "from");
    KG_RETURN_NOT_OK(from.status());
    Result<int64_t> to = JsonGetInt(e, "to");
    KG_RETURN_NOT_OK(to.status());
    Result<std::string> predicate = JsonGetString(e, "predicate");
    KG_RETURN_NOT_OK(predicate.status());
    // AddEdge KG_CHECKs these invariants; a wire document must fail softly.
    if (from.ValueOrDie() < 0 || from.ValueOrDie() >= num_nodes ||
        to.ValueOrDie() < 0 || to.ValueOrDie() >= num_nodes) {
      return Status::InvalidArgument("query_graph edge endpoint out of range");
    }
    if (from.ValueOrDie() == to.ValueOrDie()) {
      return Status::InvalidArgument("query_graph edge is a self-loop");
    }
    query.AddEdge(static_cast<int>(from.ValueOrDie()),
                  static_cast<int>(to.ValueOrDie()),
                  std::move(predicate).ValueOrDie());
  }
  return query;
}

JsonValue EncodeQueryRequest(const QueryRequest& request) {
  JsonValue json = JsonValue::Object();
  json.Set("v", JsonValue::Int(request.version));
  json.Set("dataset", JsonValue::String(request.dataset));
  json.Set("mode", JsonValue::String(QueryModeName(request.mode)));
  if (!request.query_text.empty()) {
    json.Set("query_text", JsonValue::String(request.query_text));
  }
  if (request.query_graph.has_value()) {
    json.Set("query_graph", EncodeQueryGraph(*request.query_graph));
  }
  json.Set("options", EncodeRequestOptions(request.options));
  json.Set("deadline_ms", JsonValue::Int(request.deadline_ms));
  json.Set("priority",
           JsonValue::String(RequestPriorityName(request.priority)));
  return json;
}

Result<QueryRequest> DecodeQueryRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  KG_RETURN_NOT_OK(CheckVersion(json));
  QueryRequest request;
  Result<std::string> dataset = JsonGetString(json, "dataset");
  KG_RETURN_NOT_OK(dataset.status());
  request.dataset = std::move(dataset).ValueOrDie();
  Result<std::string> mode =
      JsonGetStringOr(json, "mode", QueryModeName(request.mode));
  KG_RETURN_NOT_OK(mode.status());
  Result<QueryMode> parsed_mode = ParseQueryModeName(mode.ValueOrDie());
  KG_RETURN_NOT_OK(parsed_mode.status());
  request.mode = parsed_mode.ValueOrDie();
  Result<std::string> text = JsonGetStringOr(json, "query_text", "");
  KG_RETURN_NOT_OK(text.status());
  request.query_text = std::move(text).ValueOrDie();
  if (const JsonValue* graph = json.Find("query_graph")) {
    Result<QueryGraph> decoded = DecodeQueryGraph(*graph);
    KG_RETURN_NOT_OK(decoded.status());
    request.query_graph = std::move(decoded).ValueOrDie();
  }
  if (const JsonValue* options = json.Find("options")) {
    Result<RequestOptions> decoded = DecodeRequestOptions(*options);
    KG_RETURN_NOT_OK(decoded.status());
    request.options = decoded.ValueOrDie();
  }
  // Backward compatible: documents without the overload-control fields
  // decode to "no deadline, normal priority" — the pre-deadline semantics.
  Result<int64_t> deadline = JsonGetIntOr(json, "deadline_ms", 0);
  KG_RETURN_NOT_OK(deadline.status());
  if (deadline.ValueOrDie() < 0) {
    return Status::InvalidArgument("\"deadline_ms\" must be >= 0");
  }
  request.deadline_ms = deadline.ValueOrDie();
  Result<std::string> priority = JsonGetStringOr(
      json, "priority", RequestPriorityName(request.priority));
  KG_RETURN_NOT_OK(priority.status());
  Result<RequestPriority> parsed_priority =
      ParseRequestPriorityName(priority.ValueOrDie());
  KG_RETURN_NOT_OK(parsed_priority.status());
  request.priority = parsed_priority.ValueOrDie();
  return request;
}

std::string EncodeQueryRequestJson(const QueryRequest& request) {
  return EncodeQueryRequest(request).Dump();
}

Result<QueryRequest> DecodeQueryRequestJson(std::string_view text) {
  // Reject oversized documents before the parser touches them: the cap
  // bounds parse work and allocations against hostile senders, and real
  // requests are orders of magnitude smaller.
  if (text.size() > kMaxWireRequestBytes) {
    return Status::InvalidArgument(
        StrFormat("request document of %zu bytes exceeds the %zu-byte wire "
                  "limit",
                  text.size(), kMaxWireRequestBytes));
  }
  Result<JsonValue> json = JsonValue::Parse(text);
  KG_RETURN_NOT_OK(json.status());
  return DecodeQueryRequest(json.ValueOrDie());
}

JsonValue EncodeQueryResponse(const QueryResponse& response) {
  JsonValue json = JsonValue::Object();
  json.Set("v", JsonValue::Int(response.version));
  json.Set("dataset", JsonValue::String(response.dataset));
  json.Set("mode", JsonValue::String(QueryModeName(response.mode)));
  json.Set("stopped_by_time", JsonValue::Bool(response.stopped_by_time));
  json.Set("deadline_ms", JsonValue::Int(response.deadline_ms));
  json.Set("priority",
           JsonValue::String(RequestPriorityName(response.priority)));
  JsonValue answers = JsonValue::Array();
  for (const AnswerDto& answer : response.answers) {
    JsonValue a = JsonValue::Object();
    a.Set("id", JsonValue::Uint(answer.id));
    a.Set("name", JsonValue::String(answer.name));
    a.Set("type", JsonValue::String(answer.type));
    a.Set("score", JsonValue::Number(answer.score));
    answers.Append(std::move(a));
  }
  json.Set("answers", std::move(answers));
  JsonValue timings = JsonValue::Object();
  timings.Set("parse_ms", JsonValue::Number(response.timings.parse_ms));
  timings.Set("engine_ms", JsonValue::Number(response.timings.engine_ms));
  timings.Set("total_ms", JsonValue::Number(response.timings.total_ms));
  json.Set("timings", std::move(timings));
  JsonValue stats = JsonValue::Object();
  stats.Set("subqueries", JsonValue::Uint(response.stats.subqueries));
  stats.Set("expanded", JsonValue::Uint(response.stats.expanded));
  stats.Set("generated", JsonValue::Uint(response.stats.generated));
  stats.Set("ta_sorted_accesses",
            JsonValue::Uint(response.stats.ta_sorted_accesses));
  stats.Set("ta_early_terminated",
            JsonValue::Bool(response.stats.ta_early_terminated));
  json.Set("stats", std::move(stats));
  return json;
}

Result<QueryResponse> DecodeQueryResponse(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  KG_RETURN_NOT_OK(CheckVersion(json));
  QueryResponse response;
  Result<std::string> dataset = JsonGetString(json, "dataset");
  KG_RETURN_NOT_OK(dataset.status());
  response.dataset = std::move(dataset).ValueOrDie();
  Result<std::string> mode =
      JsonGetStringOr(json, "mode", QueryModeName(response.mode));
  KG_RETURN_NOT_OK(mode.status());
  Result<QueryMode> parsed_mode = ParseQueryModeName(mode.ValueOrDie());
  KG_RETURN_NOT_OK(parsed_mode.status());
  response.mode = parsed_mode.ValueOrDie();
  Result<bool> stopped = JsonGetBoolOr(json, "stopped_by_time", false);
  KG_RETURN_NOT_OK(stopped.status());
  response.stopped_by_time = stopped.ValueOrDie();
  Result<int64_t> deadline = JsonGetIntOr(json, "deadline_ms", 0);
  KG_RETURN_NOT_OK(deadline.status());
  // Same validity rule as the request decoder: the echo of a field must
  // not admit values the field itself rejects.
  if (deadline.ValueOrDie() < 0) {
    return Status::InvalidArgument("\"deadline_ms\" must be >= 0");
  }
  response.deadline_ms = deadline.ValueOrDie();
  Result<std::string> priority = JsonGetStringOr(
      json, "priority", RequestPriorityName(response.priority));
  KG_RETURN_NOT_OK(priority.status());
  Result<RequestPriority> parsed_priority =
      ParseRequestPriorityName(priority.ValueOrDie());
  KG_RETURN_NOT_OK(parsed_priority.status());
  response.priority = parsed_priority.ValueOrDie();
  const JsonValue* answers = json.Find("answers");
  if (answers == nullptr || !answers->is_array()) {
    return Status::InvalidArgument("response needs an \"answers\" array");
  }
  for (const JsonValue& a : answers->items()) {
    AnswerDto answer;
    KG_RETURN_NOT_OK(GetUnsigned(a, "id", 0u, &answer.id));
    Result<std::string> name = JsonGetStringOr(a, "name", "");
    KG_RETURN_NOT_OK(name.status());
    answer.name = std::move(name).ValueOrDie();
    Result<std::string> type = JsonGetStringOr(a, "type", "");
    KG_RETURN_NOT_OK(type.status());
    answer.type = std::move(type).ValueOrDie();
    Result<double> score = JsonGetNumberOr(a, "score", 0.0);
    KG_RETURN_NOT_OK(score.status());
    answer.score = score.ValueOrDie();
    response.answers.push_back(std::move(answer));
  }
  if (const JsonValue* timings = json.Find("timings")) {
    Result<double> parse_ms = JsonGetNumberOr(*timings, "parse_ms", 0.0);
    KG_RETURN_NOT_OK(parse_ms.status());
    response.timings.parse_ms = parse_ms.ValueOrDie();
    Result<double> engine_ms = JsonGetNumberOr(*timings, "engine_ms", 0.0);
    KG_RETURN_NOT_OK(engine_ms.status());
    response.timings.engine_ms = engine_ms.ValueOrDie();
    Result<double> total_ms = JsonGetNumberOr(*timings, "total_ms", 0.0);
    KG_RETURN_NOT_OK(total_ms.status());
    response.timings.total_ms = total_ms.ValueOrDie();
  }
  if (const JsonValue* stats = json.Find("stats")) {
    KG_RETURN_NOT_OK(GetUnsigned(*stats, "subqueries",
                                 response.stats.subqueries,
                                 &response.stats.subqueries));
    KG_RETURN_NOT_OK(GetUnsigned(*stats, "expanded", response.stats.expanded,
                                 &response.stats.expanded));
    KG_RETURN_NOT_OK(GetUnsigned(*stats, "generated",
                                 response.stats.generated,
                                 &response.stats.generated));
    KG_RETURN_NOT_OK(GetUnsigned(*stats, "ta_sorted_accesses",
                                 response.stats.ta_sorted_accesses,
                                 &response.stats.ta_sorted_accesses));
    Result<bool> early =
        JsonGetBoolOr(*stats, "ta_early_terminated", false);
    KG_RETURN_NOT_OK(early.status());
    response.stats.ta_early_terminated = early.ValueOrDie();
  }
  return response;
}

std::string EncodeQueryResponseJson(const QueryResponse& response) {
  return EncodeQueryResponse(response).Dump();
}

Result<QueryResponse> DecodeQueryResponseJson(std::string_view text) {
  Result<JsonValue> json = JsonValue::Parse(text);
  KG_RETURN_NOT_OK(json.status());
  return DecodeQueryResponse(json.ValueOrDie());
}

JsonValue EncodeIngestRequest(const IngestRequest& request) {
  JsonValue json = JsonValue::Object();
  json.Set("v", JsonValue::Int(request.version));
  JsonValue body = JsonValue::Object();
  body.Set("dataset", JsonValue::String(request.dataset));
  JsonValue ops = JsonValue::Array();
  for (const IngestOpDto& op : request.ops) {
    JsonValue o = JsonValue::Object();
    o.Set("op", JsonValue::String(op.retract ? "retract" : "add"));
    o.Set("head", JsonValue::String(op.head));
    o.Set("predicate", JsonValue::String(op.predicate));
    o.Set("tail", JsonValue::String(op.tail));
    if (!op.head_type.empty()) {
      o.Set("head_type", JsonValue::String(op.head_type));
    }
    if (!op.tail_type.empty()) {
      o.Set("tail_type", JsonValue::String(op.tail_type));
    }
    ops.Append(std::move(o));
  }
  body.Set("ops", std::move(ops));
  json.Set("ingest", std::move(body));
  return json;
}

Status CheckIngestOp(const IngestOpDto& op) {
  if (op.head.empty() || op.predicate.empty() || op.tail.empty()) {
    return Status::InvalidArgument(
        "ingest op needs non-empty head, predicate, and tail");
  }
  return Status::OK();
}

Result<IngestRequest> DecodeIngestRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  KG_RETURN_NOT_OK(CheckVersion(json));
  const JsonValue* body = json.Find("ingest");
  if (body == nullptr || !body->is_object()) {
    return Status::InvalidArgument(
        "ingest request needs an \"ingest\" object");
  }
  IngestRequest request;
  Result<std::string> dataset = JsonGetString(*body, "dataset");
  KG_RETURN_NOT_OK(dataset.status());
  request.dataset = std::move(dataset).ValueOrDie();
  const JsonValue* ops = body->Find("ops");
  if (ops == nullptr || !ops->is_array()) {
    return Status::InvalidArgument("ingest request needs an \"ops\" array");
  }
  for (const JsonValue& o : ops->items()) {
    IngestOpDto op;
    Result<std::string> kind = JsonGetStringOr(o, "op", "add");
    KG_RETURN_NOT_OK(kind.status());
    if (kind.ValueOrDie() == "retract") {
      op.retract = true;
    } else if (kind.ValueOrDie() != "add") {
      return Status::InvalidArgument("unknown ingest op (want add/retract): " +
                                     kind.ValueOrDie());
    }
    Result<std::string> head = JsonGetString(o, "head");
    KG_RETURN_NOT_OK(head.status());
    op.head = std::move(head).ValueOrDie();
    Result<std::string> predicate = JsonGetString(o, "predicate");
    KG_RETURN_NOT_OK(predicate.status());
    op.predicate = std::move(predicate).ValueOrDie();
    Result<std::string> tail = JsonGetString(o, "tail");
    KG_RETURN_NOT_OK(tail.status());
    op.tail = std::move(tail).ValueOrDie();
    Result<std::string> head_type = JsonGetStringOr(o, "head_type", "");
    KG_RETURN_NOT_OK(head_type.status());
    op.head_type = std::move(head_type).ValueOrDie();
    Result<std::string> tail_type = JsonGetStringOr(o, "tail_type", "");
    KG_RETURN_NOT_OK(tail_type.status());
    op.tail_type = std::move(tail_type).ValueOrDie();
    KG_RETURN_NOT_OK(CheckIngestOp(op));
    request.ops.push_back(std::move(op));
  }
  return request;
}

std::string EncodeIngestRequestJson(const IngestRequest& request) {
  return EncodeIngestRequest(request).Dump();
}

Result<IngestRequest> DecodeIngestRequestJson(std::string_view text) {
  if (text.size() > kMaxWireRequestBytes) {
    return Status::InvalidArgument(
        StrFormat("request document of %zu bytes exceeds the %zu-byte wire "
                  "limit",
                  text.size(), kMaxWireRequestBytes));
  }
  Result<JsonValue> json = JsonValue::Parse(text);
  KG_RETURN_NOT_OK(json.status());
  return DecodeIngestRequest(json.ValueOrDie());
}

JsonValue EncodeIngestResponse(const IngestResponse& response) {
  JsonValue json = JsonValue::Object();
  json.Set("v", JsonValue::Int(response.version));
  JsonValue body = JsonValue::Object();
  body.Set("dataset", JsonValue::String(response.dataset));
  body.Set("epoch", JsonValue::Uint(response.epoch));
  body.Set("ops_applied", JsonValue::Uint(response.ops_applied));
  json.Set("ingest", std::move(body));
  return json;
}

Result<IngestResponse> DecodeIngestResponse(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  KG_RETURN_NOT_OK(CheckVersion(json));
  const JsonValue* body = json.Find("ingest");
  if (body == nullptr || !body->is_object()) {
    return Status::InvalidArgument(
        "ingest response needs an \"ingest\" object");
  }
  IngestResponse response;
  Result<std::string> dataset = JsonGetString(*body, "dataset");
  KG_RETURN_NOT_OK(dataset.status());
  response.dataset = std::move(dataset).ValueOrDie();
  KG_RETURN_NOT_OK(
      GetUnsigned(*body, "epoch", response.epoch, &response.epoch));
  KG_RETURN_NOT_OK(GetUnsigned(*body, "ops_applied", response.ops_applied,
                               &response.ops_applied));
  return response;
}

std::string EncodeIngestResponseJson(const IngestResponse& response) {
  return EncodeIngestResponse(response).Dump();
}

Result<IngestResponse> DecodeIngestResponseJson(std::string_view text) {
  Result<JsonValue> json = JsonValue::Parse(text);
  KG_RETURN_NOT_OK(json.status());
  return DecodeIngestResponse(json.ValueOrDie());
}

std::string EncodeErrorJson(const Status& status) {
  JsonValue json = JsonValue::Object();
  json.Set("v", JsonValue::Int(kApiProtocolVersion));
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(StatusCodeName(status.code())));
  error.Set("message", JsonValue::String(status.message()));
  json.Set("error", std::move(error));
  return json.Dump();
}

}  // namespace kgsearch
