// Versioned request/response DTOs of the public API, with JSON
// encode/decode so requests and results are wire-ready.
//
// Design rules:
//  - The DTOs are plain value types with defaulted equality, so
//    decode(encode(x)) == x is testable exactly (doubles are written with
//    shortest-round-trip precision by util/json).
//  - RequestOptions is the engine's own QueryKnobs (core/engine.h), so the
//    wire carries exactly the per-query knobs with the engine's defaults,
//    and a default-constructed request behaves exactly like a direct engine
//    call. QueryRequest::mode picks the stop policy. The per-call context
//    of QueryOptions (threads, executor, deadline, cancel token, pinned
//    view) is deliberately not part of the wire protocol.
//  - Decoders are total: any malformed document returns
//    kParseError/kInvalidArgument, never an abort.
#ifndef KGSEARCH_API_PROTOCOL_H_
#define KGSEARCH_API_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "service/admission.h"
#include "util/json.h"

namespace kgsearch {

/// Wire protocol version; encoded as "v" and checked by every decoder.
inline constexpr int64_t kApiProtocolVersion = 1;

/// Hard cap on one wire request document (1 MiB). ParseWireRequest
/// rejects longer text before parsing, bounding the parser's work and
/// allocations against hostile senders; the TCP server additionally
/// enforces it as its default line-length limit. Generous: a real request
/// with a large explicit QueryGraph is a few KiB.
inline constexpr size_t kMaxWireRequestBytes = size_t{1} << 20;

/// Parses one wire request document after checking it against
/// kMaxWireRequestBytes (kInvalidArgument when longer). The JSON request
/// decoders and the TCP server read every request document through it.
Result<JsonValue> ParseWireRequest(std::string_view text);

/// Wire names of the query modes (core/engine.h): "sgq" and "tbq".
const char* QueryModeName(QueryMode mode);
Result<QueryMode> ParseQueryModeName(std::string_view name);

/// kInvalidArgument when `version` is not the protocol this build speaks;
/// shared by the JSON decoders and the in-process DTO entry points.
Status CheckProtocolVersion(int64_t version);

/// The per-query knobs of a request, declared once in core/engine.h.
using RequestOptions = QueryKnobs;

/// The SGQ and TBQ presets of QueryOptions carrying `options`
/// (executor/threads left at their defaults; the serving layer injects its
/// own executor).
EngineOptions ToEngineOptions(const RequestOptions& options);
TimeBoundedOptions ToTimeBoundedOptions(const RequestOptions& options);

/// One query request against a named dataset. The query is given either as
/// text (api/query_text grammar) or as an explicit QueryGraph; when both
/// are present the graph wins.
struct QueryRequest {
  int64_t version = kApiProtocolVersion;
  std::string dataset;
  QueryMode mode = QueryMode::kSgq;
  std::string query_text;
  std::optional<QueryGraph> query_graph;
  RequestOptions options;
  /// Relative time budget in milliseconds, stamped into an absolute engine
  /// deadline when the session accepts the request (so queue wait counts).
  /// 0 = no deadline — the pre-deadline wire behavior, and what decoders
  /// assume when the field is absent. Negative values are rejected.
  int64_t deadline_ms = 0;
  /// Admission class; "normal" (the default, also assumed when absent on
  /// the wire) is subject to the service's admission limits, "high"
  /// bypasses them.
  RequestPriority priority = RequestPriority::kNormal;

  bool operator==(const QueryRequest&) const = default;
};

/// One ranked answer: the matched pivot entity with its display metadata.
struct AnswerDto {
  uint32_t id = 0;       ///< NodeId in the dataset's graph
  std::string name;
  std::string type;
  double score = 0.0;    ///< Sm(u^p), descending across the answer list

  bool operator==(const AnswerDto&) const = default;
};

/// Per-stage wall-clock timings of one request.
struct ResponseTimings {
  double parse_ms = 0.0;   ///< query-text parsing (0 for QueryGraph input)
  double engine_ms = 0.0;  ///< engine execution (decompose+search+assembly)
  double total_ms = 0.0;   ///< end-to-end inside the facade

  bool operator==(const ResponseTimings&) const = default;
};

/// Aggregated engine counters of one request.
struct ResponseStats {
  uint64_t subqueries = 0;          ///< sub-query path graphs searched
  uint64_t expanded = 0;            ///< A* states expanded, summed
  uint64_t generated = 0;           ///< sub-query matches emitted, summed
  uint64_t ta_sorted_accesses = 0;  ///< TA assembly sorted accesses
  bool ta_early_terminated = false;

  bool operator==(const ResponseStats&) const = default;
};

/// The answer to one QueryRequest.
struct QueryResponse {
  int64_t version = kApiProtocolVersion;
  std::string dataset;
  QueryMode mode = QueryMode::kSgq;
  /// TBQ only: true when the time estimator stopped a search early.
  bool stopped_by_time = false;
  /// Echo of the request's deadline/priority (0 / "normal" when the
  /// request carried none), so wire clients can correlate responses with
  /// the budget they asked for.
  int64_t deadline_ms = 0;
  RequestPriority priority = RequestPriority::kNormal;
  std::vector<AnswerDto> answers;  ///< descending score
  ResponseTimings timings;
  ResponseStats stats;

  bool operator==(const QueryResponse&) const = default;
};

// ----- live ingest (delta overlay) -----

/// One mutation in an ingest batch. `retract` removes an existing triple;
/// an add may create nodes, in which case `head_type`/`tail_type` name the
/// new node's type (empty = "Thing"; an existing node keeps its type).
struct IngestOpDto {
  bool retract = false;
  std::string head;
  std::string predicate;
  std::string tail;
  std::string head_type;
  std::string tail_type;

  bool operator==(const IngestOpDto&) const = default;
};

/// The rule every ingest op obeys, on the wire and in process: head,
/// predicate and tail are non-empty. kInvalidArgument otherwise.
Status CheckIngestOp(const IngestOpDto& op);

/// An atomically applied mutation batch against a named dataset's delta
/// overlay (kg/delta_overlay.h). Wire form:
///   {"v":1,"ingest":{"dataset":"d","ops":[{"op":"add","head":"a",
///    "predicate":"p","tail":"b","head_type":"T"}, ...]}}
/// The top-level "ingest" member is what routes the line away from the
/// query path (server/tcp_server.h).
struct IngestRequest {
  int64_t version = kApiProtocolVersion;
  std::string dataset;
  std::vector<IngestOpDto> ops;

  bool operator==(const IngestRequest&) const = default;
};

/// Acknowledgement of one committed batch. `epoch` is the snapshot epoch
/// the batch published; queries pinned at or after it see every op.
struct IngestResponse {
  int64_t version = kApiProtocolVersion;
  std::string dataset;
  uint64_t epoch = 0;
  uint64_t ops_applied = 0;

  bool operator==(const IngestResponse&) const = default;
};

// ----- JSON codecs -----

JsonValue EncodeQueryGraph(const QueryGraph& query);
Result<QueryGraph> DecodeQueryGraph(const JsonValue& json);

JsonValue EncodeQueryRequest(const QueryRequest& request);
Result<QueryRequest> DecodeQueryRequest(const JsonValue& json);
std::string EncodeQueryRequestJson(const QueryRequest& request);
Result<QueryRequest> DecodeQueryRequestJson(std::string_view text);

JsonValue EncodeQueryResponse(const QueryResponse& response);
Result<QueryResponse> DecodeQueryResponse(const JsonValue& json);
std::string EncodeQueryResponseJson(const QueryResponse& response);
Result<QueryResponse> DecodeQueryResponseJson(std::string_view text);

JsonValue EncodeIngestRequest(const IngestRequest& request);
Result<IngestRequest> DecodeIngestRequest(const JsonValue& json);
std::string EncodeIngestRequestJson(const IngestRequest& request);
Result<IngestRequest> DecodeIngestRequestJson(std::string_view text);

JsonValue EncodeIngestResponse(const IngestResponse& response);
Result<IngestResponse> DecodeIngestResponse(const JsonValue& json);
std::string EncodeIngestResponseJson(const IngestResponse& response);
Result<IngestResponse> DecodeIngestResponseJson(std::string_view text);

/// Encodes a failure as the wire error document
/// {"v":1,"error":{"code":"InvalidArgument","message":"..."}}.
std::string EncodeErrorJson(const Status& status);

}  // namespace kgsearch

#endif  // KGSEARCH_API_PROTOCOL_H_
