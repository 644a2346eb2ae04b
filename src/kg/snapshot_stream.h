// The kgpack writer: the one encoder of kgpack bytes (kg/snapshot.h).
//
// EncodeSnapshot, SaveSnapshot, and the million-scale generator
// (gen/scale_kg.h) all write through SnapshotStreamWriter, so their bytes
// agree by construction. A writer has one of two sinks:
//
//  - a file (Open): holds only O(buffer) memory, so a generator can write
//    a graph it never materializes;
//  - a growable std::string (OpenInMemory): the bytes EncodeSnapshot
//    returns, with the CRC computed in place.
//
// How the file sink stays bounded:
//
//  - Callers declare each graph array's size up front (counts are cheap to
//    precompute with one extra pass over a deterministic source), then
//    append elements; the writer computes every absolute file offset from
//    the declared sizes and lays each byte down at its final position.
//  - Arrays whose regions interleave in the file (a dictionary's blob and
//    offsets table; the adjacency structure-of-arrays) are written through
//    per-region cursors with small flush buffers, so one pass over the
//    source fills several file regions at once.
//  - Section/payload lengths are patched into reserved slots once known,
//    and the header CRC-32 is computed at Finish() by re-reading the
//    payload from disk in chunks (Crc32Update), never by buffering it.
//
// The writer enforces the declared sizes strictly: appending more or fewer
// bytes/elements than declared is an error, so a bug cannot silently
// produce a malformed file with a valid checksum.
#ifndef KGSEARCH_KG_SNAPSHOT_STREAM_H_
#define KGSEARCH_KG_SNAPSHOT_STREAM_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "embedding/predicate_space.h"
#include "kg/graph.h"
#include "match/transformation_library.h"
#include "util/status.h"

namespace kgsearch {

/// Write-side accounting, for tests asserting the streaming path's memory
/// stays independent of graph size.
struct SnapshotStreamStats {
  uint64_t file_bytes = 0;          ///< total bytes written (after Finish)
  size_t peak_buffered_bytes = 0;   ///< high-water mark across all buffers
};

/// Writes one kgpack snapshot front to back. Call sequence mirrors the
/// section layout; WriteGraph(graph) stands in for the whole graph section
/// when a finalized graph is at hand:
///
///   BeginGraphSection
///     [names]      BeginDictionary AppendSymbol... EndDictionary
///     [types]      BeginDictionary AppendSymbol... EndDictionary
///     [predicates] BeginDictionary AppendSymbol... EndDictionary
///     [node types] BeginNodeTypes AppendNodeType... EndNodeTypes
///     [triples]    BeginTriples AppendTriple... EndTriples
///     [CSR]        BeginAdjOffsets AppendAdjOffset... EndAdjOffsets
///                  BeginAdjacency AppendAdjEntry... EndAdjacency
///     [type index] BeginTypeOffsets AppendTypeOffset... EndTypeOffsets
///                  BeginTypeMembers AppendTypeMember... EndTypeMembers
///   EndGraphSection
///   WriteLibrarySection, WriteSpaceSection   (small; taken whole)
///   Finish
///
/// All methods are sticky on error: after any non-OK status the writer
/// ignores further appends and Finish() returns the first error.
class SnapshotStreamWriter {
 public:
  /// Creates/truncates `path`. `buffer_bytes` caps each region buffer (two
  /// regions are live during dictionaries, three during adjacency).
  static Result<std::unique_ptr<SnapshotStreamWriter>> Open(
      const std::string& path, size_t buffer_bytes = 1 << 20);

  /// Writes into `*out` (cleared first; it must outlive the writer)
  /// instead of a file; after Finish() it holds the whole kgpack.
  /// Positioned writes go straight into the string, with no region buffers.
  static std::unique_ptr<SnapshotStreamWriter> OpenInMemory(std::string* out);

  ~SnapshotStreamWriter();
  SnapshotStreamWriter(const SnapshotStreamWriter&) = delete;
  SnapshotStreamWriter& operator=(const SnapshotStreamWriter&) = delete;

  /// The whole graph section of a finalized graph, its arrays in canonical
  /// order; contiguous arrays are appended in bulk. Replaces the
  /// BeginGraphSection ... EndGraphSection sequence.
  Status WriteGraph(const KnowledgeGraph& graph);

  Status BeginGraphSection();

  /// A dictionary streams as blob + offsets table; both regions are sized
  /// by the declaration and filled per AppendSymbol.
  Status BeginDictionary(uint64_t total_payload_bytes, uint64_t num_symbols);
  Status AppendSymbol(std::string_view symbol);
  Status EndDictionary();

  Status BeginNodeTypes(uint64_t num_nodes);
  Status AppendNodeType(TypeId type);
  Status EndNodeTypes();

  Status BeginTriples(uint64_t num_triples);
  Status AppendTriple(const Triple& triple);
  Status EndTriples();

  /// num_nodes + 1 offsets, first 0, last 2 * num_triples.
  Status BeginAdjOffsets(uint64_t num_nodes);
  Status AppendAdjOffset(uint64_t offset);
  Status EndAdjOffsets();

  /// Adjacency structure-of-arrays: one AppendAdjEntry in CSR order feeds
  /// the neighbors, predicates, and forward-flag regions simultaneously.
  Status BeginAdjacency(uint64_t num_entries);
  Status AppendAdjEntry(const AdjEntry& entry);
  Status EndAdjacency();

  Status BeginTypeOffsets(uint64_t num_types);
  Status AppendTypeOffset(uint64_t offset);
  Status EndTypeOffsets();

  Status BeginTypeMembers(uint64_t num_members);
  Status AppendTypeMember(NodeId node);
  Status EndTypeMembers();

  Status EndGraphSection();

  /// Library/space sections are small (alias records, one vector per
  /// predicate), so each is encoded whole and written in one piece.
  Status WriteLibrarySection(const TransformationLibrary& library);
  Status WriteSpaceSection(const PredicateSpace& space);

  /// Flushes, patches the payload length, computes the header CRC (a
  /// chunked re-read of the file, or in place in memory), patches it, and
  /// closes the file.
  Status Finish();

  const SnapshotStreamStats& stats() const { return stats_; }

 private:
  /// One independently positioned write region with a flush buffer.
  struct Region {
    uint64_t file_pos = 0;   ///< next absolute file offset
    uint64_t remaining = 0;  ///< bytes this region may still accept
    std::string buffer;
  };

  enum class Stage {
    kHeader,
    kGraphOpen,       // inside the graph section, between arrays
    kDictionary,
    kNodeTypes,
    kTriples,
    kAdjOffsets,
    kAdjacency,
    kTypeOffsets,
    kTypeMembers,
    kGraphDone,       // graph section closed, library/space pending
    kLibraryDone,
    kSpaceDone,
    kFinished,
  };

  /// `memory` null selects the file sink. Writes the header; an error
  /// sticks in status_.
  SnapshotStreamWriter(std::fstream file, std::string* memory,
                       size_t buffer_bytes);

  /// Records `error` as the sticky status and returns it.
  Status Fail(Status error);
  Status CheckStage(Stage expected, const char* what);
  /// Append to one region: buffered while under the cap, written through
  /// otherwise (always, for the in-memory sink).
  Status RegionWrite(Region* region, const void* data, size_t size);
  Status FlushRegion(Region* region);
  /// Unbuffered positioned write into the sink (length patches).
  Status WriteAt(uint64_t pos, const void* data, size_t size);
  /// WriteAt the cursor, then advance it (header, count prefixes, framing).
  Status WriteAtCursor(const void* data, size_t size);
  Status WriteScalarU64(Region* region, uint64_t v);
  /// Declares a region at the current cursor and advances the cursor past
  /// it, so several regions can be filled in parallel.
  Region MakeRegion(uint64_t size);
  /// Folds the bytes buffered across all regions into the peak. Called
  /// before each flush: buffers only grow between flushes, so that is
  /// where the total peaks.
  void TrackBuffered();
  /// Shared body of the single-region array Begin*/Append*/End* methods:
  /// Begin enforces the graph array order, writes the count prefix, and
  /// sizes the region; Append takes any number of elements.
  Status BeginArray(Stage stage, int which, const char* what,
                    uint64_t element_count, size_t element_bytes);
  Status AppendElements(Stage stage, const char* what, const void* data,
                        uint64_t count, size_t element_bytes);
  Status EndArray(Stage stage, const char* what);
  /// One whole single-region array (WriteGraph's bulk path).
  template <typename T>
  Status WriteArray(Stage stage, int which, std::span<const T> values);
  /// u32 id + u64 length + body, all at the cursor (library/space).
  Status WriteWholeSection(uint32_t id, std::string_view body);

  std::fstream file_;
  std::string* memory_;  ///< the in-memory sink; null for the file sink
  size_t buffer_cap_;
  Status status_ = Status::OK();
  Stage stage_ = Stage::kHeader;
  SnapshotStreamStats stats_;

  uint64_t cursor_ = 0;  ///< end of the laid-out file so far
  uint64_t graph_len_slot_ = 0;
  uint64_t graph_body_start_ = 0;

  // Active array state.
  Region blob_region_;     // dictionary blob / single sequential arrays
  Region offsets_region_;  // dictionary offsets table
  Region preds_region_;    // adjacency predicate ids
  Region flags_region_;    // adjacency forward flags
  uint64_t expected_elems_ = 0;
  uint64_t appended_elems_ = 0;
  uint64_t dict_blob_off_ = 0;  // running offset inside the dictionary blob
  int array_index_ = 0;         // next graph array expected (canonical order)
};

/// True when `path` holds a well-formed kgpack file: the header check
/// DecodeSnapshot runs (magic, version, payload length, CRC) passes. Reads
/// the file in chunks; never loads it whole. Tests use it to check
/// generated files.
Result<bool> VerifySnapshotFileChecksum(const std::string& path);

}  // namespace kgsearch

#endif  // KGSEARCH_KG_SNAPSHOT_STREAM_H_
