// kgpack: versioned, checksummed binary snapshots of a finalized dataset.
//
// A snapshot bundles everything KgSession needs to serve a dataset — the
// KnowledgeGraph (dictionaries, triples, CSR adjacency, type index), the
// TransformationLibrary, and the trained PredicateSpace — into one file, so
// a restart restores a dataset with a handful of bulk reads into
// preallocated flat buffers instead of re-parsing N-Triples and re-training
// TransE. Embedding floats are stored as raw IEEE-754 bits, so a loaded
// dataset answers queries bit-identically to the one that was saved (the
// snapshot differential tests assert this end to end).
//
// File layout (all integers little-endian):
//   [0..3]   magic "KGPK"
//   [4..7]   u32 format version (kKgPackVersion)
//   [8..15]  u64 payload byte length
//   [16..19] u32 CRC-32 of the payload
//   [20.. ]  payload: the GRAPH, LIBRARY, and SPACE sections in that order,
//            each prefixed by u32 section id + u64 section byte length
//
// Every kgpack byte is written by one encoder, SnapshotStreamWriter
// (kg/snapshot_stream.h): EncodeSnapshot drives its in-memory sink,
// SaveSnapshot and the scale generator its file sink.
//
// Decoding is total: wrong magic, versions from the future, truncation,
// checksum mismatches, and structurally inconsistent payloads all return a
// precise Status — never an abort, never a silently wrong graph (the graph
// section re-runs every Finalize() invariant before installing the CSR).
#ifndef KGSEARCH_KG_SNAPSHOT_H_
#define KGSEARCH_KG_SNAPSHOT_H_

#include <memory>
#include <string>
#include <string_view>

#include "embedding/predicate_space.h"
#include "kg/graph.h"
#include "match/transformation_library.h"
#include "util/status.h"

namespace kgsearch {

/// Format version written by this build; decoders reject anything newer.
inline constexpr uint32_t kKgPackVersion = 1;

/// The 4-byte file magic.
inline constexpr std::string_view kKgPackMagic = "KGPK";

/// True when `bytes` starts with the kgpack magic (the sniff LoadDataset
/// uses to route a graph file to the snapshot fast path).
bool LooksLikeKgPack(std::string_view bytes);

/// A decoded snapshot: a finalized graph plus its matching space/library.
struct DatasetSnapshot {
  std::unique_ptr<KnowledgeGraph> graph;
  std::unique_ptr<PredicateSpace> space;
  TransformationLibrary library;
};

/// The consistency contract between a graph and its predicate space:
/// `space` covers every graph predicate id, under the same name. The
/// snapshot encoders and decoder and KgSession's dataset registration all
/// call this one check; a violation is kInvalidArgument.
Status CheckSpaceCoversGraph(const KnowledgeGraph& graph,
                             const PredicateSpace& space);

/// Serializes a dataset to kgpack bytes through SnapshotStreamWriter's
/// in-memory sink. The graph must be finalized and pass
/// CheckSpaceCoversGraph; violations are kInvalidArgument.
Result<std::string> EncodeSnapshot(const KnowledgeGraph& graph,
                                   const PredicateSpace& space,
                                   const TransformationLibrary& library);

/// Parses kgpack bytes back into a servable dataset.
Result<DatasetSnapshot> DecodeSnapshot(std::string_view bytes);

/// Validates like EncodeSnapshot, then streams the dataset straight into
/// `path` through SnapshotStreamWriter; the file is never held in memory
/// whole. Invalid input is rejected before `path` is opened, so it leaves
/// an existing file untouched. The write is in place (no write-then-rename):
/// a save cut short leaves a file that fails its checksum on load.
Status SaveSnapshot(const std::string& path, const KnowledgeGraph& graph,
                    const PredicateSpace& space,
                    const TransformationLibrary& library);

/// One bulk file read + DecodeSnapshot.
Result<DatasetSnapshot> LoadSnapshot(const std::string& path);

/// Format internals shared by the writer (kg/snapshot_stream.h) and the
/// decoder. Not API.
namespace snapshot_internal {

/// Payload section ids, in required file order.
inline constexpr uint32_t kSectionGraph = 1;
inline constexpr uint32_t kSectionLibrary = 2;
inline constexpr uint32_t kSectionSpace = 3;

/// Magic + version + payload length + CRC.
inline constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4;

/// The one header check, shared by DecodeSnapshot and
/// VerifySnapshotFileChecksum: `header` starts with the file's first
/// kHeaderBytes (fewer is a truncation error), and `payload_bytes` and
/// `payload_crc` describe everything after them. Checks magic, version,
/// declared payload length, and CRC, in that order; kParseError otherwise.
Status CheckHeader(std::string_view header, uint64_t payload_bytes,
                   uint32_t payload_crc);

}  // namespace snapshot_internal

}  // namespace kgsearch

#endif  // KGSEARCH_KG_SNAPSHOT_H_
