#include "kg/snapshot.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "kg/snapshot_stream.h"
#include "kg/triple_io.h"
#include "util/binary_io.h"
#include "util/string_util.h"

namespace kgsearch {

using snapshot_internal::kHeaderBytes;
using snapshot_internal::kSectionGraph;
using snapshot_internal::kSectionLibrary;
using snapshot_internal::kSectionSpace;

namespace {

// ----- decoding -----

Result<Dictionary> ReadDictionary(BinaryReader* in) {
  std::string_view blob;
  KG_RETURN_NOT_OK(in->ReadStringView(&blob));
  std::vector<uint64_t> offsets;
  KG_RETURN_NOT_OK(in->ReadVector(&offsets));
  return Dictionary::FromFlat(blob, offsets);
}

Result<std::unique_ptr<KnowledgeGraph>> ReadGraphSection(BinaryReader* in) {
  KnowledgeGraph::FlatParts parts;
  {
    Result<Dictionary> names = ReadDictionary(in);
    KG_RETURN_NOT_OK(names.status());
    parts.names = std::move(names).ValueOrDie();
    Result<Dictionary> types = ReadDictionary(in);
    KG_RETURN_NOT_OK(types.status());
    parts.types = std::move(types).ValueOrDie();
    Result<Dictionary> predicates = ReadDictionary(in);
    KG_RETURN_NOT_OK(predicates.status());
    parts.predicates = std::move(predicates).ValueOrDie();
  }
  KG_RETURN_NOT_OK(in->ReadVector(&parts.node_types));
  KG_RETURN_NOT_OK(in->ReadVector(&parts.triples));

  std::vector<NodeId> neighbors;
  std::vector<PredicateId> predicates;
  std::vector<uint8_t> forward;
  KG_RETURN_NOT_OK(in->ReadVector(&parts.adj_offsets));
  KG_RETURN_NOT_OK(in->ReadVector(&neighbors));
  KG_RETURN_NOT_OK(in->ReadVector(&predicates));
  KG_RETURN_NOT_OK(in->ReadVector(&forward));
  if (neighbors.size() != predicates.size() ||
      neighbors.size() != forward.size()) {
    return Status::ParseError("adjacency arrays have mismatched lengths");
  }
  parts.adj.resize(neighbors.size());
  for (size_t i = 0; i < neighbors.size(); ++i) {
    parts.adj[i] = AdjEntry{neighbors[i], predicates[i], forward[i] != 0};
  }

  KG_RETURN_NOT_OK(in->ReadVector(&parts.type_offsets));
  KG_RETURN_NOT_OK(in->ReadVector(&parts.type_members));
  return KnowledgeGraph::FromFlatParts(std::move(parts));
}

Result<TransformationLibrary> ReadLibrarySection(BinaryReader* in) {
  uint64_t count = 0;
  KG_RETURN_NOT_OK(in->ReadU64(&count));
  TransformationLibrary library;
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t scope = 0, kind = 0;
    std::string_view alias, canonical;
    KG_RETURN_NOT_OK(in->ReadU8(&scope));
    KG_RETURN_NOT_OK(in->ReadU8(&kind));
    KG_RETURN_NOT_OK(in->ReadStringView(&alias));
    KG_RETURN_NOT_OK(in->ReadStringView(&canonical));
    if (scope > 1) {
      return Status::ParseError("library record has invalid scope");
    }
    const auto match_kind = static_cast<MatchKind>(kind);
    if (match_kind != MatchKind::kSynonym &&
        match_kind != MatchKind::kAbbreviation) {
      return Status::ParseError("library record has invalid kind");
    }
    if (scope == 1) {
      if (match_kind == MatchKind::kSynonym) {
        library.AddTypeSynonym(alias, canonical);
      } else {
        library.AddTypeAbbreviation(alias, canonical);
      }
    } else {
      if (match_kind == MatchKind::kSynonym) {
        library.AddNameSynonym(alias, canonical);
      } else {
        library.AddNameAbbreviation(alias, canonical);
      }
    }
  }
  return library;
}

Result<std::unique_ptr<PredicateSpace>> ReadSpaceSection(BinaryReader* in) {
  uint64_t count = 0;
  KG_RETURN_NOT_OK(in->ReadU64(&count));
  if (count > in->remaining() / sizeof(uint64_t)) {
    return Status::ParseError("predicate count exceeds input size");
  }
  std::vector<std::string> names(count);
  VectorStore store;
  FloatVec row;
  for (uint64_t p = 0; p < count; ++p) {
    KG_RETURN_NOT_OK(in->ReadString(&names[p]));
    KG_RETURN_NOT_OK(in->ReadVector(&row));
    // The first row fixes the store geometry; later rows stream straight
    // into the flat block. Verbatim install — vectors were normalized when
    // the saved space was built, and re-normalizing would perturb the
    // float bits.
    if (p == 0) store = VectorStore(count, row.size());
    if (row.size() != store.dim()) {
      return Status::ParseError(
          "predicate vector dimension mismatch in kgpack space section");
    }
    store.SetRow(p, row.data(), row.size());
  }
  return std::make_unique<PredicateSpace>(
      PredicateSpace::FromStore(std::move(store), std::move(names)));
}

Result<std::string_view> ReadSection(BinaryReader* in, uint32_t expected_id) {
  uint32_t id = 0;
  KG_RETURN_NOT_OK(in->ReadU32(&id));
  if (id != expected_id) {
    return Status::ParseError(StrFormat(
        "expected kgpack section %u, found %u", expected_id, id));
  }
  std::string_view body;
  Status read = in->ReadStringView(&body);
  if (!read.ok()) {
    return Status::ParseError(StrFormat("kgpack section %u is truncated",
                                        id));
  }
  return body;
}

// ----- encoding -----

/// Rejects what the writer cannot encode, before any byte is written (and
/// before SaveSnapshot truncates its file).
Status CheckEncodable(const KnowledgeGraph& graph,
                      const PredicateSpace& space) {
  if (!graph.finalized()) {
    return Status::InvalidArgument(
        "snapshots require a finalized graph (call Finalize() first)");
  }
  return CheckSpaceCoversGraph(graph, space);
}

Status WriteDataset(SnapshotStreamWriter* writer, const KnowledgeGraph& graph,
                    const PredicateSpace& space,
                    const TransformationLibrary& library) {
  KG_RETURN_NOT_OK(writer->WriteGraph(graph));
  KG_RETURN_NOT_OK(writer->WriteLibrarySection(library));
  KG_RETURN_NOT_OK(writer->WriteSpaceSection(space));
  return writer->Finish();
}

}  // namespace

bool LooksLikeKgPack(std::string_view bytes) {
  return bytes.size() >= kKgPackMagic.size() &&
         bytes.substr(0, kKgPackMagic.size()) == kKgPackMagic;
}

Status CheckSpaceCoversGraph(const KnowledgeGraph& graph,
                             const PredicateSpace& space) {
  if (space.NumPredicates() < graph.NumPredicates()) {
    return Status::InvalidArgument(StrFormat(
        "predicate space covers %zu of the graph's %zu predicates",
        space.NumPredicates(), graph.NumPredicates()));
  }
  for (PredicateId p = 0; p < graph.NumPredicates(); ++p) {
    if (space.names()[p] != graph.PredicateName(p)) {
      return Status::InvalidArgument(
          StrFormat("predicate %u named \"%s\" in the space but \"%s\" in "
                    "the graph",
                    p, space.names()[p].c_str(),
                    std::string(graph.PredicateName(p)).c_str()));
    }
  }
  return Status::OK();
}

Result<std::string> EncodeSnapshot(const KnowledgeGraph& graph,
                                   const PredicateSpace& space,
                                   const TransformationLibrary& library) {
  KG_RETURN_NOT_OK(CheckEncodable(graph, space));
  std::string bytes;
  std::unique_ptr<SnapshotStreamWriter> writer =
      SnapshotStreamWriter::OpenInMemory(&bytes);
  KG_RETURN_NOT_OK(WriteDataset(writer.get(), graph, space, library));
  return bytes;
}

Result<DatasetSnapshot> DecodeSnapshot(std::string_view bytes) {
  const std::string_view payload =
      bytes.substr(std::min(bytes.size(), kHeaderBytes));
  KG_RETURN_NOT_OK(snapshot_internal::CheckHeader(bytes, payload.size(),
                                                  Crc32(payload)));

  BinaryReader in(payload);
  Result<std::string_view> graph_body = ReadSection(&in, kSectionGraph);
  KG_RETURN_NOT_OK(graph_body.status());
  Result<std::string_view> library_body = ReadSection(&in, kSectionLibrary);
  KG_RETURN_NOT_OK(library_body.status());
  Result<std::string_view> space_body = ReadSection(&in, kSectionSpace);
  KG_RETURN_NOT_OK(space_body.status());
  if (!in.AtEnd()) {
    return Status::ParseError("trailing bytes after the kgpack sections");
  }

  DatasetSnapshot snapshot;
  {
    BinaryReader section(graph_body.ValueOrDie());
    Result<std::unique_ptr<KnowledgeGraph>> graph =
        ReadGraphSection(&section);
    KG_RETURN_NOT_OK(graph.status());
    if (!section.AtEnd()) {
      return Status::ParseError("trailing bytes in the kgpack graph section");
    }
    snapshot.graph = std::move(graph).ValueOrDie();
  }
  {
    BinaryReader section(library_body.ValueOrDie());
    Result<TransformationLibrary> library = ReadLibrarySection(&section);
    KG_RETURN_NOT_OK(library.status());
    if (!section.AtEnd()) {
      return Status::ParseError(
          "trailing bytes in the kgpack library section");
    }
    snapshot.library = std::move(library).ValueOrDie();
  }
  {
    BinaryReader section(space_body.ValueOrDie());
    Result<std::unique_ptr<PredicateSpace>> space =
        ReadSpaceSection(&section);
    KG_RETURN_NOT_OK(space.status());
    if (!section.AtEnd()) {
      return Status::ParseError("trailing bytes in the kgpack space section");
    }
    snapshot.space = std::move(space).ValueOrDie();
  }
  KG_RETURN_NOT_OK(CheckSpaceCoversGraph(*snapshot.graph, *snapshot.space));
  return snapshot;
}

Status SaveSnapshot(const std::string& path, const KnowledgeGraph& graph,
                    const PredicateSpace& space,
                    const TransformationLibrary& library) {
  KG_RETURN_NOT_OK(CheckEncodable(graph, space));
  Result<std::unique_ptr<SnapshotStreamWriter>> writer =
      SnapshotStreamWriter::Open(path);
  KG_RETURN_NOT_OK(writer.status());
  return WriteDataset(writer.ValueOrDie().get(), graph, space, library);
}

Result<DatasetSnapshot> LoadSnapshot(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  KG_RETURN_NOT_OK(bytes.status());
  return DecodeSnapshot(bytes.ValueOrDie());
}

namespace snapshot_internal {

Status CheckHeader(std::string_view header, uint64_t payload_bytes,
                   uint32_t payload_crc) {
  if (header.size() < kHeaderBytes) {
    return Status::ParseError(StrFormat(
        "kgpack header truncated: %zu bytes, need %zu", header.size(),
        kHeaderBytes));
  }
  if (!LooksLikeKgPack(header)) {
    return Status::ParseError("not a kgpack snapshot (bad magic)");
  }
  BinaryReader in(header.substr(kKgPackMagic.size()));
  uint32_t version = 0, checksum = 0;
  uint64_t declared_bytes = 0;
  KG_RETURN_NOT_OK(in.ReadU32(&version));
  KG_RETURN_NOT_OK(in.ReadU64(&declared_bytes));
  KG_RETURN_NOT_OK(in.ReadU32(&checksum));
  if (version != kKgPackVersion) {
    return Status::ParseError(StrFormat(
        "kgpack version %u is not supported (this build reads version %u)",
        version, kKgPackVersion));
  }
  if (payload_bytes < declared_bytes) {
    return Status::ParseError(StrFormat(
        "kgpack payload truncated: header declares %llu bytes, file has "
        "%llu",
        static_cast<unsigned long long>(declared_bytes),
        static_cast<unsigned long long>(payload_bytes)));
  }
  if (payload_bytes > declared_bytes) {
    return Status::ParseError("trailing bytes after the kgpack payload");
  }
  if (payload_crc != checksum) {
    return Status::ParseError(
        "kgpack checksum mismatch (file corrupted or partially written)");
  }
  return Status::OK();
}

}  // namespace snapshot_internal

}  // namespace kgsearch
