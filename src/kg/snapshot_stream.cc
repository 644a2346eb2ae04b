#include "kg/snapshot_stream.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "kg/snapshot.h"
#include "util/binary_io.h"
#include "util/string_util.h"

namespace kgsearch {

using snapshot_internal::kHeaderBytes;
using snapshot_internal::kSectionGraph;
using snapshot_internal::kSectionLibrary;
using snapshot_internal::kSectionSpace;

namespace {

static_assert(sizeof(Triple) == 12 &&
                  std::has_unique_object_representations_v<Triple>,
              "Triple must be a packed 3x u32 POD for bulk serialization");

/// Header slots Finish() patches (layout in kg/snapshot.h).
constexpr uint64_t kPayloadLenSlot = 8;
constexpr uint64_t kChecksumSlot = 16;

/// Graph-section array order; Begin* calls must follow it exactly, since
/// the decoder reads the arrays in this order.
enum ArrayIndex : int {
  kArrayNames = 0,
  kArrayTypes = 1,
  kArrayPredicates = 2,
  kArrayNodeTypes = 3,
  kArrayTriples = 4,
  kArrayAdjOffsets = 5,
  kArrayAdjacency = 6,
  kArrayTypeOffsets = 7,
  kArrayTypeMembers = 8,
  kArrayCount = 9,
};

/// CRC-32 of `in` from its read position to end of file, read in
/// `chunk_bytes` pieces; `*bytes` receives how many bytes were folded in.
uint32_t CrcToEnd(std::istream* in, size_t chunk_bytes, uint64_t* bytes) {
  std::vector<char> chunk(chunk_bytes);
  uint32_t crc = 0;
  *bytes = 0;
  while (in->read(chunk.data(), static_cast<std::streamsize>(chunk.size())),
         in->gcount() > 0) {
    const auto got = static_cast<size_t>(in->gcount());
    crc = Crc32Update(crc, chunk.data(), got);
    *bytes += got;
  }
  return crc;
}

}  // namespace

Result<std::unique_ptr<SnapshotStreamWriter>> SnapshotStreamWriter::Open(
    const std::string& path, size_t buffer_bytes) {
  if (buffer_bytes == 0) {
    return Status::InvalidArgument("snapshot stream buffer must be > 0");
  }
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out |
                              std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError(StrFormat("cannot open %s for writing",
                                     path.c_str()));
  }
  auto writer = std::unique_ptr<SnapshotStreamWriter>(
      new SnapshotStreamWriter(std::move(file), nullptr, buffer_bytes));
  KG_RETURN_NOT_OK(writer->status_);
  return writer;
}

std::unique_ptr<SnapshotStreamWriter> SnapshotStreamWriter::OpenInMemory(
    std::string* out) {
  out->clear();
  // A zero buffer cap makes every region write go straight to the string.
  return std::unique_ptr<SnapshotStreamWriter>(
      new SnapshotStreamWriter(std::fstream(), out, 0));
}

SnapshotStreamWriter::SnapshotStreamWriter(std::fstream file,
                                           std::string* memory,
                                           size_t buffer_bytes)
    : file_(std::move(file)), memory_(memory), buffer_cap_(buffer_bytes) {
  // Magic and version; the length and CRC slots stay zero until Finish().
  char header[kHeaderBytes] = {};
  std::memcpy(header, kKgPackMagic.data(), kKgPackMagic.size());
  std::memcpy(header + kKgPackMagic.size(), &kKgPackVersion,
              sizeof(kKgPackVersion));
  status_ = WriteAtCursor(header, sizeof(header));
}

SnapshotStreamWriter::~SnapshotStreamWriter() = default;

Status SnapshotStreamWriter::Fail(Status error) {
  status_ = std::move(error);
  return status_;
}

Status SnapshotStreamWriter::CheckStage(Stage expected, const char* what) {
  if (!status_.ok()) return status_;
  if (stage_ != expected) {
    return Fail(Status::InvalidArgument(
        StrFormat("snapshot stream: %s called out of sequence", what)));
  }
  return Status::OK();
}

Status SnapshotStreamWriter::WriteAt(uint64_t pos, const void* data,
                                     size_t size) {
  if (!status_.ok() || size == 0) return status_;
  if (memory_ != nullptr) {
    if (memory_->size() < pos + size) memory_->resize(pos + size);
    std::memcpy(memory_->data() + pos, data, size);
    return Status::OK();
  }
  file_.seekp(static_cast<std::streamoff>(pos));
  file_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  if (!file_.good()) {
    return Fail(Status::IOError("snapshot stream: file write failed"));
  }
  return Status::OK();
}

Status SnapshotStreamWriter::WriteAtCursor(const void* data, size_t size) {
  KG_RETURN_NOT_OK(WriteAt(cursor_, data, size));
  cursor_ += size;
  return Status::OK();
}

SnapshotStreamWriter::Region SnapshotStreamWriter::MakeRegion(uint64_t size) {
  Region r;
  r.file_pos = cursor_;
  r.remaining = size;
  cursor_ += size;
  // The in-memory sink lays the region out now, so filling it never has to
  // grow the string one element at a time.
  if (memory_ != nullptr) memory_->resize(cursor_);
  return r;
}

void SnapshotStreamWriter::TrackBuffered() {
  const size_t buffered =
      blob_region_.buffer.size() + offsets_region_.buffer.size() +
      preds_region_.buffer.size() + flags_region_.buffer.size();
  stats_.peak_buffered_bytes = std::max(stats_.peak_buffered_bytes, buffered);
}

Status SnapshotStreamWriter::RegionWrite(Region* region, const void* data,
                                         size_t size) {
  if (!status_.ok()) return status_;
  if (size > region->remaining) {
    return Fail(Status::InvalidArgument(
        "snapshot stream: append exceeds the declared array size"));
  }
  region->remaining -= size;
  if (region->buffer.size() + size < buffer_cap_) {
    region->buffer.append(static_cast<const char*>(data), size);
    return Status::OK();
  }
  KG_RETURN_NOT_OK(FlushRegion(region));
  KG_RETURN_NOT_OK(WriteAt(region->file_pos, data, size));
  region->file_pos += size;
  return Status::OK();
}

Status SnapshotStreamWriter::FlushRegion(Region* region) {
  if (region->buffer.empty()) return Status::OK();
  TrackBuffered();
  KG_RETURN_NOT_OK(
      WriteAt(region->file_pos, region->buffer.data(), region->buffer.size()));
  region->file_pos += region->buffer.size();
  region->buffer.clear();
  return Status::OK();
}

Status SnapshotStreamWriter::WriteScalarU64(Region* region, uint64_t v) {
  return RegionWrite(region, &v, sizeof(v));
}

Status SnapshotStreamWriter::BeginGraphSection() {
  KG_RETURN_NOT_OK(CheckStage(Stage::kHeader, "BeginGraphSection"));
  const uint32_t id = kSectionGraph;
  KG_RETURN_NOT_OK(WriteAtCursor(&id, sizeof(id)));
  graph_len_slot_ = cursor_;
  const uint64_t zero = 0;
  KG_RETURN_NOT_OK(WriteAtCursor(&zero, sizeof(zero)));
  graph_body_start_ = cursor_;
  array_index_ = 0;
  stage_ = Stage::kGraphOpen;
  return Status::OK();
}

Status SnapshotStreamWriter::BeginDictionary(uint64_t total_payload_bytes,
                                             uint64_t num_symbols) {
  KG_RETURN_NOT_OK(CheckStage(Stage::kGraphOpen, "BeginDictionary"));
  if (array_index_ > kArrayPredicates) {
    return Fail(Status::InvalidArgument(
        "snapshot stream: all three dictionaries already written"));
  }
  // The blob as a string (u64 length + bytes), then the offsets table as a
  // vector (u64 count + (num_symbols + 1) u64 entries).
  KG_RETURN_NOT_OK(
      WriteAtCursor(&total_payload_bytes, sizeof(total_payload_bytes)));
  blob_region_ = MakeRegion(total_payload_bytes);
  const uint64_t offset_count = num_symbols + 1;
  KG_RETURN_NOT_OK(WriteAtCursor(&offset_count, sizeof(offset_count)));
  offsets_region_ = MakeRegion(offset_count * sizeof(uint64_t));
  dict_blob_off_ = 0;
  KG_RETURN_NOT_OK(WriteScalarU64(&offsets_region_, 0));
  expected_elems_ = num_symbols;
  appended_elems_ = 0;
  stage_ = Stage::kDictionary;
  return Status::OK();
}

Status SnapshotStreamWriter::AppendSymbol(std::string_view symbol) {
  KG_RETURN_NOT_OK(CheckStage(Stage::kDictionary, "AppendSymbol"));
  KG_RETURN_NOT_OK(RegionWrite(&blob_region_, symbol.data(), symbol.size()));
  dict_blob_off_ += symbol.size();
  KG_RETURN_NOT_OK(WriteScalarU64(&offsets_region_, dict_blob_off_));
  ++appended_elems_;
  return Status::OK();
}

Status SnapshotStreamWriter::EndDictionary() {
  KG_RETURN_NOT_OK(CheckStage(Stage::kDictionary, "EndDictionary"));
  if (appended_elems_ != expected_elems_ || blob_region_.remaining != 0 ||
      offsets_region_.remaining != 0) {
    return Fail(Status::InvalidArgument(
        "snapshot stream: dictionary appends do not match the declaration"));
  }
  KG_RETURN_NOT_OK(FlushRegion(&blob_region_));
  KG_RETURN_NOT_OK(FlushRegion(&offsets_region_));
  ++array_index_;
  stage_ = Stage::kGraphOpen;
  return Status::OK();
}

Status SnapshotStreamWriter::BeginArray(Stage stage, int which,
                                        const char* what,
                                        uint64_t element_count,
                                        size_t element_bytes) {
  KG_RETURN_NOT_OK(CheckStage(Stage::kGraphOpen, what));
  if (array_index_ != which) {
    return Fail(Status::InvalidArgument(StrFormat(
        "snapshot stream: %s called out of the graph array order", what)));
  }
  KG_RETURN_NOT_OK(WriteAtCursor(&element_count, sizeof(element_count)));
  blob_region_ = MakeRegion(element_count * element_bytes);
  expected_elems_ = element_count;
  appended_elems_ = 0;
  stage_ = stage;
  return Status::OK();
}

Status SnapshotStreamWriter::AppendElements(Stage stage, const char* what,
                                            const void* data, uint64_t count,
                                            size_t element_bytes) {
  KG_RETURN_NOT_OK(CheckStage(stage, what));
  KG_RETURN_NOT_OK(RegionWrite(&blob_region_, data, count * element_bytes));
  appended_elems_ += count;
  return Status::OK();
}

Status SnapshotStreamWriter::EndArray(Stage stage, const char* what) {
  KG_RETURN_NOT_OK(CheckStage(stage, what));
  if (appended_elems_ != expected_elems_) {
    return Fail(Status::InvalidArgument(StrFormat(
        "snapshot stream: %s before the declared element count was reached",
        what)));
  }
  KG_RETURN_NOT_OK(FlushRegion(&blob_region_));
  ++array_index_;
  stage_ = Stage::kGraphOpen;
  return Status::OK();
}

template <typename T>
Status SnapshotStreamWriter::WriteArray(Stage stage, int which,
                                        std::span<const T> values) {
  KG_RETURN_NOT_OK(
      BeginArray(stage, which, "WriteGraph", values.size(), sizeof(T)));
  KG_RETURN_NOT_OK(AppendElements(stage, "WriteGraph", values.data(),
                                  values.size(), sizeof(T)));
  return EndArray(stage, "WriteGraph");
}

Status SnapshotStreamWriter::BeginNodeTypes(uint64_t num_nodes) {
  return BeginArray(Stage::kNodeTypes, kArrayNodeTypes, "BeginNodeTypes",
                    num_nodes, sizeof(TypeId));
}

Status SnapshotStreamWriter::AppendNodeType(TypeId type) {
  return AppendElements(Stage::kNodeTypes, "AppendNodeType", &type, 1,
                        sizeof(type));
}

Status SnapshotStreamWriter::EndNodeTypes() {
  return EndArray(Stage::kNodeTypes, "EndNodeTypes");
}

Status SnapshotStreamWriter::BeginTriples(uint64_t num_triples) {
  return BeginArray(Stage::kTriples, kArrayTriples, "BeginTriples",
                    num_triples, sizeof(Triple));
}

Status SnapshotStreamWriter::AppendTriple(const Triple& triple) {
  return AppendElements(Stage::kTriples, "AppendTriple", &triple, 1,
                        sizeof(triple));
}

Status SnapshotStreamWriter::EndTriples() {
  return EndArray(Stage::kTriples, "EndTriples");
}

Status SnapshotStreamWriter::BeginAdjOffsets(uint64_t num_nodes) {
  return BeginArray(Stage::kAdjOffsets, kArrayAdjOffsets, "BeginAdjOffsets",
                    num_nodes + 1, sizeof(uint64_t));
}

Status SnapshotStreamWriter::AppendAdjOffset(uint64_t offset) {
  return AppendElements(Stage::kAdjOffsets, "AppendAdjOffset", &offset, 1,
                        sizeof(offset));
}

Status SnapshotStreamWriter::EndAdjOffsets() {
  return EndArray(Stage::kAdjOffsets, "EndAdjOffsets");
}

Status SnapshotStreamWriter::BeginAdjacency(uint64_t num_entries) {
  KG_RETURN_NOT_OK(CheckStage(Stage::kGraphOpen, "BeginAdjacency"));
  if (array_index_ != kArrayAdjacency) {
    return Fail(Status::InvalidArgument(
        "snapshot stream: BeginAdjacency called out of the graph array "
        "order"));
  }
  // Three parallel vector regions (neighbors, predicates, forward), filled
  // together by AppendAdjEntry.
  KG_RETURN_NOT_OK(WriteAtCursor(&num_entries, sizeof(num_entries)));
  blob_region_ = MakeRegion(num_entries * sizeof(NodeId));
  KG_RETURN_NOT_OK(WriteAtCursor(&num_entries, sizeof(num_entries)));
  preds_region_ = MakeRegion(num_entries * sizeof(PredicateId));
  KG_RETURN_NOT_OK(WriteAtCursor(&num_entries, sizeof(num_entries)));
  flags_region_ = MakeRegion(num_entries * sizeof(uint8_t));
  expected_elems_ = num_entries;
  appended_elems_ = 0;
  stage_ = Stage::kAdjacency;
  return Status::OK();
}

Status SnapshotStreamWriter::AppendAdjEntry(const AdjEntry& entry) {
  KG_RETURN_NOT_OK(CheckStage(Stage::kAdjacency, "AppendAdjEntry"));
  KG_RETURN_NOT_OK(
      RegionWrite(&blob_region_, &entry.neighbor, sizeof(entry.neighbor)));
  KG_RETURN_NOT_OK(
      RegionWrite(&preds_region_, &entry.predicate, sizeof(entry.predicate)));
  const uint8_t forward = entry.forward ? 1 : 0;
  KG_RETURN_NOT_OK(RegionWrite(&flags_region_, &forward, sizeof(forward)));
  ++appended_elems_;
  return Status::OK();
}

Status SnapshotStreamWriter::EndAdjacency() {
  KG_RETURN_NOT_OK(CheckStage(Stage::kAdjacency, "EndAdjacency"));
  if (appended_elems_ != expected_elems_) {
    return Fail(Status::InvalidArgument(
        "snapshot stream: EndAdjacency before the declared entry count was "
        "reached"));
  }
  KG_RETURN_NOT_OK(FlushRegion(&blob_region_));
  KG_RETURN_NOT_OK(FlushRegion(&preds_region_));
  KG_RETURN_NOT_OK(FlushRegion(&flags_region_));
  ++array_index_;
  stage_ = Stage::kGraphOpen;
  return Status::OK();
}

Status SnapshotStreamWriter::BeginTypeOffsets(uint64_t num_types) {
  return BeginArray(Stage::kTypeOffsets, kArrayTypeOffsets,
                    "BeginTypeOffsets", num_types + 1, sizeof(uint64_t));
}

Status SnapshotStreamWriter::AppendTypeOffset(uint64_t offset) {
  return AppendElements(Stage::kTypeOffsets, "AppendTypeOffset", &offset, 1,
                        sizeof(offset));
}

Status SnapshotStreamWriter::EndTypeOffsets() {
  return EndArray(Stage::kTypeOffsets, "EndTypeOffsets");
}

Status SnapshotStreamWriter::BeginTypeMembers(uint64_t num_members) {
  return BeginArray(Stage::kTypeMembers, kArrayTypeMembers,
                    "BeginTypeMembers", num_members, sizeof(NodeId));
}

Status SnapshotStreamWriter::AppendTypeMember(NodeId node) {
  return AppendElements(Stage::kTypeMembers, "AppendTypeMember", &node, 1,
                        sizeof(node));
}

Status SnapshotStreamWriter::EndTypeMembers() {
  return EndArray(Stage::kTypeMembers, "EndTypeMembers");
}

Status SnapshotStreamWriter::EndGraphSection() {
  KG_RETURN_NOT_OK(CheckStage(Stage::kGraphOpen, "EndGraphSection"));
  if (array_index_ != kArrayCount) {
    return Fail(Status::InvalidArgument(
        "snapshot stream: EndGraphSection with graph arrays missing"));
  }
  const uint64_t body_len = cursor_ - graph_body_start_;
  KG_RETURN_NOT_OK(WriteAt(graph_len_slot_, &body_len, sizeof(body_len)));
  stage_ = Stage::kGraphDone;
  return Status::OK();
}

Status SnapshotStreamWriter::WriteGraph(const KnowledgeGraph& graph) {
  if (!graph.finalized()) {
    return Fail(Status::InvalidArgument(
        "snapshot stream: WriteGraph needs a finalized graph"));
  }
  KG_RETURN_NOT_OK(BeginGraphSection());
  for (const Dictionary* dict :
       {&graph.names_dict(), &graph.types_dict(), &graph.predicates_dict()}) {
    KG_RETURN_NOT_OK(BeginDictionary(dict->payload_bytes(), dict->size()));
    for (SymbolId id = 0; id < dict->size(); ++id) {
      KG_RETURN_NOT_OK(AppendSymbol(dict->Get(id)));
    }
    KG_RETURN_NOT_OK(EndDictionary());
  }
  KG_RETURN_NOT_OK(WriteArray(Stage::kNodeTypes, kArrayNodeTypes,
                              std::span(graph.node_types())));
  KG_RETURN_NOT_OK(
      WriteArray(Stage::kTriples, kArrayTriples, std::span(graph.triples())));
  KG_RETURN_NOT_OK(
      WriteArray(Stage::kAdjOffsets, kArrayAdjOffsets, graph.adj_offsets()));
  KG_RETURN_NOT_OK(BeginAdjacency(graph.adjacency().size()));
  for (const AdjEntry& entry : graph.adjacency()) {
    KG_RETURN_NOT_OK(AppendAdjEntry(entry));
  }
  KG_RETURN_NOT_OK(EndAdjacency());
  KG_RETURN_NOT_OK(WriteArray(Stage::kTypeOffsets, kArrayTypeOffsets,
                              graph.type_offsets()));
  KG_RETURN_NOT_OK(WriteArray(Stage::kTypeMembers, kArrayTypeMembers,
                              graph.type_members()));
  return EndGraphSection();
}

Status SnapshotStreamWriter::WriteWholeSection(uint32_t id,
                                               std::string_view body) {
  const uint64_t len = body.size();
  KG_RETURN_NOT_OK(WriteAtCursor(&id, sizeof(id)));
  KG_RETURN_NOT_OK(WriteAtCursor(&len, sizeof(len)));
  return WriteAtCursor(body.data(), body.size());
}

Status SnapshotStreamWriter::WriteLibrarySection(
    const TransformationLibrary& library) {
  KG_RETURN_NOT_OK(CheckStage(Stage::kGraphDone, "WriteLibrarySection"));
  const auto records = library.ExportRecords();
  BinaryWriter body;
  body.WriteU64(records.size());
  for (const auto& r : records) {
    body.WriteU8(r.type_scope ? 1 : 0);
    body.WriteU8(static_cast<uint8_t>(r.kind));
    body.WriteString(r.alias);
    body.WriteString(r.canonical);
  }
  KG_RETURN_NOT_OK(WriteWholeSection(kSectionLibrary, body.buffer()));
  stage_ = Stage::kLibraryDone;
  return Status::OK();
}

Status SnapshotStreamWriter::WriteSpaceSection(const PredicateSpace& space) {
  KG_RETURN_NOT_OK(CheckStage(Stage::kLibraryDone, "WriteSpaceSection"));
  BinaryWriter body;
  body.WriteU64(space.NumPredicates());
  for (PredicateId p = 0; p < space.NumPredicates(); ++p) {
    body.WriteString(space.names()[p]);
    body.WriteVector(space.Vector(p));
  }
  KG_RETURN_NOT_OK(WriteWholeSection(kSectionSpace, body.buffer()));
  stage_ = Stage::kSpaceDone;
  return Status::OK();
}

Status SnapshotStreamWriter::Finish() {
  KG_RETURN_NOT_OK(CheckStage(Stage::kSpaceDone, "Finish"));
  const uint64_t payload_len = cursor_ - kHeaderBytes;
  KG_RETURN_NOT_OK(
      WriteAt(kPayloadLenSlot, &payload_len, sizeof(payload_len)));
  uint32_t crc = 0;
  if (memory_ != nullptr) {
    crc = Crc32(memory_->data() + kHeaderBytes, payload_len);
  } else {
    file_.flush();
    if (!file_.good()) {
      return Fail(Status::IOError("snapshot stream: flush failed"));
    }
    // CRC the payload by re-reading it in chunks; the writer never holds it.
    file_.seekg(static_cast<std::streamoff>(kHeaderBytes));
    uint64_t reread = 0;
    crc = CrcToEnd(&file_, buffer_cap_, &reread);
    file_.clear();  // re-reading to the end set eof
    if (reread != payload_len) {
      return Fail(Status::IOError("snapshot stream: payload re-read failed"));
    }
  }
  KG_RETURN_NOT_OK(WriteAt(kChecksumSlot, &crc, sizeof(crc)));
  if (memory_ == nullptr) {
    file_.close();
    if (file_.fail()) {
      return Fail(Status::IOError("snapshot stream: close failed"));
    }
  }
  stats_.file_bytes = cursor_;
  stage_ = Stage::kFinished;
  return Status::OK();
}

Result<bool> VerifySnapshotFileChecksum(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::IOError(StrFormat("cannot open %s", path.c_str()));
  }
  char header[kHeaderBytes];
  file.read(header, kHeaderBytes);
  const std::string_view header_bytes(header,
                                      static_cast<size_t>(file.gcount()));
  uint64_t payload_bytes = 0;
  const uint32_t crc = CrcToEnd(&file, 1 << 20, &payload_bytes);
  return snapshot_internal::CheckHeader(header_bytes, payload_bytes, crc)
      .ok();
}

}  // namespace kgsearch
