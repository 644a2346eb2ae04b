// Live mutation for a finalized knowledge graph.
//
// A DeltaOverlay is the single writer-side entry point for post-finalize
// mutation. It keeps the base KnowledgeGraph untouched and accumulates an
// append-only delta — new nodes/types/predicates interned past the base id
// ranges, added triples, retracted base triples — which it publishes as
// immutable DeltaSnapshot instances (kg/graph_view.h), one per committed
// batch, RCU style:
//
//   writer:  Commit(batch)  = clone current snapshot → validate + apply the
//            whole batch on the clone → publish (epoch+1) under the overlay
//            mutex. A failed op rejects the WHOLE batch; readers never see
//            a half-applied batch, and the overlay state is unchanged.
//   reader:  Snapshot() pins the current snapshot via shared_ptr; a
//            GraphView(base, snapshot) then answers every read consistently
//            for as long as the reader holds the pin, no matter how many
//            commits land meanwhile.
//
// A snapshot's merged per-node adjacency lists are its only edge structure:
// the idempotent-add check, retract validation and GraphView::HasTriple
// all binary-search the head's list, and an op's edge upkeep is two sorted
// inserts or erases.
//
// Commit cost is O(|delta|) per batch (the clone of the dictionary
// extensions, name indexes, merged lists and triple lists), not O(|base|).
// That is the deliberate trade: reads stay allocation-free spans on the hot
// path, and the delta is kept small by background compaction — FoldDelta()
// bakes base+delta into a fresh finalized KnowledgeGraph (bit-identical to
// a from-scratch build with the same id order), which the session layer
// swaps in blue-green (api/session.h) and the overlay starts empty again.
//
// Thread safety: Commit/Snapshot are safe to call concurrently from any
// threads. The overlay mutex is a leaf in the repo lock order (see
// util/mutex.h); nothing is acquired while it is held. The session orders
// a dataset's commits against its compaction with the dataset's writer
// lock (api/session.h), so a fold never races a commit.
#ifndef KGSEARCH_KG_DELTA_OVERLAY_H_
#define KGSEARCH_KG_DELTA_OVERLAY_H_

#include <memory>
#include <string>
#include <vector>

#include "kg/graph.h"
#include "kg/graph_view.h"
#include "util/mutex.h"
#include "util/status.h"

namespace kgsearch {

/// One mutation. Nodes are addressed by unique name (the wire-level
/// identity); ids are an internal matter of the overlay.
struct Mutation {
  enum class Kind { kAddTriple, kRetractTriple };

  Kind kind = Kind::kAddTriple;
  std::string head;
  std::string predicate;
  std::string tail;
  /// Types used only when an add creates the node; empty means "Thing".
  /// An existing node keeps its type (same contract as AddNode).
  std::string head_type;
  std::string tail_type;

  static Mutation Add(std::string head, std::string predicate,
                      std::string tail, std::string head_type = "",
                      std::string tail_type = "") {
    return Mutation{Kind::kAddTriple, std::move(head), std::move(predicate),
                    std::move(tail), std::move(head_type),
                    std::move(tail_type)};
  }
  static Mutation Retract(std::string head, std::string predicate,
                          std::string tail) {
    return Mutation{Kind::kRetractTriple, std::move(head),
                    std::move(predicate), std::move(tail), "", ""};
  }
};

/// An atomically applied group of mutations. Ops see each other: a batch
/// may add a triple and retract it again, or create a node in op 1 that
/// op 2 links to.
struct MutationBatch {
  std::vector<Mutation> ops;
};

/// Writer side of the delta; see file comment for the protocol.
class DeltaOverlay {
 public:
  /// `base` must be finalized and must outlive the overlay.
  explicit DeltaOverlay(const KnowledgeGraph* base);

  DeltaOverlay(const DeltaOverlay&) = delete;
  DeltaOverlay& operator=(const DeltaOverlay&) = delete;

  /// Validates and applies the whole batch, then publishes a new snapshot
  /// and returns its epoch. All-or-nothing: on any error (kNotFound for
  /// retracting a triple that does not exist, kInvalidArgument for an empty
  /// batch) nothing is published and the overlay is unchanged.
  /// Adding a triple that already exists is an idempotent no-op within an
  /// otherwise valid batch; re-adding a retracted base triple un-retracts
  /// it.
  [[nodiscard]] Result<uint64_t> Commit(const MutationBatch& batch);

  /// Pins the latest published snapshot; null when nothing has been
  /// committed yet (epoch 0 — a plain base view).
  std::shared_ptr<const DeltaSnapshot> Snapshot() const;

  /// Latest published epoch (0 before the first commit).
  uint64_t epoch() const;

  const KnowledgeGraph& base() const { return *base_; }

 private:
  const KnowledgeGraph* const base_;
  mutable Mutex mutex_;
  std::shared_ptr<const DeltaSnapshot> published_ GUARDED_BY(mutex_);
};

/// Bakes base + delta into a fresh finalized KnowledgeGraph. Dictionary id
/// order is preserved exactly (types, predicates, then nodes in view id
/// order; surviving base triples in base order, then delta adds in commit
/// order), so the result is byte-identical — kgpack and all — to a graph
/// built from scratch with the same recipe, and every surviving id keeps
/// its meaning (embedding rows, type ids). `delta` may be null (pure
/// rebuild of the base).
Result<std::unique_ptr<KnowledgeGraph>> FoldDelta(const KnowledgeGraph& base,
                                                  const DeltaSnapshot* delta);

}  // namespace kgsearch

#endif  // KGSEARCH_KG_DELTA_OVERLAY_H_
