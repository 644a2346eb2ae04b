#include "embedding/transe.h"

#include "util/logging.h"

namespace kgsearch {

namespace {

/// One SGD step on a (positive, negative) triple pair.
///
/// Gradient of d(h+r,t) = ||h+r-t||^2 w.r.t. h and r is 2(h+r-t), w.r.t. t is
/// -2(h+r-t). Returns the pair's hinge loss before the update.
double StepPair(const Triple& pos, const Triple& neg, double lr, double margin,
                std::vector<FloatVec>* entity, std::vector<FloatVec>* pred) {
  FloatVec& h = (*entity)[pos.head];
  FloatVec& t = (*entity)[pos.tail];
  FloatVec& r = (*pred)[pos.predicate];
  FloatVec& nh = (*entity)[neg.head];
  FloatVec& nt = (*entity)[neg.tail];

  double d_pos = TransEScoreL2Sq(h, r, t);
  double d_neg = TransEScoreL2Sq(nh, r, nt);
  double loss = margin + d_pos - d_neg;
  if (loss <= 0.0) return 0.0;

  const size_t dim = h.size();
  for (size_t i = 0; i < dim; ++i) {
    double g_pos = 2.0 * (static_cast<double>(h[i]) + r[i] - t[i]);
    double g_neg = 2.0 * (static_cast<double>(nh[i]) + r[i] - nt[i]);
    // Descend on d_pos, ascend on d_neg.
    h[i] -= static_cast<float>(lr * g_pos);
    t[i] += static_cast<float>(lr * g_pos);
    r[i] -= static_cast<float>(lr * (g_pos - g_neg));
    nh[i] += static_cast<float>(lr * g_neg);
    nt[i] -= static_cast<float>(lr * g_neg);
  }
  return loss;
}

}  // namespace

Result<TransEEmbedding> TrainTransE(const KnowledgeGraph& graph,
                                    const TransEConfig& config) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized before training");
  }
  if (graph.NumEdges() == 0) {
    return Status::InvalidArgument("graph has no edges to train on");
  }
  if (config.dim == 0) {
    return Status::InvalidArgument("embedding dim must be positive");
  }

  Rng rng(config.seed);
  TransEEmbedding emb;
  emb.entity.reserve(graph.NumNodes());
  for (size_t i = 0; i < graph.NumNodes(); ++i) {
    emb.entity.push_back(RandomInitVec(config.dim, &rng));
  }
  emb.predicate.reserve(graph.NumPredicates());
  for (size_t i = 0; i < graph.NumPredicates(); ++i) {
    FloatVec v = RandomInitVec(config.dim, &rng);
    NormalizeInPlace(&v);  // relation vectors normalized once at init
    emb.predicate.push_back(std::move(v));
  }

  const auto& triples = graph.triples();
  std::vector<size_t> order(triples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  const size_t num_nodes = graph.NumNodes();
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    for (size_t idx : order) {
      const Triple& pos = triples[idx];
      // Entity vectors live on the unit ball (project before each use, as in
      // the original algorithm's per-minibatch normalization).
      NormalizeInPlace(&emb.entity[pos.head]);
      NormalizeInPlace(&emb.entity[pos.tail]);

      // Re-draw until the corrupted triple is not a stored fact; bounded
      // retries keep degenerate graphs from looping forever.
      Triple neg = pos;
      bool corrupt_head =
          config.corrupt_head_and_tail ? rng.Bernoulli(0.5) : false;
      for (int attempt = 0; attempt < 8; ++attempt) {
        NodeId candidate = static_cast<NodeId>(rng.UniformIndex(num_nodes));
        if (corrupt_head) {
          neg.head = candidate;
        } else {
          neg.tail = candidate;
        }
        if (!graph.HasTriple(neg.head, neg.predicate, neg.tail)) break;
      }
      NormalizeInPlace(&emb.entity[neg.head]);
      NormalizeInPlace(&emb.entity[neg.tail]);

      epoch_loss += StepPair(pos, neg, config.learning_rate, config.margin,
                             &emb.entity, &emb.predicate);
    }
    emb.final_epoch_loss = epoch_loss / static_cast<double>(triples.size());
    if ((epoch + 1) % 10 == 0) {
      KG_LOG(Debug) << "TransE epoch " << (epoch + 1) << " mean loss "
                    << emb.final_epoch_loss;
    }
  }
  return emb;
}

}  // namespace kgsearch
