#include "embedding/transh.h"

namespace kgsearch {

namespace {

/// TransH score ||h_perp + d - t_perp||^2.
double ScoreH(const FloatVec& h, const FloatVec& t, const FloatVec& d,
              const FloatVec& w) {
  const double wh = Dot(w, h), wt = Dot(w, t);
  double s = 0.0;
  for (size_t i = 0; i < h.size(); ++i) {
    const double diff = (h[i] - wh * w[i]) + d[i] - (t[i] - wt * w[i]);
    s += diff * diff;
  }
  return s;
}

/// One SGD step on a (positive, negative) pair sharing the relation.
/// Gradients flow through the projections; w_r is re-normalized after the
/// step, and a soft penalty keeps d_r near the hyperplane.
double StepPair(const Triple& pos, const Triple& neg, const TransHConfig& cfg,
                std::vector<FloatVec>* entity, std::vector<FloatVec>* d_vecs,
                std::vector<FloatVec>* w_vecs) {
  FloatVec& h = (*entity)[pos.head];
  FloatVec& t = (*entity)[pos.tail];
  FloatVec& nh = (*entity)[neg.head];
  FloatVec& nt = (*entity)[neg.tail];
  FloatVec& d = (*d_vecs)[pos.predicate];
  FloatVec& w = (*w_vecs)[pos.predicate];

  const double d_pos = ScoreH(h, t, d, w);
  const double d_neg = ScoreH(nh, nt, d, w);
  const double loss = cfg.margin + d_pos - d_neg;
  if (loss <= 0.0) return 0.0;

  const size_t dim = h.size();
  const double lr = cfg.learning_rate;

  // Residual vectors e = h_perp + d - t_perp for both triples.
  const double wh = Dot(w, h), wt = Dot(w, t);
  const double wnh = Dot(w, nh), wnt = Dot(w, nt);
  FloatVec e_pos(dim), e_neg(dim);
  for (size_t i = 0; i < dim; ++i) {
    e_pos[i] = static_cast<float>((h[i] - wh * w[i]) + d[i] -
                                  (t[i] - wt * w[i]));
    e_neg[i] = static_cast<float>((nh[i] - wnh * w[i]) + d[i] -
                                  (nt[i] - wnt * w[i]));
  }

  // d/dh of ||e||^2 = 2 (I - w w^T) e ; d/dd = 2 e ; and for w the exact
  // gradient is -2 ((w^T (h - t)) e + (w^T e)(h - t)); the negative triple
  // contributes with the opposite sign.
  const double we_pos = Dot(w, e_pos), we_neg = Dot(w, e_neg);
  const double wht = wh - wt, wnht = wnh - wnt;
  for (size_t i = 0; i < dim; ++i) {
    const double gp = 2.0 * (e_pos[i] - we_pos * w[i]);  // projected residual
    const double gn = 2.0 * (e_neg[i] - we_neg * w[i]);
    h[i] -= static_cast<float>(lr * gp);
    t[i] += static_cast<float>(lr * gp);
    nh[i] += static_cast<float>(lr * gn);
    nt[i] -= static_cast<float>(lr * gn);
    d[i] -= static_cast<float>(lr * 2.0 * (e_pos[i] - e_neg[i]));
    const double gw_pos = -2.0 * (wht * e_pos[i] + we_pos * (h[i] - t[i]));
    const double gw_neg = -2.0 * (wnht * e_neg[i] + we_neg * (nh[i] - nt[i]));
    w[i] -= static_cast<float>(lr * (gw_pos - gw_neg));
  }

  // Soft orthogonality: shrink the component of d along w.
  const double wd = Dot(w, d);
  Axpy(-cfg.orthogonality_weight * lr * 2.0 * wd, w, &d);
  NormalizeInPlace(&w);
  return loss;
}

}  // namespace

Result<TransHEmbedding> TrainTransH(const KnowledgeGraph& graph,
                                    const TransHConfig& config) {
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
  TransHEmbedding emb;
  emb.entity.reserve(graph.NumNodes());
  for (size_t i = 0; i < graph.NumNodes(); ++i) {
    emb.entity.push_back(RandomInitVec(config.dim, &rng));
  }
  for (size_t i = 0; i < graph.NumPredicates(); ++i) {
    FloatVec d = RandomInitVec(config.dim, &rng);
    NormalizeInPlace(&d);
    emb.translation.push_back(std::move(d));
    emb.normal.push_back(RandomUnitVec(config.dim, &rng));
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
      NormalizeInPlace(&emb.entity[pos.head]);
      NormalizeInPlace(&emb.entity[pos.tail]);
      // Uniform corruption, re-drawn (bounded) while it is a stored fact.
      Triple neg = pos;
      const bool corrupt_head = rng.Bernoulli(0.5);
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
      epoch_loss += StepPair(pos, neg, config, &emb.entity, &emb.translation,
                             &emb.normal);
    }
    emb.final_epoch_loss = epoch_loss / static_cast<double>(triples.size());
  }
  return emb;
}

PredicateSpace PredicateSpaceFromTransH(const KnowledgeGraph& graph,
                                        const TransHEmbedding& embedding) {
  KG_CHECK(embedding.translation.size() == graph.NumPredicates());
  std::vector<std::string> names;
  names.reserve(graph.NumPredicates());
  for (PredicateId p = 0; p < graph.NumPredicates(); ++p) {
    names.emplace_back(graph.PredicateName(p));
  }
  return PredicateSpace(embedding.translation, std::move(names));
}

}  // namespace kgsearch
