#include "graph/bron_kerbosch.h"

#include <vector>

#include "common/check.h"
#include "common/timer.h"

namespace dbim {

namespace {

/// Fixed-width dynamic bitset tuned for the Bron–Kerbosch inner loops.
class Bits {
 public:
  Bits() = default;
  explicit Bits(size_t n) : words_((n + 63) / 64, 0) {}

  void Set(size_t i) { words_[i >> 6] |= (1ull << (i & 63)); }
  void Clear(size_t i) { words_[i >> 6] &= ~(1ull << (i & 63)); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ull;
  }

  bool Empty() const {
    for (const uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  size_t Count() const {
    size_t c = 0;
    for (const uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
    return c;
  }

  size_t CountAnd(const Bits& other) const {
    size_t c = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      c += static_cast<size_t>(__builtin_popcountll(words_[i] & other.words_[i]));
    }
    return c;
  }

  Bits And(const Bits& other) const {
    Bits out;
    out.words_.resize(words_.size());
    for (size_t i = 0; i < words_.size(); ++i) {
      out.words_[i] = words_[i] & other.words_[i];
    }
    return out;
  }

  /// First set bit at or after `from`, or -1.
  int64_t NextSet(size_t from) const {
    size_t word = from >> 6;
    if (word >= words_.size()) return -1;
    uint64_t w = words_[word] & (~0ull << (from & 63));
    while (true) {
      if (w != 0) {
        return static_cast<int64_t>((word << 6) +
                                    static_cast<size_t>(__builtin_ctzll(w)));
      }
      if (++word >= words_.size()) return -1;
      w = words_[word];
    }
  }

 private:
  std::vector<uint64_t> words_;
};

class MisCounter {
 public:
  MisCounter(const SimpleGraph& g, const Deadline& deadline,
             MisCountResult* result)
      : n_(g.num_vertices()), deadline_(deadline), result_(result) {
    // Adjacency of the *complement*: maximal independent sets of g are the
    // maximal cliques there. Built row by row; self-bits stay clear.
    comp_adj_.assign(n_, Bits(n_));
    std::vector<Bits> adj(n_, Bits(n_));
    for (const auto& [a, b] : g.edges()) {
      adj[a].Set(b);
      adj[b].Set(a);
    }
    for (size_t v = 0; v < n_; ++v) {
      for (size_t u = 0; u < n_; ++u) {
        if (u != v && !adj[v].Test(u)) comp_adj_[v].Set(u);
      }
    }
  }

  void Run() {
    Bits p(n_);
    for (size_t v = 0; v < n_; ++v) p.Set(v);
    Bits x(n_);
    Expand(p, x);
  }

 private:
  void Expand(Bits p, Bits x) {
    ++result_->nodes;
    if ((result_->nodes & 0x3ff) == 0 && deadline_.Expired()) {
      result_->complete = false;
      return;
    }
    if (p.Empty() && x.Empty()) {
      result_->count += 1.0;
      return;
    }
    // Pivot: vertex of P union X with the most neighbors inside P.
    int64_t pivot = -1;
    size_t best = 0;
    for (int64_t v = p.NextSet(0); v >= 0; v = p.NextSet(v + 1)) {
      const size_t c = p.CountAnd(comp_adj_[v]);
      if (pivot < 0 || c > best) {
        best = c;
        pivot = v;
      }
    }
    for (int64_t v = x.NextSet(0); v >= 0; v = x.NextSet(v + 1)) {
      const size_t c = p.CountAnd(comp_adj_[v]);
      if (pivot < 0 || c > best) {
        best = c;
        pivot = v;
      }
    }
    // Candidates: P minus N(pivot).
    std::vector<size_t> candidates;
    for (int64_t v = p.NextSet(0); v >= 0; v = p.NextSet(v + 1)) {
      if (!comp_adj_[pivot].Test(static_cast<size_t>(v))) {
        candidates.push_back(static_cast<size_t>(v));
      }
    }
    for (const size_t v : candidates) {
      if (!result_->complete) return;
      Expand(p.And(comp_adj_[v]), x.And(comp_adj_[v]));
      p.Clear(v);
      x.Set(v);
    }
  }

  size_t n_;
  std::vector<Bits> comp_adj_;
  const Deadline& deadline_;
  MisCountResult* result_;
};

}  // namespace

MisCountResult CountMaximalIndependentSets(const SimpleGraph& g,
                                           const MisCountOptions& options) {
  MisCountResult total;
  total.count = 1.0;
  const Deadline deadline(options.deadline_seconds);
  const auto [comp, num_comps] = g.Components();

  for (const GraphPart& component : g.Split(comp, num_comps)) {
    // A lone vertex has exactly one MIS: the vertex itself.
    if (component.members.size() == 1) continue;
    MisCountResult part;
    MisCounter counter(component.graph, deadline, &part);
    counter.Run();
    total.nodes += part.nodes;
    total.count *= part.count;
    if (!part.complete) {
      total.complete = false;
      break;
    }
  }
  if (g.num_vertices() == 0) total.count = 1.0;  // the empty set
  return total;
}

}  // namespace dbim
