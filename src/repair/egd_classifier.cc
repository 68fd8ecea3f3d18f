#include "repair/egd_classifier.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>

#include "common/check.h"
#include "common/string_util.h"
#include "graph/cover_flow.h"
#include "violations/detector.h"

namespace dbim {

namespace {

// Position permutations generating the symmetry group of a two-binary-atom
// EGD: reordering the atoms and reversing the relation's columns (the
// latter is matched by reversing every fact, which preserves I_R).
constexpr std::array<std::array<int, 4>, 4> kTransforms = {{
    {0, 1, 2, 3},  // identity
    {2, 3, 0, 1},  // atom swap
    {1, 0, 3, 2},  // column flip
    {3, 2, 1, 0},  // both
}};

// Canonical variable patterns (first-occurrence labelling).
enum class Pattern {
  kDistinct,      // (0,1,2,3)  R(a,b), R(c,d)
  kIdentical,     // (0,1,0,1)  R(a,b), R(a,b)
  kSharedFirst,   // (0,1,0,2)  R(a,b), R(a,c)   FD-like
  kReversed,      // (0,1,1,0)  R(a,b), R(b,a)
  kDiagFree,      // (0,0,1,2)  R(a,a), R(b,c)
  kDiagJoin1,     // (0,0,0,1)  R(a,a), R(a,b)
  kDiagJoin2,     // (0,0,1,0)  R(a,a), R(b,a)
  kDiagDiag,      // (0,0,1,1)  R(a,a), R(b,b)
  kPath,          // (0,1,1,2)  R(a,b), R(b,c)   NP-hard
};

struct CanonicalForm {
  Pattern pattern;
  bool flip_columns;
  // Conclusion in canonical variable ids, ordered.
  int cx;
  int cy;
};

std::array<int, 4> Relabel(const std::array<int, 4>& vars,
                           std::unordered_map<int, int>* mapping) {
  std::array<int, 4> out{};
  int next = 0;
  mapping->clear();
  for (int p = 0; p < 4; ++p) {
    const auto it = mapping->find(vars[p]);
    if (it == mapping->end()) {
      mapping->emplace(vars[p], next);
      out[p] = next++;
    } else {
      out[p] = it->second;
    }
  }
  return out;
}

std::optional<Pattern> MatchPattern(const std::array<int, 4>& canon) {
  static const std::map<std::array<int, 4>, Pattern> kKnown = {
      {{0, 1, 2, 3}, Pattern::kDistinct},
      {{0, 1, 0, 1}, Pattern::kIdentical},
      {{0, 1, 0, 2}, Pattern::kSharedFirst},
      {{0, 1, 1, 0}, Pattern::kReversed},
      {{0, 0, 1, 2}, Pattern::kDiagFree},
      {{0, 0, 0, 1}, Pattern::kDiagJoin1},
      {{0, 0, 1, 0}, Pattern::kDiagJoin2},
      {{0, 0, 1, 1}, Pattern::kDiagDiag},
      {{0, 1, 1, 2}, Pattern::kPath},
  };
  const auto it = kKnown.find(canon);
  if (it == kKnown.end()) return std::nullopt;
  return it->second;
}

// Tries the four symmetry transforms in order and returns the first
// canonical match. Every two-binary-atom EGD over one relation matches
// exactly one pattern up to symmetry (all 15 set partitions of the four
// positions reduce to the table above; the all-equal partition cannot carry
// a non-vacuous conclusion).
std::optional<CanonicalForm> Canonicalize(const BinaryAtomEgd& egd) {
  for (const auto& perm : kTransforms) {
    std::array<int, 4> vars{};
    for (int p = 0; p < 4; ++p) vars[p] = egd.pos_vars()[perm[p]];
    std::unordered_map<int, int> mapping;
    const std::array<int, 4> canon = Relabel(vars, &mapping);
    const auto pattern = MatchPattern(canon);
    if (!pattern.has_value()) continue;
    CanonicalForm form;
    form.pattern = *pattern;
    form.flip_columns = (perm == kTransforms[2] || perm == kTransforms[3]);
    const int cx = mapping.at(egd.eq_lhs());
    const int cy = mapping.at(egd.eq_rhs());
    form.cx = std::min(cx, cy);
    form.cy = std::max(cx, cy);
    return form;
  }
  return std::nullopt;
}

// One fact as an (attr0, attr1, weight) triple, post column flip.
struct Cell {
  Value a;
  Value b;
  double w;
};

struct ValuePairHash {
  size_t operator()(const std::pair<Value, Value>& p) const {
    return p.first.Hash() * 1099511628211ull ^ p.second.Hash();
  }
};

using WeightByValue = std::unordered_map<Value, double, ValueHash>;
using WeightByPair =
    std::unordered_map<std::pair<Value, Value>, double, ValuePairHash>;

double MaxWeight(const WeightByValue& groups) {
  double best = 0.0;
  for (const auto& [value, w] : groups) best = std::max(best, w);
  return best;
}

// Closed-form solvers per canonical pattern (derivations follow the
// paper's Lemmas 3 and 4). W is total weight; cells are all facts.
double SolveSameRelation(Pattern pattern, int cx, int cy,
                         const std::vector<Cell>& cells) {
  double total = 0.0;
  double offdiag = 0.0;
  WeightByValue by_a;      // weight by attr0 value
  WeightByValue by_b;      // weight by attr1 value
  WeightByValue diag;      // weight of diagonal facts by value
  WeightByValue offdiag_by_a;  // off-diagonal facts grouped by attr0
  WeightByValue offdiag_by_b;  // off-diagonal facts grouped by attr1
  WeightByPair by_pair;    // weight by (attr0, attr1)
  for (const Cell& c : cells) {
    total += c.w;
    by_a[c.a] += c.w;
    by_b[c.b] += c.w;
    by_pair[{c.a, c.b}] += c.w;
    if (c.a == c.b) {
      diag[c.a] += c.w;
    } else {
      offdiag += c.w;
      offdiag_by_a[c.a] += c.w;
      offdiag_by_b[c.b] += c.w;
    }
  }
  double diag_total = total - offdiag;

  switch (pattern) {
    case Pattern::kDistinct: {
      // R(a,b), R(c,d) => conclusion; no join.
      if ((cx == 0 && cy == 1) || (cx == 2 && cy == 3)) {
        // Conclusion inside one atom: off-diagonal facts self-violate.
        return offdiag;
      }
      if ((cx == 0 && cy == 2)) {
        // First attributes must all agree: keep the best attr0 class.
        return total - MaxWeight(by_a);
      }
      if ((cx == 1 && cy == 3)) {
        return total - MaxWeight(by_b);
      }
      // a=d or b=c: every fact must be diagonal, all on one value.
      return offdiag + diag_total - MaxWeight(diag);
    }
    case Pattern::kIdentical:
      // R(a,b), R(a,b) => a=b: off-diagonal facts self-violate.
      return offdiag;
    case Pattern::kSharedFirst: {
      // R(a,b), R(a,c).
      if (cx == 1 && cy == 2) {
        // The FD attr0 -> attr1: per attr0 block keep the best attr1 class.
        std::unordered_map<Value, WeightByValue, ValueHash> blocks;
        for (const Cell& c : cells) blocks[c.a][c.b] += c.w;
        double cost = 0.0;
        for (const auto& [key, group] : blocks) {
          double block_total = 0.0;
          for (const auto& [value, w] : group) block_total += w;
          cost += block_total - MaxWeight(group);
        }
        return cost;
      }
      // a=b or a=c: off-diagonal facts self-violate (witness via the join
      // partner equal to the fact itself).
      return offdiag;
    }
    case Pattern::kReversed: {
      // R(a,b), R(b,a) => a=b: per unordered value pair {alpha != beta},
      // the (alpha,beta) and (beta,alpha) classes conflict completely.
      double cost = 0.0;
      for (const auto& [pair, w] : by_pair) {
        if (pair.first == pair.second) continue;
        if (pair.second < pair.first) continue;  // handle each pair once
        const auto rev = by_pair.find({pair.second, pair.first});
        if (rev != by_pair.end()) cost += std::min(w, rev->second);
      }
      return cost;
    }
    case Pattern::kDiagFree: {
      // R(a,a), R(b,c).
      if (cx == 1 && cy == 2) {
        // b=c: delete all diagonal facts or all off-diagonal facts.
        return std::min(diag_total, offdiag);
      }
      // a=b (resp. a=c): either no diagonal fact survives, or one value
      // alpha is chosen and every fact must carry it in attr0 (resp. attr1).
      const WeightByValue& keyed = (cx == 0 && cy == 1) ? by_a : by_b;
      double best = std::numeric_limits<double>::infinity();
      for (const auto& [value, w] : keyed) {
        if (diag.count(value) == 0) continue;  // no kept diagonal => option 1
        best = std::min(best, total - w);
      }
      return std::min(diag_total, best == std::numeric_limits<double>::infinity()
                                      ? diag_total
                                      : best);
    }
    case Pattern::kDiagJoin1: {
      // R(a,a), R(a,b) => a=b: per value alpha, diagonal facts of value
      // alpha conflict with off-diagonal facts whose attr0 is alpha.
      double cost = 0.0;
      for (const auto& [value, dw] : diag) {
        const auto it = offdiag_by_a.find(value);
        if (it != offdiag_by_a.end()) cost += std::min(dw, it->second);
      }
      return cost;
    }
    case Pattern::kDiagJoin2: {
      // R(a,a), R(b,a) => a=b: symmetric with attr1.
      double cost = 0.0;
      for (const auto& [value, dw] : diag) {
        const auto it = offdiag_by_b.find(value);
        if (it != offdiag_by_b.end()) cost += std::min(dw, it->second);
      }
      return cost;
    }
    case Pattern::kDiagDiag:
      // R(a,a), R(b,b) => a=b: keep a single diagonal value class.
      return diag_total - MaxWeight(diag);
    case Pattern::kPath:
      DBIM_CHECK_MSG(false, "kPath is NP-hard; no closed form");
  }
  return 0.0;
}

// Lemma 2: different relations. The conflict graph is bipartite (every
// witness pairs one R1 fact with one R2 fact), so minimum weighted vertex
// cover is a minimum s-t cut.
double SolveDifferentRelations(const BinaryAtomEgd& egd, const Database& db) {
  // One flow node per fact of either relation, in id order: an R1 fact
  // feeds the source and an R2 fact the sink, with its deletion cost.
  std::unordered_map<FactId, uint32_t> node_of;
  std::vector<double> source_cap;
  std::vector<double> sink_cap;
  for (const FactId id : db.ids()) {
    const RelationId r = db.Locate(id).relation;
    if (r != egd.rel1() && r != egd.rel2()) continue;
    node_of[id] = static_cast<uint32_t>(source_cap.size());
    source_cap.push_back(r == egd.rel1() ? db.deletion_cost(id) : 0.0);
    sink_cap.push_back(r == egd.rel1() ? 0.0 : db.deletion_cost(id));
  }
  // The two variables range over different relations, so every minimal
  // subset is one (R1, R2) pair; sorting by (R1, R2) node gives the flow
  // the arc order of a left-major nested loop.
  const ViolationSet violations =
      ViolationDetector(db.schema_ptr(), {egd.ToDenialConstraint()})
          .FindViolations(db);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (const FactSpan pair : violations) {
    const bool first_left = db.Locate(pair[0]).relation == egd.rel1();
    edges.emplace_back(node_of.at(pair[first_left ? 0 : 1]),
                       node_of.at(pair[first_left ? 1 : 0]));
  }
  std::sort(edges.begin(), edges.end());
  const size_t n = source_cap.size();
  return MinCoverCut(n, edges, std::move(source_cap), std::move(sink_cap))
      .flow;
}

}  // namespace

EgdComplexity ClassifyEgd(const BinaryAtomEgd& egd) {
  if (!egd.SameRelation()) return EgdComplexity::kPolyDifferentRelations;
  const auto form = Canonicalize(egd);
  DBIM_CHECK(form.has_value());
  if (form->pattern == Pattern::kPath) return EgdComplexity::kNpHard;
  return EgdComplexity::kPolySameRelation;
}

std::string DescribeEgdPattern(const BinaryAtomEgd& egd) {
  if (!egd.SameRelation()) {
    return "R1(..), R2(..) [PTIME: bipartite conflict graph]";
  }
  const auto form = Canonicalize(egd);
  DBIM_CHECK(form.has_value());
  static const char* kNames[] = {
      "R(a,b), R(c,d)", "R(a,b), R(a,b)", "R(a,b), R(a,c)",
      "R(a,b), R(b,a)", "R(a,a), R(b,c)", "R(a,a), R(a,b)",
      "R(a,a), R(b,a)", "R(a,a), R(b,b)", "R(a,b), R(b,c)"};
  const char* vars = "abcd";
  const int i = static_cast<int>(form->pattern);
  return StrFormat("%s => %c=%c%s [%s]", kNames[i], vars[form->cx],
                   vars[form->cy], form->flip_columns ? " (columns flipped)" : "",
                   form->pattern == Pattern::kPath ? "NP-hard" : "PTIME");
}

std::optional<double> SolveTractableEgdRepair(const BinaryAtomEgd& egd,
                                              const Database& db) {
  if (!egd.SameRelation()) return SolveDifferentRelations(egd, db);
  const auto form = Canonicalize(egd);
  DBIM_CHECK(form.has_value());
  if (form->pattern == Pattern::kPath) return std::nullopt;

  const ValuePool& pool = db.pool();
  std::vector<Cell> cells;
  for (const FactId id : db.ids()) {
    if (db.Locate(id).relation != egd.rel1()) continue;
    DBIM_CHECK_MSG(db.schema().relation(egd.rel1()).arity() == 2,
                   "binary-atom EGDs need binary facts");
    Cell c{pool.value(db.value_id(id, 0)), pool.value(db.value_id(id, 1)),
           db.deletion_cost(id)};
    if (form->flip_columns) std::swap(c.a, c.b);
    cells.push_back(std::move(c));
  }
  return SolveSameRelation(form->pattern, form->cx, form->cy, cells);
}

}  // namespace dbim
