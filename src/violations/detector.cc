#include "violations/detector.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/check.h"
#include "common/parallel.h"
#include "common/value_pool.h"
#include "violations/eval_kernel.h"
#include "violations/witness_index.h"

namespace dbim {

namespace {

// The detector is a *driver* over the shared eval kernel
// (violations/eval_kernel.h): predicate plans, interned-row evaluation,
// blocking buckets and the k-ary enumeration all live there, shared
// with the incremental index. What remains here is the batch pipeline —
// pass structure, its three fan-outs and the ordered merges that make
// results bit-identical for every thread count. Detection always runs to
// completion; the one early exit is Satisfies' first witness.

// Probe fan-out grain: the fewest probe rows a stolen range holds, bar the
// last.
constexpr size_t kMinProbeChunkRows = 64;

// What the probe of one pass-2 constraint found. Binary: the
// (probe row, partner row) pairs, row i of r0 (variable t) and row j of r1
// (variable t'), whose body holds, packed as i << 32 | j; a symmetric body
// holds on both orientations of a pair, so it keeps the one with i < j
// only. K-ary: the candidate supports in the enumeration's order.
struct Found {
  std::vector<uint64_t> pairs;
  std::vector<std::vector<FactId>> supports;
};

// One pass-2 constraint: its compiled body, its relation blocks, what its
// probe found and its counters.
struct ProbePlan {
  size_t dci = 0;
  DcEval eval;
  const Database::RelationBlock* r0 = nullptr;
  const Database::RelationBlock* r1 = nullptr;  // binary only
  bool symmetric = false;                       // binary only
  Found found;
  // `probes` counts candidates reaching the merge, `fires` subsets
  // admitted; k-ary candidates count when merged (pre-minimality),
  // matching the incremental index's accounting.
  uint64_t probes = 0;
  uint64_t fires = 0;

  bool kary() const { return eval.dc().num_vars() >= 3; }
};

// One stretch of pass-2 work: `rows` rows of the probe-row space, from
// `offset` on, any slice of which probes alone. Binary: one probe bucket
// of the witness index (its facts probe one at a time against partners
// found once, at its key) or one `!=` split of PairSplits (its members'
// cross-class pairs); k-ary: the rows of the outermost variable.
struct ProbeUnit {
  uint32_t plan = 0;
  size_t offset = 0;
  uint32_t rows = 0;
  uint32_t bucket = 0;
  FactSpan facts;
  const ClassSplit* split = nullptr;
};

// Probes rows [lo, hi) of `unit` into `out`, reading the blocks, the
// witness index, the plan and the store's self-inconsistent facts only.
// Binary pairs are kept only when their body holds, neither fact is
// self-inconsistent and they are not one fact twice; each candidate pair
// of a unit comes up once, a symmetric body's once per unordered pair.
// K-ary: the kernel's enumeration with the outermost variable over
// [lo, hi) feeds candidate supports to `out`.
void ProbeSlice(const ProbePlan& plan, const ProbeUnit& unit, size_t lo,
                size_t hi, const Database& db, const WitnessIndex& index,
                const WitnessStore& store, Found& out) {
  if (plan.kary()) {
    EnumerateKAry(plan.eval, db, IndexRange{lo, hi},
                  [&](std::vector<FactId> support) {
                    out.supports.push_back(std::move(support));
                  });
    return;
  }
  // Pass 2 probes before it admits a pair: the live subsets are the
  // self-inconsistent facts' singletons.
  const bool any_self_inconsistent = !store.empty();
  auto excluded = [&](FactId id) {
    return any_self_inconsistent && store.IsSelfInconsistent(id);
  };
  auto try_pair = [&](uint32_t i, uint32_t j) {
    const RowRef assignment[2] = {RowRef{plan.r0, i}, RowRef{plan.r1, j}};
    if (plan.eval.BodyHolds(assignment)) {
      out.pairs.push_back(static_cast<uint64_t>(i) << 32 | j);
    }
  };
  if (unit.split != nullptr) {
    unit.split->ForEachCrossPair(lo, hi, [&](FactId x, FactId y) {
      if (excluded(x) || excluded(y)) return;
      const uint32_t rx = db.Locate(x).row;
      const uint32_t ry = db.Locate(y).row;
      try_pair(std::min(rx, ry), std::max(rx, ry));
    });
    return;
  }
  const WitnessIndex::Partners at =
      index.FindPartners(plan.dci, 0, unit.bucket);
  if (at.empty()) return;
  const bool same_relation = plan.r0 == plan.r1;
  for (size_t k = lo; k < hi; ++k) {
    const FactId a = unit.facts[k];
    if (excluded(a)) continue;
    const uint32_t i = db.Locate(a).row;
    index.ForEachPartner(db, at, RowRef{plan.r0, i}, [&](FactId b) {
      if (excluded(b)) return;
      const uint32_t j = db.Locate(b).row;
      // One fact twice is self-inconsistency, not a pair; a symmetric
      // body's j < i is the pair that probe row j finds as (j, i).
      if (same_relation && (plan.symmetric ? j <= i : j == i)) return;
      try_pair(i, j);
    });
  }
}

}  // namespace

ViolationDetector::ViolationDetector(std::shared_ptr<const Schema> schema,
                                     std::vector<DenialConstraint> constraints,
                                     DetectorOptions options)
    : schema_(std::move(schema)),
      constraints_(std::move(constraints)),
      options_(options) {
  DBIM_CHECK(schema_ != nullptr);
  stats_.resize(constraints_.size());
}

DetectorConstraintStats ViolationDetector::constraint_stats(size_t c) const {
  DBIM_CHECK(c < stats_.size());
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_[c];
}

WitnessStore ViolationDetector::Detect(const Database& db,
                                       const WitnessIndex* index) const {
  // The admitted subsets in discovery order, each with its derivation
  // count: a fact set violating several constraints is one element of MI,
  // but one minimal violation per derivation.
  WitnessStore store;
  // Satisfies' early exit: stop once the store holds one subset. Only the
  // one-constraint-at-a-time walk (which Satisfies forces) checks it.
  auto stop = [&] { return index == nullptr && !store.empty(); };

  const ValuePool& pool = db.pool();
  // Satisfies runs sequentially (see pass 2).
  const size_t num_threads = index == nullptr ? 1
                             : options_.num_threads == 0
                                 ? ThreadPool::HardwareThreads()
                                 : options_.num_threads;

  // Detection makes three fan-outs, however many constraints Sigma holds:
  // the witness index build (WitnessIndex::Build, one task per bucket
  // group, run by the caller), the pass-1 scan (one task per
  // single-relation constraint) and one probe over the concatenated units
  // of every pass-2 constraint (probe buckets, pair-walked `!=` splits and
  // k-ary outer rows). Each task writes only state its range owns, and
  // every decision that depends on global order (pair order and dedup,
  // admission, counters) runs in the sequential merge after it, so results
  // are bit-identical for every thread count.

  // Pass 1: self-inconsistent facts. These are the singleton minimal
  // subsets, and they disqualify any larger subset containing them. Each
  // single-relation constraint scans its block into a private hit buffer;
  // the buffers merge into one sorted, duplicate-free list.
  std::vector<const DenialConstraint*> scans;
  for (const DenialConstraint& dc : constraints_) {
    const std::vector<RelationId>& rels = dc.var_relations();
    if (!dc.TriviallyNotUnary() &&
        std::all_of(rels.begin(), rels.end(),
                    [&](RelationId r) { return r == rels[0]; })) {
      scans.push_back(&dc);
    }
  }
  std::vector<std::vector<FactId>> hits(scans.size());
  OrderedStealingFor(
      num_threads, scans.size(), 1,
      [&](IndexRange range) {
        for (size_t s = range.begin; s < range.end; ++s) {
          const DenialConstraint& dc = *scans[s];
          const DcEval eval(dc, pool);
          const Database::RelationBlock& block =
              db.relation_block(dc.var_relation(0));
          std::vector<RowRef> assignment;
          for (uint32_t i = 0; i < block.num_rows(); ++i) {
            assignment.assign(dc.num_vars(), RowRef{&block, i});
            if (eval.BodyHolds(assignment.data())) {
              hits[s].push_back(block.row_ids[i]);
            }
          }
        }
      },
      [](IndexRange) {});
  // Singleton subsets are admitted in id order so the result layout is a
  // pure function of (Sigma, D) — the anchor of the parallel-parity
  // guarantee below.
  std::vector<FactId> singletons;
  for (const std::vector<FactId>& h : hits) {
    singletons.insert(singletons.end(), h.begin(), h.end());
  }
  std::sort(singletons.begin(), singletons.end());
  singletons.erase(std::unique(singletons.begin(), singletons.end()),
                   singletons.end());
  for (const FactId id : singletons) {
    store.Admit({id});
    if (stop()) return store;
  }

  // Pass 2: the binary and k-ary constraints, in ascending index order.
  std::vector<ProbePlan> plans;
  for (size_t dci = 0; dci < constraints_.size(); ++dci) {
    const DenialConstraint& dc = constraints_[dci];
    if (dc.num_vars() == 1) continue;  // covered by pass 1
    ProbePlan& plan = plans.emplace_back();
    plan.dci = dci;
    plan.eval = DcEval(dc, pool);
    plan.r0 = &db.relation_block(dc.var_relation(0));
    if (plan.kary()) continue;
    plan.r1 = &db.relation_block(dc.var_relation(1));
  }

  // Probes plans [first, last) against `probe_index`, bucket by bucket:
  // one fan-out over the concatenated rows of their units, where a stolen
  // range probes its slice of every unit it meets into a range-private
  // buffer. The buffers are consumed in ascending range order, so k-ary
  // supports keep the sequential order; binary pairs are sorted by the
  // merge, whatever order the buckets came in.
  auto probe = [&](size_t first, size_t last,
                   const WitnessIndex& probe_index) {
    std::vector<ProbeUnit> units;
    size_t rows = 0;
    auto add = [&](ProbeUnit unit) {
      if (unit.rows == 0) return;
      unit.offset = rows;
      rows += unit.rows;
      units.push_back(unit);
    };
    for (size_t p = first; p < last; ++p) {
      ProbePlan& plan = plans[p];
      ProbeUnit unit;
      unit.plan = static_cast<uint32_t>(p);
      if (plan.kary()) {
        unit.rows = plan.r0->num_rows();
        add(unit);
        continue;
      }
      const WitnessIndex::DcPlan& blocking = probe_index.plan(plan.dci);
      plan.symmetric = blocking.symmetric;
      if (const auto* splits = probe_index.PairSplits(plan.dci)) {
        for (const ClassSplit& split : *splits) {
          if (split.members.empty() || split.one_class()) continue;
          unit.split = &split;
          unit.rows = static_cast<uint32_t>(split.members.size());
          add(unit);
        }
        continue;
      }
      const KeyBuckets& group = probe_index.group(blocking.group[0]);
      for (uint32_t b = 0; b < group.bucket_bound(); ++b) {
        unit.bucket = b;
        unit.facts = group.facts(b);
        unit.rows = unit.facts.size;
        add(unit);
      }
    }
    std::mutex mu;
    std::map<size_t, std::vector<Found>> by_range;  // by range.begin
    OrderedStealingFor(
        num_threads, rows, kMinProbeChunkRows,
        [&](IndexRange range) {
          std::vector<Found> out(last - first);
          auto it = std::upper_bound(
              units.begin(), units.end(), range.begin,
              [](size_t row, const ProbeUnit& u) { return row < u.offset; });
          for (--it; it != units.end() && it->offset < range.end; ++it) {
            ProbeSlice(plans[it->plan], *it,
                       std::max(range.begin, it->offset) - it->offset,
                       std::min(range.end, it->offset + it->rows) - it->offset,
                       db, probe_index, store, out[it->plan - first]);
          }
          std::lock_guard<std::mutex> lock(mu);
          by_range.emplace(range.begin, std::move(out));
        },
        [&](IndexRange range) {
          std::vector<Found> in;
          {
            std::lock_guard<std::mutex> lock(mu);
            const auto it = by_range.find(range.begin);
            in = std::move(it->second);
            by_range.erase(it);
          }
          for (size_t p = 0; p < in.size(); ++p) {
            Found& to = plans[first + p].found;
            to.pairs.insert(to.pairs.end(), in[p].pairs.begin(),
                            in[p].pairs.end());
            for (auto& support : in[p].supports) {
              to.supports.push_back(std::move(support));
            }
          }
        });
  };

  // Merges one probed plan. Binary pairs go in in (probe row, partner row)
  // order, the order a row-by-row probe finds them in, so the result
  // layout and the counters are a pure function of (Sigma, D). A
  // candidate is one orientation of a pair whose body holds: a symmetric
  // body's pair counts both, and any other body's pair holding both ways
  // goes in at its first orientation only.
  std::vector<std::vector<FactId>> kary_candidates;
  auto merge = [&](ProbePlan& plan) {
    if (plan.kary()) {
      plan.probes += plan.found.supports.size();
      plan.fires += plan.found.supports.size();
      for (auto& support : plan.found.supports) {
        kary_candidates.push_back(std::move(support));
      }
      return;
    }
    std::vector<uint64_t>& pairs = plan.found.pairs;
    std::sort(pairs.begin(), pairs.end());
    const bool same_relation = plan.r0 == plan.r1;
    for (const uint64_t ij : pairs) {
      const uint32_t i = static_cast<uint32_t>(ij >> 32);
      const uint32_t j = static_cast<uint32_t>(ij);
      plan.probes += plan.symmetric ? 2 : 1;
      if (!plan.symmetric && same_relation && j < i &&
          std::binary_search(pairs.begin(), pairs.end(),
                             static_cast<uint64_t>(j) << 32 | i)) {
        continue;
      }
      ++plan.fires;
      const FactId a = plan.r0->row_ids[i];
      const FactId b = plan.r1->row_ids[j];
      store.Admit({std::min(a, b), std::max(a, b)});
      if (stop()) return;
    }
  };

  if (index != nullptr) {
    probe(0, plans.size(), *index);
    for (ProbePlan& plan : plans) merge(plan);
  } else {
    // Satisfies probes one constraint at a time and builds each binary
    // constraint's part of the index alone, just before its probe, so it
    // stops at the first witness without building the index of any later
    // constraint.
    WitnessIndex own(constraints_, schema_->num_relations());
    for (size_t p = 0; p < plans.size() && !stop(); ++p) {
      if (!plans[p].kary()) {
        const std::vector<uint32_t> only = {
            static_cast<uint32_t>(plans[p].dci)};
        own.Build(db, 1, &only);
      }
      probe(p, p + 1, own);
      merge(plans[p]);
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const ProbePlan& plan : plans) {
      stats_[plan.dci].num_probes += plan.probes;
      stats_[plan.dci].num_fires += plan.fires;
    }
  }

  // Pass 3: the k-ary candidates, minimality-filtered against the
  // singletons and pairs admitted above and against each other.
  if (!stop()) store.AdmitKAry(std::move(kary_candidates));
  return store;
}

ViolationSet ViolationDetector::FindViolations(const Database& db) const {
  WitnessIndex index(constraints_, schema_->num_relations());
  index.Build(db, options_.num_threads);
  return Detect(db, &index).Snapshot();
}

WitnessStore ViolationDetector::FindWitnesses(const Database& db,
                                              const WitnessIndex& index) const {
  DBIM_CHECK(index.num_constraints() == constraints_.size());
  DBIM_CHECK(!index.stale(db.pool()));
  return Detect(db, &index);
}

bool ViolationDetector::Satisfies(const Database& db) const {
  return Detect(db, nullptr).empty();
}

}  // namespace dbim
