#include "violations/detector.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"
#include "common/value_pool.h"
#include "violations/eval_kernel.h"
#include "violations/witness_index.h"

namespace dbim {

namespace {

// The detector is a *driver* over the shared eval kernel
// (violations/eval_kernel.h): predicate plans, interned-row evaluation,
// blocking-key hashing and the k-ary enumeration all live there, shared
// with the incremental index. What remains here is the batch pipeline —
// pass structure, its three fan-outs and the ordered merges that make
// results bit-identical for every thread count. Detection always runs to
// completion; the one early exit is Satisfies' first witness.

// Shared mutable state threaded through the detection passes.
struct DetectionState {
  // The admitted subsets in discovery order, each with its derivation
  // count. A fact set violating several constraints is derived once per
  // constraint: one element of MI, but one minimal violation per
  // derivation. The counts ride in the one vector the result grows, so
  // the subsets' own allocations stay as compact as a plain list's.
  struct Admitted {
    std::vector<FactId> subset;
    uint32_t derivations = 0;
  };
  std::vector<Admitted> admitted;
  std::unordered_set<FactId> self_inconsistent;
  // Canonical hash of each admitted subset -> its slot in `admitted`.
  std::unordered_map<uint64_t, size_t> seen;
  // Satisfies' early exit: stop once the result holds one subset. Only
  // the one-constraint-at-a-time walk (which Satisfies forces) checks `stop`.
  bool first_witness_only = false;
  bool stop = false;

  void Admit(std::vector<FactId> subset) {
    const auto [it, fresh] =
        seen.try_emplace(SubsetKey(subset), admitted.size());
    if (fresh) admitted.push_back({std::move(subset), 0});
    ++admitted[it->second].derivations;
    stop = first_witness_only;
  }

  ViolationSet Result() {
    ViolationSet result;
    result.Reserve(admitted.size());
    for (Admitted& a : admitted) result.Add(std::move(a.subset), a.derivations);
    return result;
  }
};

// Probe fan-out grain: the fewest rows a stolen range holds, bar the last.
constexpr size_t kMinProbeChunkRows = 64;

// One pass-2 constraint. Its probe rows are variable 0's rows (a binary
// constraint's probe side, a k-ary constraint's outermost variable); they
// occupy [offset, end()) of the probe-row space that concatenates every
// plan in constraint order. A binary plan probes the witness index on its
// constraint's side-0 plan.
struct ProbePlan {
  size_t dci = 0;
  DcEval eval;
  const Database::RelationBlock* r0 = nullptr;
  const Database::RelationBlock* r1 = nullptr;  // binary only
  size_t offset = 0;
  // Symmetric-pair dedup: FD-style bodies match both orders of a pair,
  // and the per-constraint dedup keeps the (F, sigma) minimal-violation
  // count honest.
  std::unordered_set<uint64_t> seen_pairs;
  // `probes` counts candidates reaching the merge, `fires` subsets
  // admitted; k-ary candidates count when merged (pre-minimality),
  // matching the incremental index's accounting.
  uint64_t probes = 0;
  uint64_t fires = 0;

  bool kary() const { return eval.dc().num_vars() >= 3; }
  size_t num_rows() const { return r0->num_rows(); }
  size_t end() const { return offset + num_rows(); }
};

// Probes rows [range.begin, range.end) of a plan's probe block in row
// order, reading the blocks, the witness index, the plan and the
// self-inconsistent set only. K-ary: the kernel's enumeration with the
// outermost variable over the range feeds candidate supports to
// `on_support`. Binary: surviving pairs (body verified, self-inconsistent
// facts and reflexive matches filtered) go to `on_pair(a, b)` (a < b, or
// a == b cross-relation) in discovery order: probe row ascending, partner
// row ascending within. Each probe row visits only the partners its
// constraint's indexed predicates admit (see WitnessIndex), at a cost
// proportional to those partners rather than to its bucket. `on_pair`
// returning false stops the probe.
template <typename OnPair, typename OnSupport>
void ProbeRows(const ProbePlan& plan, const Database& db,
               const WitnessIndex& index,
               const std::unordered_set<FactId>& self_inconsistent,
               IndexRange range, OnPair&& on_pair, OnSupport&& on_support) {
  if (plan.kary()) {
    EnumerateKAry(plan.eval, db, range, on_support);
    return;
  }
  const DenialConstraint& dc = plan.eval.dc();
  const bool same_relation = dc.var_relation(0) == dc.var_relation(1);
  std::vector<uint32_t> partners;
  for (uint32_t i = static_cast<uint32_t>(range.begin);
       i < static_cast<uint32_t>(range.end); ++i) {
    const FactId a = plan.r0->row_ids[i];
    if (self_inconsistent.count(a) > 0) continue;
    const RowRef probe{plan.r0, i};
    partners.clear();
    index.ForEachPartner(db, plan.dci, 0, probe, [&](FactId b) {
      partners.push_back(db.Locate(b).row);
    });
    std::sort(partners.begin(), partners.end());
    for (const uint32_t j : partners) {
      // i indexes r0 (variable t), j indexes r1 (variable t').
      const FactId b = plan.r1->row_ids[j];
      if (a == b && same_relation) continue;
      if (self_inconsistent.count(b) > 0) continue;
      const RowRef assignment[2] = {probe, RowRef{plan.r1, j}};
      if (!plan.eval.BodyHolds(assignment)) continue;
      if (!on_pair(std::min(a, b), std::max(a, b))) return;
    }
  }
}

// What one stolen probe range found for one plan, in discovery order.
struct PlanCandidates {
  std::vector<std::pair<FactId, FactId>> pairs;  // binary
  std::vector<std::vector<FactId>> supports;     // k-ary
};

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

ViolationSet ViolationDetector::Detect(const Database& db,
                                       const WitnessIndex* index) const {
  DetectionState state;
  state.first_witness_only = index == nullptr;

  const ValuePool& pool = db.pool();
  // Satisfies runs sequentially (see pass 2).
  const size_t num_threads = index == nullptr ? 1
                             : options_.num_threads == 0
                                 ? ThreadPool::HardwareThreads()
                                 : options_.num_threads;

  // Detection makes three fan-outs, however many constraints Sigma holds:
  // the witness index build (WitnessIndex::Build, one task per bucket
  // group, run by the caller), the pass-1 scan (one task per
  // single-relation constraint) and one probe over the concatenated probe
  // rows of every pass-2 constraint (at one thread, pass 2 walks the
  // constraints in turn instead). Each task writes only state its range
  // owns, and every decision that depends on global order (set inserts,
  // pair dedup, admission, counters) runs in the ordered consume, so
  // results are bit-identical for every thread count.

  // Pass 1: self-inconsistent facts. These are the singleton minimal
  // subsets, and they disqualify any larger subset containing them. Each
  // single-relation constraint scans its block into a private hit buffer;
  // the buffers merge by set insert, so the set is order-insensitive.
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
      [&](IndexRange range) {
        for (size_t s = range.begin; s < range.end; ++s) {
          state.self_inconsistent.insert(hits[s].begin(), hits[s].end());
        }
      });
  // Singleton subsets are emitted in id order so the result layout is a
  // pure function of (Sigma, D) — the anchor of the parallel-parity
  // guarantee below.
  std::vector<FactId> singletons(state.self_inconsistent.begin(),
                                 state.self_inconsistent.end());
  std::sort(singletons.begin(), singletons.end());
  for (const FactId id : singletons) {
    state.Admit({id});
    if (state.stop) return state.Result();
  }

  // Pass 2: the binary and k-ary constraints, in ascending index order.
  std::vector<ProbePlan> plans;
  size_t probe_rows = 0;
  for (size_t dci = 0; dci < constraints_.size(); ++dci) {
    const DenialConstraint& dc = constraints_[dci];
    if (dc.num_vars() == 1) continue;  // covered by pass 1
    ProbePlan& plan = plans.emplace_back();
    plan.dci = dci;
    plan.eval = DcEval(dc, pool);
    plan.r0 = &db.relation_block(dc.var_relation(0));
    if (!plan.kary()) plan.r1 = &db.relation_block(dc.var_relation(1));
    plan.offset = probe_rows;
    probe_rows += plan.num_rows();
  }

  std::vector<std::vector<FactId>> kary_candidates;
  auto merge_pair = [&](ProbePlan& plan, FactId a, FactId b) {
    ++plan.probes;
    const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    if (!plan.seen_pairs.insert(key).second) return;
    ++plan.fires;
    state.Admit({a, b});
  };
  auto merge_support = [&](ProbePlan& plan, std::vector<FactId> support) {
    ++plan.probes;
    ++plan.fires;
    kary_candidates.push_back(std::move(support));
  };

  if (num_threads == 1) {
    // Sequentially, the plans go one at a time through the probe, merging
    // pair by pair: no candidate is buffered. Satisfies builds each binary
    // constraint's part of the index alone, just before its probe, so it
    // stops at the first witness without building the index of any later
    // constraint.
    std::optional<WitnessIndex> own;
    if (index == nullptr) own.emplace(constraints_, schema_->num_relations());
    for (ProbePlan& plan : plans) {
      if (own.has_value() && !plan.kary()) {
        const std::vector<uint32_t> only = {static_cast<uint32_t>(plan.dci)};
        own->Build(db, 1, &only);
      }
      ProbeRows(
          plan, db, own.has_value() ? *own : *index, state.self_inconsistent,
          IndexRange{0, plan.num_rows()},
          [&](FactId a, FactId b) {
            merge_pair(plan, a, b);
            return !state.stop;
          },
          [&](std::vector<FactId> support) {
            merge_support(plan, std::move(support));
          });
      if (state.stop) break;
    }
  } else {
    // One probe over the concatenated probe rows: a stolen range may span
    // several plans, and maps onto each one's local row sub-range. The
    // range-private candidate buffers are consumed in ascending range
    // order, which is constraint order, then row order: the sequential
    // discovery order.
    std::mutex mu;
    std::map<size_t, std::vector<PlanCandidates>> found;  // by range.begin
    OrderedStealingFor(
        num_threads, probe_rows, kMinProbeChunkRows,
        [&](IndexRange range) {
          std::vector<PlanCandidates> out(plans.size());
          for (size_t p = 0; p < plans.size(); ++p) {
            const ProbePlan& plan = plans[p];
            if (plan.end() <= range.begin) continue;
            if (plan.offset >= range.end) break;
            const IndexRange local{
                std::max(range.begin, plan.offset) - plan.offset,
                std::min(range.end, plan.end()) - plan.offset};
            PlanCandidates& mine = out[p];
            ProbeRows(
                plan, db, *index, state.self_inconsistent, local,
                [&](FactId a, FactId b) {
                  mine.pairs.emplace_back(a, b);
                  return true;
                },
                [&](std::vector<FactId> support) {
                  mine.supports.push_back(std::move(support));
                });
          }
          std::lock_guard<std::mutex> lock(mu);
          found.emplace(range.begin, std::move(out));
        },
        [&](IndexRange range) {
          std::vector<PlanCandidates> in;
          {
            std::lock_guard<std::mutex> lock(mu);
            const auto it = found.find(range.begin);
            in = std::move(it->second);
            found.erase(it);
          }
          for (size_t p = 0; p < in.size(); ++p) {
            for (const auto& [a, b] : in[p].pairs) merge_pair(plans[p], a, b);
            for (auto& support : in[p].supports) {
              merge_support(plans[p], std::move(support));
            }
          }
        });
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const ProbePlan& plan : plans) {
      stats_[plan.dci].num_probes += plan.probes;
      stats_[plan.dci].num_fires += plan.fires;
    }
  }

  // Pass 3: minimality filter for k-ary candidate supports. A candidate
  // survives iff no singleton/pair of the result and no other (smaller)
  // candidate is a proper subset of it. Prior witnesses are indexed by
  // member fact, so each candidate scans only the witnesses sharing one of
  // its members — O(sum of its members' posting lists) — instead of the
  // whole result + accepted lists (the old O(c^2) scan). The candidate
  // order is canonical (size, then lexicographic), so admissions are the
  // same on every run.
  if (!kary_candidates.empty() && !state.stop) {
    std::sort(kary_candidates.begin(), kary_candidates.end(),
              [](const auto& a, const auto& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
    auto contains = [](const std::vector<FactId>& big,
                       const std::vector<FactId>& small) {
      return std::includes(big.begin(), big.end(), small.begin(), small.end());
    };
    // Witness store: the singletons/pairs already in the result, then the
    // accepted candidates as they are admitted. postings maps a member fact
    // to its witness slots; visited stamps deduplicate slots shared by
    // several members of one candidate.
    std::vector<std::vector<FactId>> witnesses;
    std::unordered_map<FactId, std::vector<uint32_t>> postings;
    auto post = [&](const std::vector<FactId>& subset) {
      const uint32_t slot = static_cast<uint32_t>(witnesses.size());
      witnesses.push_back(subset);
      for (const FactId id : subset) postings[id].push_back(slot);
    };
    for (const auto& a : state.admitted) post(a.subset);
    std::vector<uint32_t> visited;
    uint32_t stamp = 0;
    for (const auto& cand : kary_candidates) {
      bool minimal = true;
      for (const FactId id : cand) {
        if (state.self_inconsistent.count(id) > 0) {
          minimal = cand.size() == 1;
          break;
        }
      }
      if (minimal) {
        ++stamp;
        visited.resize(witnesses.size(), 0);
        for (const FactId id : cand) {
          const auto it = postings.find(id);
          if (it == postings.end()) continue;
          for (const uint32_t slot : it->second) {
            if (visited[slot] == stamp) continue;
            visited[slot] = stamp;
            const auto& sub = witnesses[slot];
            if (sub.size() < cand.size() && contains(cand, sub)) {
              minimal = false;
              break;
            }
          }
          if (!minimal) break;
        }
      }
      if (!minimal) continue;
      post(cand);
      state.Admit(cand);
      if (state.stop) break;
    }
  }

  return state.Result();
}

ViolationSet ViolationDetector::FindViolations(const Database& db) const {
  WitnessIndex index(constraints_, schema_->num_relations());
  index.Build(db, options_.num_threads);
  return Detect(db, &index);
}

ViolationSet ViolationDetector::FindViolations(
    const Database& db, const WitnessIndex& index) const {
  DBIM_CHECK(index.num_constraints() == constraints_.size());
  DBIM_CHECK(!index.stale(db.pool()));
  return Detect(db, &index);
}

bool ViolationDetector::Satisfies(const Database& db) const {
  return Detect(db, nullptr).empty();
}

}  // namespace dbim
