#include "violations/incremental.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "common/string_util.h"
#include "violations/eval_kernel.h"

namespace dbim {

namespace {

// Whether predicate `b` says what `a` says with t and t' swapped.
bool SwapsTo(const Predicate& a, const Predicate& b) {
  auto swap = [](const Operand& o) { return Operand{1 - o.var, o.attr}; };
  const Operand lhs = swap(a.lhs());
  if (a.rhs_is_constant() || b.rhs_is_constant()) {
    return a.rhs_is_constant() && b.rhs_is_constant() && a.op() == b.op() &&
           b.lhs() == lhs && a.rhs_constant() == b.rhs_constant();
  }
  const Operand rhs = swap(a.rhs_operand());
  return (b.op() == a.op() && b.lhs() == lhs && b.rhs_operand() == rhs) ||
         (b.op() == FlipOp(a.op()) && b.lhs() == rhs &&
          b.rhs_operand() == lhs);
}

// Whether a binary body holds on (t, t') exactly when it holds on (t', t):
// both variables range over one relation and swapping them maps the
// predicate set onto itself. Then probing the changed fact as t alone
// finds every pair, and the t' probe could only re-find them.
bool SwapSymmetric(const DenialConstraint& dc) {
  if (dc.var_relation(0) != dc.var_relation(1)) return false;
  const std::vector<Predicate>& preds = dc.predicates();
  return std::all_of(preds.begin(), preds.end(), [&](const Predicate& a) {
    return std::any_of(preds.begin(), preds.end(),
                       [&](const Predicate& b) { return SwapsTo(a, b); });
  });
}

}  // namespace

IncrementalViolationIndex::IncrementalViolationIndex(
    std::shared_ptr<const Schema> schema,
    std::vector<DenialConstraint> constraints, Database db,
    DetectorOptions build_options)
    : schema_(std::move(schema)),
      constraints_(std::move(constraints)),
      owned_(std::move(db)),
      db_(&*owned_) {
  BuildInitialState(build_options);
}

IncrementalViolationIndex::IncrementalViolationIndex(
    std::shared_ptr<const Schema> schema,
    std::vector<DenialConstraint> constraints, Database* db,
    DetectorOptions build_options)
    : schema_(std::move(schema)),
      constraints_(std::move(constraints)),
      db_(db) {
  DBIM_CHECK(db_ != nullptr);
  BuildInitialState(build_options);
}

void IncrementalViolationIndex::BuildInitialState(
    const DetectorOptions& build_options) {
  dc_states_.resize(constraints_.size());
  for (const DenialConstraint& dc : constraints_) {
    if (dc.num_vars() >= 3) has_kary_ = true;
  }
  BuildDispatchTables();
  // The buckets first, fact by fact; the partner indexes are then
  // bulk-built from them.
  db_->ForEachId([&](FactId id) {
    if (id >= stamps_.size()) stamps_.resize(id + 1, 0);
    const Database::RowLocation loc = db_->Locate(id);
    const RowRef row{&db_->relation_block(loc.relation), loc.row};
    for (const uint32_t g : groups_by_rel_[loc.relation]) {
      bucket_groups_[g].Add(db_->pool(), row);
    }
    AddToKAryIndexes(id);
  });
  RebuildPartnerIndexes();

  const ViolationDetector detector(schema_, constraints_, build_options);
  const ViolationSet initial = detector.FindViolations(*db_);
  const std::vector<DcEval>& evals = CompileEvals();
  for (const auto& subset : initial.minimal_subsets()) {
    if (subset.size() == 1) self_inconsistent_.insert(subset[0]);
    IndexSubset(subset, RecoverMultiplicity(evals, subset));
  }
  DBIM_CHECK_MSG(
      num_minimal_violations_ == initial.num_minimal_violations(),
      "incremental build lost violation multiplicities (%zu vs %zu)",
      num_minimal_violations_, initial.num_minimal_violations());
}

void IncrementalViolationIndex::BuildDispatchTables() {
  const size_t num_rels = schema_->num_relations();
  binary_by_rel_.assign(num_rels, {});
  kary_by_rel_.assign(num_rels, {});
  selfinc_by_rel_.assign(num_rels, {});
  bucket_groups_.clear();
  groups_by_rel_.assign(num_rels, {});
  watch_probes_by_rel_.assign(num_rels, {});
  stats_.assign(constraints_.size(), {});
  kary_indexes_.resize(constraints_.size());

  // Constraints are visited in ascending index and a constraint's entries
  // for one relation are pushed consecutively, so a back() check suffices
  // to keep every per-relation list sorted and duplicate-free.
  auto push_unique = [](std::vector<uint32_t>& list, uint32_t c) {
    if (list.empty() || list.back() != c) list.push_back(c);
  };

  // Shared bucket group for (rel, attrs): any two binary sides with the
  // same shape bucket exactly the same facts under exactly the same keys.
  auto group_for = [&](RelationId rel, const std::vector<AttrIndex>& attrs) {
    for (size_t g = 0; g < bucket_groups_.size(); ++g) {
      if (bucket_groups_[g].relation == rel && bucket_groups_[g].attrs == attrs)
        return static_cast<int>(g);
    }
    const int g = static_cast<int>(bucket_groups_.size());
    bucket_groups_.push_back(KeyBuckets{rel, attrs, {}});
    groups_by_rel_[rel].push_back(static_cast<uint32_t>(g));
    indexes_by_group_.emplace_back();
    return g;
  };

  // Shared partner index for (partner group, kind, partner attrs).
  auto index_for = [&](uint32_t group, bool order,
                       const std::vector<AttrIndex>& attrs) {
    for (size_t i = 0; i < partner_indexes_.size(); ++i) {
      const PartnerIndex& index = partner_indexes_[i];
      if (index.group == group && index.order == order &&
          index.attrs == attrs) {
        return static_cast<int>(i);
      }
    }
    const int i = static_cast<int>(partner_indexes_.size());
    partner_indexes_.emplace_back();
    partner_indexes_.back().group = group;
    partner_indexes_.back().order = order;
    partner_indexes_.back().attrs = attrs;
    indexes_by_group_[group].push_back(static_cast<uint32_t>(i));
    return i;
  };

  // The probe with the changed fact bound to variable `s` indexes the
  // body's first two cross order predicates (the detector's OrderRanks
  // choice) or, with none, its first cross `!=`, over the partner group.
  auto plan_side = [&](const DenialConstraint& dc, uint32_t s,
                       uint32_t partner_group) {
    SidePlan plan;
    std::vector<AttrIndex> partner_attrs;
    bool order = false;
    for (const bool want_order : {true, false}) {
      for (const Predicate& p : dc.predicates()) {
        if (!p.IsCrossVariable() || partner_attrs.size() == 2) continue;
        const bool is_order =
            p.op() != CompareOp::kEq && p.op() != CompareOp::kNe;
        if (want_order ? !is_order : p.op() != CompareOp::kNe) continue;
        const bool probe_lhs = p.lhs().var == s;
        const size_t k = partner_attrs.size();
        plan.probe_attrs[k] = probe_lhs ? p.lhs().attr : p.rhs_operand().attr;
        plan.ops[k] = probe_lhs ? p.op() : FlipOp(p.op());
        partner_attrs.push_back(probe_lhs ? p.rhs_operand().attr
                                          : p.lhs().attr);
        if (!want_order) break;
      }
      if (!partner_attrs.empty()) {
        order = want_order;
        break;
      }
    }
    if (!partner_attrs.empty()) {
      plan.index = index_for(partner_group, order, partner_attrs);
    }
    return plan;
  };

  for (uint32_t c = 0; c < constraints_.size(); ++c) {
    const DenialConstraint& dc = constraints_[c];
    // Self-inconsistency candidates: every variable over one relation and
    // not syntactically unary-free — exactly the constraints
    // MakesSelfInconsistentInterned can return true for.
    if (!dc.TriviallyNotUnary()) {
      bool single_relation = true;
      for (const RelationId r : dc.var_relations()) {
        if (r != dc.var_relation(0)) single_relation = false;
      }
      if (single_relation) push_unique(selfinc_by_rel_[dc.var_relation(0)], c);
    }
    if (dc.num_vars() == 2) {
      DcState& state = dc_states_[c];
      const BlockingKeys keys = ExtractBlockingKeys(dc);
      for (uint32_t side = 0; side < 2; ++side) {
        const RelationId rel = dc.var_relation(side);
        push_unique(binary_by_rel_[rel], c);
        state.group[side] = group_for(rel, side == 0 ? keys.var0 : keys.var1);
      }
      state.symmetric = SwapSymmetric(dc);
      for (uint32_t side = 0; side < (state.symmetric ? 1u : 2u); ++side) {
        state.side[side] = plan_side(
            dc, side, static_cast<uint32_t>(state.group[1 - side]));
      }
      // A watch probe per distinct (probe group, partner group) on the
      // probing relation: ops hash each probe group's key once and a
      // non-empty partner bucket at that key marks every constraint in
      // the probe a candidate. The partner bucket doubles as the watcher
      // list — no registration state, presence is the watch.
      for (int probe_side = 0; probe_side < 2; ++probe_side) {
        const uint32_t own = static_cast<uint32_t>(state.group[probe_side]);
        const uint32_t partner =
            static_cast<uint32_t>(state.group[1 - probe_side]);
        auto& probes = watch_probes_by_rel_[dc.var_relation(probe_side)];
        auto it = std::find_if(
            probes.begin(), probes.end(), [&](const WatchProbe& p) {
              return p.probe_group == own && p.partner_group == partner;
            });
        if (it == probes.end()) {
          probes.push_back(WatchProbe{own, partner, {c}});
        } else if (it->constraints.back() != c) {
          it->constraints.push_back(c);
        }
      }
    } else if (dc.num_vars() >= 3) {
      for (const RelationId r : dc.var_relations()) {
        push_unique(kary_by_rel_[r], c);
      }
      kary_indexes_[c] = std::make_unique<KAryBlockingIndex>(dc);
    }
  }

  // Order each relation's watch probes by probe group so the per-op probe
  // computes each distinct key hash exactly once.
  for (auto& probes : watch_probes_by_rel_) {
    std::stable_sort(probes.begin(), probes.end(),
                     [](const WatchProbe& a, const WatchProbe& b) {
                       return a.probe_group < b.probe_group;
                     });
  }
}

const std::vector<DcEval>& IncrementalViolationIndex::CompileEvals() {
  // Key on pool identity as well as size: a session vacuum re-interns the
  // database into a brand-new pool (all class ids reassigned, the old pool
  // destroyed), and subsequent interning can bring the fresh pool back to
  // exactly the cached size. Stale evals would then resolve constants
  // against the dead pool's ids and dereference its freed storage.
  const uint64_t pool_generation = db_->pool().generation();
  const size_t pool_size = db_->pool().size();
  if (pool_generation != evals_pool_generation_ ||
      pool_size != evals_pool_size_) {
    evals_cache_.clear();
    evals_cache_.reserve(constraints_.size());
    for (const DenialConstraint& dc : constraints_) {
      evals_cache_.emplace_back(dc, db_->pool());
    }
    evals_pool_generation_ = pool_generation;
    evals_pool_size_ = pool_size;
  }
  return evals_cache_;
}

uint32_t IncrementalViolationIndex::RecoverMultiplicity(
    const std::vector<DcEval>& evals, const std::vector<FactId>& subset) const {
  // Pass 1 emits each self-inconsistent fact once, no matter how many
  // constraints make it contradictory; the binary probe and the k-ary
  // enumeration then count one derivation per (constraint, orientation)
  // resp. per satisfying assignment.
  uint32_t multiplicity = subset.size() == 1 ? 1 : 0;
  for (size_t c = 0; c < constraints_.size(); ++c) {
    const DenialConstraint& dc = constraints_[c];
    if (dc.num_vars() == 2 && subset.size() == 2) {
      const DcEval& eval = evals[c];
      const Database::RowLocation la = db_->Locate(subset[0]);
      const Database::RowLocation lb = db_->Locate(subset[1]);
      const RowRef a{&db_->relation_block(la.relation), la.row};
      const RowRef b{&db_->relation_block(lb.relation), lb.row};
      const RowRef fwd[2] = {a, b};
      const RowRef rev[2] = {b, a};
      const bool ab = la.relation == dc.var_relation(0) &&
                      lb.relation == dc.var_relation(1) && eval.BodyHolds(fwd);
      const bool ba = !ab && lb.relation == dc.var_relation(0) &&
                      la.relation == dc.var_relation(1) && eval.BodyHolds(rev);
      if (ab || ba) ++multiplicity;
    } else if (dc.num_vars() >= 3) {
      multiplicity += CountDerivations(evals[c], *db_, subset);
    }
  }
  return multiplicity;
}

OrderRuns::Entry IncrementalViolationIndex::EntryOf(
    const PartnerIndex& index, const RowRef& row) const {
  OrderRuns::Entry entry;
  entry.id = row.fact_id();
  entry.stamp = stamps_[entry.id];
  for (size_t k = 0; k < index.attrs.size(); ++k) {
    entry.key[k] = row.class_at(index.attrs[k]);
  }
  return entry;
}

void IncrementalViolationIndex::AddToPartnerIndex(
    PartnerIndex& index, uint64_t h, const RowRef& row,
    const std::vector<FactId>& members) {
  const FactId id = row.fact_id();
  if (index.order) {
    index.runs.try_emplace(h, index.attrs.size())
        .first->second.Insert(db_->pool(), stamps_, EntryOf(index, row));
    return;
  }
  // A bucket of one fact keeps no split (the probe reads that fact from the
  // group bucket), so the split starts with the bucket's second fact,
  // taking in the first.
  if (members.size() < 2) return;
  ClassSplit& split = index.splits[h];
  if (members.size() == 2) {
    const FactId first = members[0] == id ? members[1] : members[0];
    split.Add(BindFact(*db_, first).class_at(index.attrs[0]), first);
  }
  split.Add(row.class_at(index.attrs[0]), id);
}

void IncrementalViolationIndex::ClassSplit::Add(ValueId c, FactId id) {
  const auto it = std::find_if(classes.begin(), classes.end(),
                               [&](const auto& cls) { return cls.first == c; });
  if (it == classes.end()) {
    classes.emplace_back(c, std::vector<FactId>{id});
  } else {
    it->second.push_back(id);
  }
}

void IncrementalViolationIndex::RemoveFromPartnerIndex(
    PartnerIndex& index, uint64_t h, const RowRef& row,
    const std::vector<FactId>* members) {
  if (index.order) {
    const auto it = index.runs.find(h);
    DBIM_CHECK(it != index.runs.end());
    it->second.Tombstone(db_->pool(), stamps_);
    if (it->second.num_live() == 0) index.runs.erase(it);
    return;
  }
  // Down to one fact, the bucket drops its split.
  if (members == nullptr || members->size() < 2) {
    index.splits.erase(h);
    return;
  }
  const auto split = index.splits.find(h);
  DBIM_CHECK(split != index.splits.end());
  split->second.Remove(row.class_at(index.attrs[0]), row.fact_id());
}

void IncrementalViolationIndex::ClassSplit::Remove(ValueId c, FactId id) {
  const auto cls = std::find_if(
      classes.begin(), classes.end(),
      [&](const auto& entry) { return entry.first == c; });
  DBIM_CHECK(cls != classes.end());
  std::vector<FactId>& facts = cls->second;
  const auto pos = std::find(facts.begin(), facts.end(), id);
  DBIM_CHECK(pos != facts.end());
  facts.erase(pos);
  if (facts.empty()) classes.erase(cls);
}

void IncrementalViolationIndex::RebuildPartnerIndexes() {
  const ValuePool& pool = db_->pool();
  for (PartnerIndex& index : partner_indexes_) {
    index.splits.clear();
    index.runs.clear();
    for (const auto& [h, facts] : bucket_groups_[index.group].buckets) {
      if (!index.order) {
        if (facts.size() < 2) continue;
        ClassSplit& split = index.splits[h];
        for (const FactId id : facts) {
          split.Add(BindFact(*db_, id).class_at(index.attrs[0]), id);
        }
        continue;
      }
      std::vector<OrderRuns::Entry> entries;
      entries.reserve(facts.size());
      for (const FactId id : facts) {
        entries.push_back(EntryOf(index, BindFact(*db_, id)));
      }
      index.runs.try_emplace(h, index.attrs.size())
          .first->second.Assign(pool, std::move(entries));
    }
  }
  partner_generation_ = pool.generation();
}

void IncrementalViolationIndex::AddToBinaryBuckets(FactId id) {
  if (id >= stamps_.size()) stamps_.resize(id + 1, 0);
  const Database::RowLocation loc = db_->Locate(id);
  const RowRef row{&db_->relation_block(loc.relation), loc.row};
  for (const uint32_t g : groups_by_rel_[loc.relation]) {
    const uint64_t h = bucket_groups_[g].Hash(db_->pool(), row);
    const std::vector<FactId>& members = bucket_groups_[g].Add(h, id);
    for (const uint32_t i : indexes_by_group_[g]) {
      AddToPartnerIndex(partner_indexes_[i], h, row, members);
    }
  }
}

void IncrementalViolationIndex::AddToKAryIndexes(FactId id) {
  if (!has_kary_) return;
  for (const uint32_t c : kary_by_rel_[db_->Locate(id).relation]) {
    kary_indexes_[c]->Add(*db_, id);
  }
}

void IncrementalViolationIndex::RemoveFromBuckets(FactId id) {
  // Must run before the fact's values change: the bucket key is recomputed
  // from the current cells.
  const Database::RowLocation loc = db_->Locate(id);
  const RowRef row{&db_->relation_block(loc.relation), loc.row};
  ++stamps_[id];  // kills the fact's OrderRuns entries
  for (const uint32_t g : groups_by_rel_[loc.relation]) {
    const uint64_t h = bucket_groups_[g].Hash(db_->pool(), row);
    const std::vector<FactId>* members = bucket_groups_[g].Remove(h, id);
    for (const uint32_t i : indexes_by_group_[g]) {
      RemoveFromPartnerIndex(partner_indexes_[i], h, row, members);
    }
  }
  if (has_kary_) {
    for (const uint32_t c : kary_by_rel_[loc.relation]) {
      kary_indexes_[c]->Remove(*db_, id);
    }
  }
}

void IncrementalViolationIndex::IndexSubset(std::vector<FactId> subset,
                                            uint32_t multiplicity) {
  std::sort(subset.begin(), subset.end());
  const uint64_t key = SubsetKey(subset);
  const auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    // Same subset derived by another constraint/assignment: only the
    // violation count changes.
    subsets_[it->second].multiplicity += multiplicity;
    num_minimal_violations_ += multiplicity;
    return;
  }
  const uint32_t slot = static_cast<uint32_t>(subsets_.size());
  for (const FactId id : subset) {
    postings_[id].push_back(slot);
    ++problematic_count_[id];
  }
  by_key_.emplace(key, slot);
  subsets_.push_back(StoredSubset{std::move(subset), multiplicity, true});
  ++live_subsets_;
  num_minimal_violations_ += multiplicity;
}

void IncrementalViolationIndex::RemoveSubsetsInvolving(FactId id) {
  const auto it = postings_.find(id);
  if (it == postings_.end()) return;
  for (const uint32_t slot : it->second) {
    StoredSubset& stored = subsets_[slot];
    if (!stored.alive) continue;
    stored.alive = false;
    --live_subsets_;
    num_minimal_violations_ -= stored.multiplicity;
    by_key_.erase(SubsetKey(stored.facts));
    for (const FactId member : stored.facts) {
      const auto cnt = problematic_count_.find(member);
      if (cnt != problematic_count_.end() && --cnt->second == 0) {
        problematic_count_.erase(cnt);
      }
    }
  }
  postings_.erase(it);
}

void IncrementalViolationIndex::RecomputeSelfInconsistent(
    const std::vector<DcEval>& evals, FactId id) {
  bool selfinc = false;
  for (const uint32_t c : selfinc_by_rel_[db_->Locate(id).relation]) {
    if (MakesSelfInconsistentInterned(evals[c], *db_, id)) {
      selfinc = true;
      break;
    }
  }
  if (selfinc) {
    self_inconsistent_.insert(id);
  } else {
    self_inconsistent_.erase(id);
  }
}

bool IncrementalViolationIndex::IsMinimalCandidate(
    const std::vector<FactId>& candidate) const {
  // Pass-3 criterion against the live witness store: reject iff some live
  // strictly-smaller subset is contained in the candidate. The member
  // postings bound the scan to witnesses sharing a fact with it.
  for (const FactId member : candidate) {
    const auto it = postings_.find(member);
    if (it == postings_.end()) continue;
    for (const uint32_t slot : it->second) {
      const StoredSubset& stored = subsets_[slot];
      if (!stored.alive || stored.facts.size() >= candidate.size()) continue;
      if (std::includes(candidate.begin(), candidate.end(),
                        stored.facts.begin(), stored.facts.end())) {
        return false;
      }
    }
  }
  return true;
}

template <typename Fn>
void IncrementalViolationIndex::ForEachPartner(const SidePlan& plan,
                                               uint32_t partner_group,
                                               uint64_t h, const RowRef& self,
                                               Fn&& fn) const {
  if (plan.index < 0) {
    const std::vector<FactId>* bucket = bucket_groups_[partner_group].Find(h);
    if (bucket == nullptr) return;
    for (const FactId other : *bucket) fn(other);
    return;
  }
  const PartnerIndex& index = partner_indexes_[plan.index];
  if (!index.order) {
    const ValueId own = self.class_at(plan.probe_attrs[0]);
    const auto it = index.splits.find(h);
    if (it == index.splits.end()) {  // at most one fact: no split
      const std::vector<FactId>* bucket = bucket_groups_[partner_group].Find(h);
      if (bucket == nullptr) return;
      for (const FactId other : *bucket) {
        if (BindFact(*db_, other).class_at(index.attrs[0]) != own) fn(other);
      }
      return;
    }
    for (const auto& [c, facts] : it->second.classes) {
      if (c == own) continue;
      for (const FactId other : facts) fn(other);
    }
    return;
  }
  const auto it = index.runs.find(h);
  if (it == index.runs.end()) return;
  const ValuePool& pool = db_->pool();
  OrderRuns::Probe probe;
  for (size_t k = 0; k < index.attrs.size(); ++k) {
    probe.op[k] = plan.ops[k];
    probe.value[k] = &pool.value(self.class_at(plan.probe_attrs[k]));
  }
  it->second.ForEachPartner(pool, probe, stamps_, fn);
}

void IncrementalViolationIndex::ProbeBinary(const std::vector<DcEval>& evals,
                                            FactId id) {
  const Database::RowLocation loc = db_->Locate(id);
  const RowRef self{&db_->relation_block(loc.relation), loc.row};

  // Commits `id`'s pairs under constraint `c`: side 0 (the fact as t),
  // then, unless the body is symmetric, side 1 (the fact as t'), each in
  // partner-index order, with the per-constraint pair dedup no matter how
  // many orientations match. Committing a pair touches only the witness
  // store, never the buckets, the partner indexes or the self-inconsistent
  // set this probe reads.
  auto probe_constraint = [&](uint32_t c) {
    const DenialConstraint& dc = constraints_[c];
    const DcState& state = dc_states_[c];
    const DcEval& eval = evals[c];
    std::vector<FactId>& hits = probe_hits_;
    hits.clear();
    uint64_t probes = 0;
    size_t side0_hits = 0;
    for (int side = 0; side < (state.symmetric ? 1 : 2); ++side) {
      if (loc.relation != dc.var_relation(side)) continue;
      auto try_partner = [&](FactId other) {
        if (other == id) return;  // reflexive: that is self-inconsistency
        ++probes;
        if (self_inconsistent_.count(other) > 0) return;
        // Only a pair side 0 already committed can come up again on side 1.
        if (side == 1 && std::binary_search(hits.begin(),
                                            hits.begin() + side0_hits, other)) {
          return;
        }
        RowRef assignment[2];
        assignment[side] = self;
        assignment[1 - side] = BindFact(*db_, other);
        if (!eval.BodyHolds(assignment)) return;
        hits.push_back(other);
        IndexSubset({id, other}, 1);
      };
      // The probe hashes its own side's key attributes; equal key values
      // mean equal semantic hashes, so the partner side's bucket holds the
      // candidates. Hash collisions are rejected by the body check (the
      // body contains the key equalities), on interned class ids only.
      const uint32_t partner_group =
          static_cast<uint32_t>(state.group[1 - side]);
      ForEachPartner(state.side[side], partner_group,
                     bucket_groups_[state.group[side]].Hash(db_->pool(), self),
                     self, try_partner);
      if (side == 0 && !state.symmetric) {
        std::sort(hits.begin(), hits.end());
        side0_hits = hits.size();
      }
    }
    stats_[c].probes += probes;
    stats_[c].fires += hits.size();
  };

  // Watched dispatch: one key hash per distinct probe group over the
  // relation, then one partner-bucket presence check per watch probe. A
  // non-empty bucket at the key means the probe's constraints have a live
  // partner there; everything else is skipped. A keyless constraint's
  // partner bucket is its whole partner relation, so it is a candidate
  // whenever that relation holds another fact. A constraint the watch
  // probes skip would have found only empty buckets — identical results,
  // less work.
  std::vector<uint32_t>& candidates = probe_candidates_;
  candidates.clear();
  uint64_t h = 0;
  uint32_t hashed_group = UINT32_MAX;
  for (const WatchProbe& probe : watch_probes_by_rel_[loc.relation]) {
    if (probe.probe_group != hashed_group) {
      h = bucket_groups_[probe.probe_group].Hash(db_->pool(), self);
      hashed_group = probe.probe_group;
    }
    if (bucket_groups_[probe.partner_group].Find(h) == nullptr) continue;
    candidates.insert(candidates.end(), probe.constraints.begin(),
                      probe.constraints.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  dispatch_stats_.constraints_probed += candidates.size();
  dispatch_stats_.constraints_skipped +=
      binary_by_rel_[loc.relation].size() - candidates.size();

  // Ascending constraint order: slot allocation, and with it Snapshot
  // order, is canonical.
  for (const uint32_t c : candidates) probe_constraint(c);
}

void IncrementalViolationIndex::ProbeKAry(const std::vector<DcEval>& evals,
                                          FactId id) {
  // Anchored re-enumeration: support -> derivation count, aggregated
  // across constraints and assignments. Every new witness contains `id`,
  // and nothing already stored does (its subsets were just removed, or the
  // id is fresh), so existing witnesses can only *suppress* candidates,
  // never the other way around.
  // Only constraints with a variable over the changed fact's relation can
  // anchor it; candidates aggregate into an ordered map, so they feed
  // downstream in one canonical order whatever the enumeration's
  // discovery order.
  std::map<std::vector<FactId>, uint32_t> counts;
  for (const uint32_t c : kary_by_rel_[db_->Locate(id).relation]) {
    uint64_t emissions = 0;
    auto emit = [&](std::vector<FactId> support) {
      ++emissions;
      ++counts[std::move(support)];
    };
    EnumerateKAryAnchored(evals[c], *db_, id, *kary_indexes_[c], emit);
    stats_[c].probes += emissions;
    stats_[c].fires += emissions;
  }
  if (counts.empty()) return;
  // Pass-3 candidate order — size-major, lexicographic within a size class
  // (the map iterates lexicographically) — so smaller new witnesses are
  // stored before the larger ones they must suppress.
  std::vector<std::pair<std::vector<FactId>, uint32_t>> candidates(
      std::make_move_iterator(counts.begin()),
      std::make_move_iterator(counts.end()));
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.size() < b.first.size();
                   });
  for (auto& [support, multiplicity] : candidates) {
    bool minimal = true;
    for (const FactId member : support) {
      if (self_inconsistent_.count(member) > 0) {
        minimal = support.size() == 1;
        break;
      }
    }
    if (minimal && support.size() > 1) minimal = IsMinimalCandidate(support);
    if (minimal) IndexSubset(std::move(support), multiplicity);
  }
}

void IncrementalViolationIndex::ProbeFact(const std::vector<DcEval>& evals,
                                          FactId id) {
  ++dispatch_stats_.num_ops;
  if (self_inconsistent_.count(id) > 0) {
    // The only minimal subset through a contradictory fact is its
    // singleton: one derivation for the pass-1 Add, plus one per k-ary
    // constraint whose body holds with every variable on the fact.
    uint32_t multiplicity = 1;
    if (has_kary_) {
      for (const uint32_t c : kary_by_rel_[db_->Locate(id).relation]) {
        multiplicity += CountDerivations(evals[c], *db_, {id});
      }
    }
    IndexSubset({id}, multiplicity);
    return;
  }
  ProbeBinary(evals, id);
  if (has_kary_) ProbeKAry(evals, id);
}

std::optional<FactId> IncrementalViolationIndex::Apply(
    const RepairOperation& op) {
  if (!op.IsApplicable(*db_)) return std::nullopt;
  if (db_->pool().generation() != partner_generation_) {
    RebuildPartnerIndexes();
  }
  if (op.is_deletion()) {
    const FactId id = op.deletion().id;
    RemoveSubsetsInvolving(id);
    self_inconsistent_.erase(id);
    RemoveFromBuckets(id);
    db_->Delete(id);
    return std::nullopt;
  }
  // The probe runs between the two halves of bucket maintenance: k-ary
  // indexes first (anchored enumeration reads them), binary buckets after
  // (see AddToBinaryBuckets — a self-watcher would defeat watched
  // dispatch). The binary probe never matched the fact's reflexive bucket
  // entry, so results are unchanged by the ordering.
  if (op.is_insertion()) {
    const FactId id = db_->Insert(op.insertion().fact);
    AddToKAryIndexes(id);
    const std::vector<DcEval>& evals = CompileEvals();
    RecomputeSelfInconsistent(evals, id);
    ProbeFact(evals, id);
    AddToBinaryBuckets(id);
    return id;
  }
  const UpdateOp& update = op.update();
  const FactId id = update.id;
  RemoveSubsetsInvolving(id);
  RemoveFromBuckets(id);
  db_->UpdateValue(id, update.attr, update.value);
  AddToKAryIndexes(id);
  const std::vector<DcEval>& evals = CompileEvals();
  RecomputeSelfInconsistent(evals, id);
  ProbeFact(evals, id);
  AddToBinaryBuckets(id);
  return std::nullopt;
}

size_t IncrementalViolationIndex::NumProblematicFacts() const {
  return problematic_count_.size();
}

ViolationSet IncrementalViolationIndex::Snapshot() const {
  // by_key_ keeps live slots distinct, so each is added once, carrying its
  // derivation count.
  ViolationSet out;
  out.Reserve(live_subsets_);
  for (const StoredSubset& stored : subsets_) {
    if (stored.alive) out.Add(stored.facts, stored.multiplicity);
  }
  return out;
}

void IncrementalViolationIndex::CompactSlots() {
  if (live_subsets_ == subsets_.size()) return;
  std::vector<StoredSubset> live;
  live.reserve(live_subsets_);
  for (StoredSubset& stored : subsets_) {
    if (stored.alive) live.push_back(std::move(stored));
  }
  subsets_ = std::move(live);
  // Rebuild the member postings and the canonical-key map against the new
  // slot numbering; dead entries (and dead slots inside surviving posting
  // lists) vanish. Posting order is irrelevant to results — minimality
  // checks are boolean and removals mark whole slots.
  postings_.clear();
  by_key_.clear();
  by_key_.reserve(subsets_.size());
  for (uint32_t slot = 0; slot < static_cast<uint32_t>(subsets_.size());
       ++slot) {
    for (const FactId member : subsets_[slot].facts) {
      postings_[member].push_back(slot);
    }
    by_key_.emplace(SubsetKey(subsets_[slot].facts), slot);
  }
}

IncrementalConstraintStats IncrementalViolationIndex::ConstraintStatsFor(
    size_t c) const {
  DBIM_CHECK(c < constraints_.size());
  IncrementalConstraintStats out;
  out.num_probes = stats_[c].probes;
  out.num_fires = stats_[c].fires;
  const DenialConstraint& dc = constraints_[c];
  if (dc.num_vars() == 2) {
    // Both sides of a single-relation FD-shaped constraint share one
    // bucket group; count that group's keys once, not per side.
    out.watcher_count = bucket_groups_[dc_states_[c].group[0]].num_keys();
    if (dc_states_[c].group[1] != dc_states_[c].group[0]) {
      out.watcher_count += bucket_groups_[dc_states_[c].group[1]].num_keys();
    }
  } else if (dc.num_vars() >= 3) {
    out.watcher_count = kary_indexes_[c]->num_bucket_keys();
  }
  return out;
}

size_t IncrementalViolationIndex::NumWatchedKeys() const {
  // Distinct bucket keys of groups some watch probe reads — each key class
  // a constraint is currently watching for partners.
  std::vector<bool> counted(bucket_groups_.size(), false);
  size_t keys = 0;
  for (const auto& probes : watch_probes_by_rel_) {
    for (const WatchProbe& probe : probes) {
      if (counted[probe.partner_group]) continue;
      counted[probe.partner_group] = true;
      keys += bucket_groups_[probe.partner_group].num_keys();
    }
  }
  return keys;
}

bool IncrementalViolationIndex::CheckWatcherInvariant(
    std::string* error) const {
  // The maintained buckets must be exactly what a from-scratch rebuild
  // over the live database produces: same keys, same per-key membership
  // (order-insensitive), no empty buckets left behind.
  std::vector<std::unordered_map<uint64_t, std::vector<FactId>>> expected(
      bucket_groups_.size());
  db_->ForEachId([&](FactId id) {
    const Database::RowLocation loc = db_->Locate(id);
    const RowRef row{&db_->relation_block(loc.relation), loc.row};
    for (const uint32_t g : groups_by_rel_[loc.relation]) {
      expected[g][bucket_groups_[g].Hash(db_->pool(), row)].push_back(id);
    }
  });
  for (size_t g = 0; g < bucket_groups_.size(); ++g) {
    const auto& actual = bucket_groups_[g].buckets;
    if (actual.size() != expected[g].size()) {
      if (error != nullptr) {
        *error = StrFormat("group %zu holds %zu keys, rebuild implies %zu", g,
                           actual.size(), expected[g].size());
      }
      return false;
    }
    for (const auto& [key, bucket] : actual) {
      if (bucket.empty()) {
        if (error != nullptr) *error = "empty bucket left in group map";
        return false;
      }
      const auto it = expected[g].find(key);
      std::vector<FactId> got(bucket);
      std::sort(got.begin(), got.end());
      if (it == expected[g].end() || it->second != got) {
        if (error != nullptr) {
          *error = StrFormat("group %zu bucket diverges from rebuild", g);
        }
        return false;
      }
    }
  }
  // Watch-table completeness: every (binary constraint, probe side) is
  // covered by exactly one probe carrying its own and its partner's group.
  for (uint32_t c = 0; c < constraints_.size(); ++c) {
    const DcState& state = dc_states_[c];
    if (constraints_[c].num_vars() != 2) continue;
    for (int probe_side = 0; probe_side < 2; ++probe_side) {
      const uint32_t own = static_cast<uint32_t>(state.group[probe_side]);
      const uint32_t partner =
          static_cast<uint32_t>(state.group[1 - probe_side]);
      size_t covered = 0;
      for (const WatchProbe& probe :
           watch_probes_by_rel_[constraints_[c].var_relation(probe_side)]) {
        if (probe.probe_group == own && probe.partner_group == partner &&
            std::find(probe.constraints.begin(), probe.constraints.end(),
                      c) != probe.constraints.end()) {
          ++covered;
        }
      }
      if (covered != 1) {
        if (error != nullptr) {
          *error = StrFormat(
              "constraint %u probe side %d covered by %zu watch probes", c,
              probe_side, covered);
        }
        return false;
      }
    }
  }
  // Partner indexes: each must equal a rebuild from the buckets just
  // verified. A vacuum leaves their class ids stale until the next Apply
  // rebuilds them, so stale ones are not compared.
  if (partner_generation_ != db_->pool().generation()) return true;
  for (size_t i = 0; i < partner_indexes_.size(); ++i) {
    const PartnerIndex& index = partner_indexes_[i];
    auto fail = [&](const char* what) {
      if (error != nullptr) {
        *error = StrFormat("partner index %zu: %s", i, what);
      }
      return false;
    };
    const auto& buckets = bucket_groups_[index.group].buckets;
    size_t split_buckets = 0;  // buckets of two facts or more
    for (const auto& [h, facts] : buckets) split_buckets += facts.size() > 1;
    if ((index.order ? index.runs.size() : index.splits.size()) !=
        (index.order ? buckets.size() : split_buckets)) {
      return fail("bucket keys differ from its group's");
    }
    for (const auto& [h, facts] : buckets) {
      std::vector<FactId> expected(facts);
      std::sort(expected.begin(), expected.end());
      if (!index.order) {
        if (facts.size() < 2) continue;
        const auto it = index.splits.find(h);
        if (it == index.splits.end()) return fail("bucket missing");
        std::map<ValueId, std::vector<FactId>> want;
        std::map<ValueId, std::vector<FactId>> got;
        for (const FactId id : expected) {
          want[BindFact(*db_, id).class_at(index.attrs[0])].push_back(id);
        }
        for (const auto& [c, members] : it->second.classes) {
          if (members.empty() || got.count(c) > 0) {
            return fail("empty or repeated class");
          }
          std::vector<FactId>& sorted = got[c];
          sorted = members;
          std::sort(sorted.begin(), sorted.end());
        }
        if (got != want) return fail("class split differs from rebuild");
        continue;
      }
      const auto it = index.runs.find(h);
      if (it == index.runs.end()) return fail("bucket missing");
      if (!it->second.WellFormed(db_->pool(), stamps_)) {
        return fail("order runs malformed or over their tombstone bound");
      }
      std::vector<FactId> live;
      bool keys_current = true;
      it->second.ForEachEntry([&](const OrderRuns::Entry& e) {
        if (stamps_[e.id] != e.stamp) return;
        live.push_back(e.id);
        if (!db_->Contains(e.id)) {
          keys_current = false;
          return;
        }
        const OrderRuns::Entry now = EntryOf(index, BindFact(*db_, e.id));
        if (now.key[0] != e.key[0] || now.key[1] != e.key[1]) {
          keys_current = false;
        }
      });
      std::sort(live.begin(), live.end());
      if (!keys_current || live != expected) {
        return fail("live order entries differ from rebuild");
      }
    }
  }
  return true;
}

bool IncrementalViolationIndex::CompactSlotsIfWasteful(
    double waste_threshold) {
  if (subsets_.empty() || live_subsets_ == subsets_.size()) return false;
  const double waste = 1.0 - static_cast<double>(live_subsets_) /
                                 static_cast<double>(subsets_.size());
  if (waste <= waste_threshold) return false;
  CompactSlots();
  return true;
}

}  // namespace dbim
