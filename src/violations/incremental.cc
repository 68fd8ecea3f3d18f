#include "violations/incremental.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
#include "violations/eval_kernel.h"

namespace dbim {

IncrementalViolationIndex::IncrementalViolationIndex(
    std::shared_ptr<const Schema> schema,
    std::vector<DenialConstraint> constraints, Database db,
    DetectorOptions build_options)
    : schema_(std::move(schema)),
      constraints_(std::move(constraints)),
      owned_(std::move(db)),
      db_(&*owned_),
      witness_(constraints_, schema_->num_relations()) {
  BuildInitialState(build_options);
}

IncrementalViolationIndex::IncrementalViolationIndex(
    std::shared_ptr<const Schema> schema,
    std::vector<DenialConstraint> constraints, Database* db,
    DetectorOptions build_options)
    : schema_(std::move(schema)),
      constraints_(std::move(constraints)),
      db_(db),
      witness_(constraints_, schema_->num_relations()) {
  DBIM_CHECK(db_ != nullptr);
  BuildInitialState(build_options);
}

void IncrementalViolationIndex::BuildInitialState(
    const DetectorOptions& build_options) {
  for (const DenialConstraint& dc : constraints_) {
    if (dc.num_vars() >= 3) has_kary_ = true;
  }
  BuildDispatchTables();
  // One witness index build, probed by the initial detection and then
  // maintained by Apply; the store that detection fills is the one Apply
  // maintains.
  witness_.Build(*db_, build_options.num_threads);
  if (has_kary_) db_->ForEachId([&](FactId id) { AddToKAryIndexes(id); });
  store_ = ViolationDetector(schema_, constraints_, build_options)
               .FindWitnesses(*db_, witness_);
}

void IncrementalViolationIndex::BuildDispatchTables() {
  const size_t num_rels = schema_->num_relations();
  binary_by_rel_.assign(num_rels, {});
  kary_by_rel_.assign(num_rels, {});
  selfinc_by_rel_.assign(num_rels, {});
  watch_probes_by_rel_.assign(num_rels, {});
  stats_.assign(constraints_.size(), {});
  kary_indexes_.resize(constraints_.size());

  // Constraints are visited in ascending index and a constraint's entries
  // for one relation are pushed consecutively, so a back() check suffices
  // to keep every per-relation list sorted and duplicate-free.
  auto push_unique = [](std::vector<uint32_t>& list, uint32_t c) {
    if (list.empty() || list.back() != c) list.push_back(c);
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
      const WitnessIndex::DcPlan& state = witness_.plan(c);
      for (uint32_t side = 0; side < 2; ++side) {
        push_unique(binary_by_rel_[dc.var_relation(side)], c);
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

void IncrementalViolationIndex::AddToKAryIndexes(FactId id) {
  if (!has_kary_) return;
  for (const uint32_t c : kary_by_rel_[db_->Locate(id).relation]) {
    kary_indexes_[c]->Add(*db_, id);
  }
}

void IncrementalViolationIndex::RemoveFromIndexes(FactId id) {
  witness_.Remove(*db_, id);
  if (has_kary_) {
    for (const uint32_t c : kary_by_rel_[db_->Locate(id).relation]) {
      kary_indexes_[c]->Remove(*db_, id);
    }
  }
}

void IncrementalViolationIndex::ProbeBinary(const std::vector<DcEval>& evals,
                                            FactId id) {
  const Database::RowLocation loc = db_->Locate(id);
  const RowRef self{&db_->relation_block(loc.relation), loc.row};

  // Commits `id`'s pairs under constraint `c`: side 0 (the fact as t),
  // then, unless the body is symmetric, side 1 (the fact as t'), each in
  // partner-index order, with the per-constraint pair dedup no matter how
  // many orientations match. Committing a pair adds a slot to the witness
  // store and never touches the buckets, the partner indexes or the
  // store's self-inconsistent facts this probe reads.
  auto probe_constraint = [&](uint32_t c) {
    const DenialConstraint& dc = constraints_[c];
    const WitnessIndex::DcPlan& state = witness_.plan(c);
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
        if (store_.IsSelfInconsistent(other)) return;
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
        store_.Admit({std::min(id, other), std::max(id, other)});
      };
      // Hash collisions are rejected by the body check (the body contains
      // the key equalities), on interned class ids only.
      witness_.ForEachPartner(*db_, c, side, self, try_partner);
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
      h = witness_.group(probe.probe_group).Hash(db_->pool(), self);
      hashed_group = probe.probe_group;
    }
    if (witness_.group(probe.partner_group).Find(h) == nullptr) continue;
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
  // Anchored re-enumeration: every support through `id`, one per
  // derivation, across the constraints with a variable over its relation.
  // Every new witness contains `id`, and nothing already stored does (its
  // subsets were just removed, or the id is fresh), so existing witnesses
  // can only *suppress* candidates, never the other way around. The store
  // aggregates the supports and admits them in one canonical order,
  // whatever the enumeration's discovery order.
  std::vector<std::vector<FactId>> supports;
  for (const uint32_t c : kary_by_rel_[db_->Locate(id).relation]) {
    const size_t before = supports.size();
    EnumerateKAryAnchored(evals[c], *db_, id, *kary_indexes_[c],
                          [&](std::vector<FactId> support) {
                            supports.push_back(std::move(support));
                          });
    stats_[c].probes += supports.size() - before;
    stats_[c].fires += supports.size() - before;
  }
  store_.AdmitKAry(std::move(supports));
}

void IncrementalViolationIndex::ProbeFact(const std::vector<DcEval>& evals,
                                          FactId id) {
  ++dispatch_stats_.num_ops;
  const RelationId relation = db_->Locate(id).relation;
  const std::vector<uint32_t>& selfinc = selfinc_by_rel_[relation];
  if (std::any_of(selfinc.begin(), selfinc.end(), [&](uint32_t c) {
        return MakesSelfInconsistentInterned(evals[c], *db_, id);
      })) {
    // The only minimal subset through a contradictory fact is its
    // singleton: one derivation for the pass-1 Add, plus one per k-ary
    // constraint whose body holds with every variable on the fact.
    uint32_t multiplicity = 1;
    if (has_kary_) {
      for (const uint32_t c : kary_by_rel_[relation]) {
        multiplicity += CountDerivations(evals[c], *db_, {id});
      }
    }
    store_.Admit({id}, multiplicity);
    return;
  }
  ProbeBinary(evals, id);
  if (has_kary_) ProbeKAry(evals, id);
}

std::optional<FactId> IncrementalViolationIndex::Apply(
    const RepairOperation& op) {
  if (!op.IsApplicable(*db_)) return std::nullopt;
  if (witness_.stale(db_->pool())) witness_.RebuildPartnerIndexes(*db_);
  if (op.is_deletion()) {
    const FactId id = op.deletion().id;
    store_.RemoveInvolving(id);
    RemoveFromIndexes(id);
    db_->Delete(id);
    return std::nullopt;
  }
  // The probe runs between the two halves of bucket maintenance: k-ary
  // indexes first (anchored enumeration reads them), binary buckets after
  // (see AddToKAryIndexes — a self-watcher would defeat watched
  // dispatch). The binary probe never matched the fact's reflexive bucket
  // entry, so results are unchanged by the ordering.
  if (op.is_insertion()) {
    const FactId id = db_->Insert(op.insertion().fact);
    AddToKAryIndexes(id);
    ProbeFact(CompileEvals(), id);
    witness_.Add(*db_, id);
    return id;
  }
  const UpdateOp& update = op.update();
  const FactId id = update.id;
  store_.RemoveInvolving(id);
  RemoveFromIndexes(id);
  db_->UpdateValue(id, update.attr, update.value);
  AddToKAryIndexes(id);
  ProbeFact(CompileEvals(), id);
  witness_.Add(*db_, id);
  return std::nullopt;
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
    const WitnessIndex::DcPlan& plan = witness_.plan(c);
    out.watcher_count = witness_.group(plan.group[0]).num_keys();
    if (plan.group[1] != plan.group[0]) {
      out.watcher_count += witness_.group(plan.group[1]).num_keys();
    }
  } else if (dc.num_vars() >= 3) {
    out.watcher_count = kary_indexes_[c]->num_bucket_keys();
  }
  return out;
}

size_t IncrementalViolationIndex::NumWatchedKeys() const {
  // Distinct bucket keys of groups some watch probe reads — each key class
  // a constraint is currently watching for partners.
  std::vector<bool> counted(witness_.num_groups(), false);
  size_t keys = 0;
  for (const auto& probes : watch_probes_by_rel_) {
    for (const WatchProbe& probe : probes) {
      if (counted[probe.partner_group]) continue;
      counted[probe.partner_group] = true;
      keys += witness_.group(probe.partner_group).num_keys();
    }
  }
  return keys;
}

bool IncrementalViolationIndex::CheckWatcherInvariant(
    std::string* error) const {
  if (!witness_.CheckInvariant(*db_, error)) return false;
  // Watch-table completeness: every (binary constraint, probe side) is
  // covered by exactly one probe carrying its own and its partner's group.
  for (uint32_t c = 0; c < constraints_.size(); ++c) {
    const WitnessIndex::DcPlan& state = witness_.plan(c);
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
  return true;
}

}  // namespace dbim
