#include "violations/incremental.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "common/string_util.h"
#include "violations/eval_kernel.h"

namespace dbim {
namespace {

// Exponential decay of the hottest-first probe order, applied once per
// probing op via a geometric bump increment (MiniSat's trick: growing the
// increment decays every older bump implicitly, O(1) per op instead of
// O(|Sigma|)).
constexpr double kActivityDecay = 0.95;

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
  DBIM_CHECK_MSG(
      build_options.max_subsets == 0 && build_options.deadline_seconds == 0.0,
      "incremental index needs an uncapped initial detection");

  dc_states_.resize(constraints_.size());
  for (size_t c = 0; c < constraints_.size(); ++c) {
    if (constraints_[c].num_vars() >= 3) has_kary_ = true;
    if (constraints_[c].num_vars() != 2) continue;
    dc_states_[c].keys = ExtractBlockingKeys(constraints_[c]);
    dc_states_[c].blocked = !dc_states_[c].keys.empty();
  }
  BuildDispatchTables();
  db_->ForEachId([&](FactId id) { AddToBuckets(id); });

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
  unblocked_by_rel_.assign(num_rels, {});
  kary_by_rel_.assign(num_rels, {});
  selfinc_by_rel_.assign(num_rels, {});
  bucket_groups_.clear();
  groups_by_rel_.assign(num_rels, {});
  watch_probes_by_rel_.assign(num_rels, {});
  probe_sig_.assign(constraints_.size(), {-1, -1});
  activity_.assign(constraints_.size(), {});
  kary_indexes_.resize(constraints_.size());

  // Constraints are visited in ascending index and a constraint's entries
  // for one relation are pushed consecutively, so a back() check suffices
  // to keep every per-relation list sorted and duplicate-free.
  auto push_unique = [](std::vector<uint32_t>& list, uint32_t c) {
    if (list.empty() || list.back() != c) list.push_back(c);
  };

  // Shared bucket group for (rel, attrs): any two blocked sides with the
  // same shape bucket exactly the same facts under exactly the same keys.
  auto group_for = [&](RelationId rel, const std::vector<AttrIndex>& attrs) {
    for (size_t g = 0; g < bucket_groups_.size(); ++g) {
      if (bucket_groups_[g].relation == rel && bucket_groups_[g].attrs == attrs)
        return static_cast<int>(g);
    }
    const int g = static_cast<int>(bucket_groups_.size());
    bucket_groups_.push_back(BucketGroup{rel, attrs, {}});
    groups_by_rel_[rel].push_back(static_cast<uint32_t>(g));
    return g;
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
      for (uint32_t side = 0; side < 2; ++side) {
        const RelationId rel = dc.var_relation(side);
        push_unique(binary_by_rel_[rel], c);
        if (state.blocked) {
          const std::vector<AttrIndex>& attrs =
              side == 0 ? state.keys.var0 : state.keys.var1;
          state.group[side] = group_for(rel, attrs);
        } else {
          push_unique(unblocked_by_rel_[rel], c);
        }
      }
      if (state.blocked) {
        for (uint32_t side = 0; side < 2; ++side) {
          const RelationId rel = dc.var_relation(side);
          const std::vector<AttrIndex>& attrs =
              side == 0 ? state.keys.var0 : state.keys.var1;
          int sig = -1;
          for (size_t s = 0; s < signatures_.size(); ++s) {
            if (signatures_[s].relation == rel &&
                signatures_[s].attrs == attrs) {
              sig = static_cast<int>(s);
              break;
            }
          }
          if (sig < 0) {
            sig = static_cast<int>(signatures_.size());
            signatures_.push_back(KeySignature{rel, attrs});
          }
          probe_sig_[c][side] = sig;
        }
        // A watch probe per distinct (probe signature, partner group) on
        // the probing relation: ops hash each signature once and a
        // non-empty partner bucket at that key marks every constraint in
        // the probe a candidate. The partner bucket doubles as the watcher
        // list — no registration state, presence is the watch.
        for (int probe_side = 0; probe_side < 2; ++probe_side) {
          const RelationId rel = dc.var_relation(probe_side);
          const uint32_t sig =
              static_cast<uint32_t>(probe_sig_[c][probe_side]);
          const uint32_t group =
              static_cast<uint32_t>(state.group[1 - probe_side]);
          auto& probes = watch_probes_by_rel_[rel];
          auto it = std::find_if(
              probes.begin(), probes.end(), [&](const WatchProbe& p) {
                return p.sig == sig && p.group == group;
              });
          if (it == probes.end()) {
            probes.push_back(WatchProbe{sig, group, {c}});
          } else if (it->constraints.back() != c) {
            it->constraints.push_back(c);
          }
        }
      }
    } else if (dc.num_vars() >= 3) {
      for (const RelationId r : dc.var_relations()) {
        push_unique(kary_by_rel_[r], c);
      }
      auto index = std::make_unique<KAryBlockingIndex>(dc);
      if (index->has_keys()) kary_indexes_[c] = std::move(index);
    }
  }

  // Order each relation's watch probes by signature so the per-op probe
  // computes each distinct signature hash exactly once.
  for (auto& probes : watch_probes_by_rel_) {
    std::stable_sort(probes.begin(), probes.end(),
                     [](const WatchProbe& a, const WatchProbe& b) {
                       return a.sig < b.sig;
                     });
  }
}

void IncrementalViolationIndex::DecayActivityTick() {
  activity_increment_ *= 1.0 / kActivityDecay;
  if (activity_increment_ > 1e100) {
    for (ActivityState& a : activity_) a.activity /= activity_increment_;
    activity_increment_ = 1.0;
  }
}

void IncrementalViolationIndex::BumpActivity(size_t c, uint64_t fires) {
  activity_[c].fires += fires;
  if (fires > 0) {
    activity_[c].activity +=
        activity_increment_ * static_cast<double>(fires);
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

uint64_t IncrementalViolationIndex::SubsetKey(
    const std::vector<FactId>& subset) const {
  uint64_t h = 1469598103934665603ull;
  for (const FactId id : subset) {
    h ^= id;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t IncrementalViolationIndex::KeyHashOverAttrs(
    const std::vector<AttrIndex>& attrs, FactId id) const {
  // Semantic value hashes (equal values hash alike, and the hash survives a
  // pool re-intern), mixed like the batch detector's key hash.
  const ValuePool& pool = db_->pool();
  uint64_t h = 1469598103934665603ull;
  for (const AttrIndex a : attrs) {
    h ^= static_cast<uint64_t>(pool.hash(db_->value_id(id, a)));
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t IncrementalViolationIndex::SideKeyHash(const DcState& state,
                                                int side, FactId id) const {
  return KeyHashOverAttrs(side == 0 ? state.keys.var0 : state.keys.var1, id);
}

void IncrementalViolationIndex::AddToBinaryBuckets(FactId id) {
  const RelationId rel = db_->Locate(id).relation;
  for (const uint32_t g : groups_by_rel_[rel]) {
    BucketGroup& group = bucket_groups_[g];
    const uint64_t key = KeyHashOverAttrs(group.attrs, id);
    group.bucket[key].push_back(id);
  }
}

void IncrementalViolationIndex::AddToKAryIndexes(FactId id) {
  if (!has_kary_) return;
  for (const uint32_t c : kary_by_rel_[db_->Locate(id).relation]) {
    if (kary_indexes_[c]) kary_indexes_[c]->Add(*db_, id);
  }
}

void IncrementalViolationIndex::AddToBuckets(FactId id) {
  AddToBinaryBuckets(id);
  AddToKAryIndexes(id);
}

void IncrementalViolationIndex::RemoveFromBuckets(FactId id) {
  // Must run before the fact's values change: the bucket key is recomputed
  // from the current cells.
  const RelationId rel = db_->Locate(id).relation;
  for (const uint32_t g : groups_by_rel_[rel]) {
    BucketGroup& group = bucket_groups_[g];
    const uint64_t key = KeyHashOverAttrs(group.attrs, id);
    const auto it = group.bucket.find(key);
    DBIM_CHECK(it != group.bucket.end());
    auto& bucket = it->second;
    const auto pos = std::find(bucket.begin(), bucket.end(), id);
    DBIM_CHECK(pos != bucket.end());
    bucket.erase(pos);  // preserve order: probes stay deterministic
    if (bucket.empty()) group.bucket.erase(it);
  }
  if (has_kary_) {
    for (const uint32_t c : kary_by_rel_[rel]) {
      if (kary_indexes_[c]) kary_indexes_[c]->Remove(*db_, id);
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

void IncrementalViolationIndex::ProbeBinary(const std::vector<DcEval>& evals,
                                            FactId id) {
  const Database::RowLocation loc = db_->Locate(id);
  const RowRef self{&db_->relation_block(loc.relation), loc.row};

  // Collects `id`'s partners under constraint `c` in the canonical
  // discovery order (side-0 probe then side-1, bucket order within), with
  // the per-constraint pair dedup no matter how many orientations match.
  // Pure read — commits happen after, so the *probing* order is free while
  // the commit order stays canonical.
  auto collect = [&](uint32_t c, std::vector<FactId>* partners) {
    const DenialConstraint& dc = constraints_[c];
    const DcState& state = dc_states_[c];
    const DcEval& eval = evals[c];
    std::unordered_set<FactId> hit;
    uint64_t probes = 0;
    auto try_partner = [&](FactId other, bool id_is_var0) {
      if (other == id) return;  // reflexive: that is self-inconsistency
      ++probes;
      if (hit.count(other) > 0) return;
      if (self_inconsistent_.count(other) > 0) return;
      const RowRef partner = BindFact(*db_, other);
      RowRef assignment[2];
      assignment[id_is_var0 ? 0 : 1] = self;
      assignment[id_is_var0 ? 1 : 0] = partner;
      if (!eval.BodyHolds(assignment)) return;
      hit.insert(other);
      partners->push_back(other);
    };
    // The probe hashes its own side's key attributes; equal key values mean
    // equal semantic hashes, so the partner side's bucket is the candidate
    // set. Hash collisions are rejected by the body check (the body
    // contains the key equalities), on interned class ids only.
    if (loc.relation == dc.var_relation(0)) {
      if (state.blocked) {
        const auto& partner = bucket_groups_[state.group[1]].bucket;
        const auto it = partner.find(SideKeyHash(state, 0, id));
        if (it != partner.end()) {
          for (const FactId other : it->second) try_partner(other, true);
        }
      } else {
        for (const FactId other :
             db_->relation_block(dc.var_relation(1)).row_ids) {
          try_partner(other, true);
        }
      }
    }
    if (loc.relation == dc.var_relation(1)) {
      if (state.blocked) {
        const auto& partner = bucket_groups_[state.group[0]].bucket;
        const auto it = partner.find(SideKeyHash(state, 1, id));
        if (it != partner.end()) {
          for (const FactId other : it->second) try_partner(other, false);
        }
      } else {
        for (const FactId other :
             db_->relation_block(dc.var_relation(0)).row_ids) {
          try_partner(other, false);
        }
      }
    }
    activity_[c].probes += probes;
  };

  // Watched dispatch: one signature hash per distinct key shape over the
  // relation, then one partner-bucket presence check per watch probe. A
  // non-empty bucket at the key means the probe's constraints have a live
  // partner there; everything else is skipped. Unblocked constraints scan
  // and are always candidates. A blocked constraint the watch probes skip
  // would have found only empty buckets — identical results, less work.
  std::vector<uint32_t>& candidates = probe_candidates_;
  candidates.assign(unblocked_by_rel_[loc.relation].begin(),
                    unblocked_by_rel_[loc.relation].end());
  uint64_t h = 0;
  uint32_t hashed_sig = UINT32_MAX;
  for (const WatchProbe& probe : watch_probes_by_rel_[loc.relation]) {
    if (probe.sig != hashed_sig) {
      h = KeyHashOverAttrs(signatures_[probe.sig].attrs, id);
      hashed_sig = probe.sig;
    }
    const auto& bucket = bucket_groups_[probe.group].bucket;
    if (bucket.find(h) == bucket.end()) continue;
    candidates.insert(candidates.end(), probe.constraints.begin(),
                      probe.constraints.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  dispatch_stats_.constraints_probed += candidates.size();
  dispatch_stats_.constraints_skipped +=
      binary_by_rel_[loc.relation].size() - candidates.size();

  // Probe hottest-first (decayed activity, ties by ascending index), but
  // commit in ascending constraint order: slot allocation, and with it
  // Snapshot order, does not depend on the activity history.
  std::vector<uint32_t>& probe_order = probe_order_;
  probe_order.assign(candidates.begin(), candidates.end());
  std::stable_sort(probe_order.begin(), probe_order.end(),
                   [&](uint32_t a, uint32_t b) {
                     return activity_[a].activity > activity_[b].activity;
                   });
  std::vector<std::pair<uint32_t, std::vector<FactId>>>& found = probe_found_;
  found.clear();
  for (const uint32_t c : probe_order) {
    std::vector<FactId> partners;
    collect(c, &partners);
    BumpActivity(c, partners.size());
    if (!partners.empty()) found.emplace_back(c, std::move(partners));
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [c, partners] : found) {
    for (const FactId other : partners) IndexSubset({id, other}, 1);
  }
}

void IncrementalViolationIndex::ProbeKAry(const std::vector<DcEval>& evals,
                                          FactId id) {
  // Anchored re-enumeration: support -> derivation count, aggregated
  // across constraints and assignments. Every new witness contains `id`,
  // and nothing already stored does (its subsets were just removed, or the
  // id is fresh), so existing witnesses can only *suppress* candidates,
  // never the other way around.
  // Only constraints with a variable over the changed fact's relation can
  // anchor it; candidates aggregate into an ordered map, so the pruned
  // (keyed) and unpruned (keyless) enumerations, whose discovery orders
  // differ, feed candidates downstream in one canonical order.
  std::map<std::vector<FactId>, uint32_t> counts;
  for (const uint32_t c : kary_by_rel_[db_->Locate(id).relation]) {
    uint64_t emissions = 0;
    auto emit = [&](std::vector<FactId> support) {
      ++emissions;
      ++counts[std::move(support)];
    };
    if (kary_indexes_[c]) {
      EnumerateKAryAnchoredPruned(evals[c], *db_, id, *kary_indexes_[c],
                                  emit);
    } else {
      EnumerateKAryAnchored(evals[c], *db_, id, emit);
    }
    activity_[c].probes += emissions;
    BumpActivity(c, emissions);
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
  DecayActivityTick();
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
  ViolationSet out;
  for (const StoredSubset& stored : subsets_) {
    if (!stored.alive) continue;
    // Add dedups the subset list but counts every call, so adding the
    // subset `multiplicity` times reproduces num_minimal_violations().
    for (uint32_t m = 0; m < stored.multiplicity; ++m) out.Add(stored.facts);
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
  const ActivityState& a = activity_[c];
  out.num_probes = a.probes;
  out.num_fires = a.fires;
  // Normalize by the geometric increment so reported activities are in
  // current-op units and comparable across constraints.
  out.activity = a.activity / activity_increment_;
  const DenialConstraint& dc = constraints_[c];
  if (dc.num_vars() == 2 && dc_states_[c].blocked) {
    // Both sides of a single-relation FD-shaped constraint share one
    // bucket group; count that group's keys once, not per side.
    out.watcher_count = bucket_groups_[dc_states_[c].group[0]].bucket.size();
    if (dc_states_[c].group[1] != dc_states_[c].group[0]) {
      out.watcher_count +=
          bucket_groups_[dc_states_[c].group[1]].bucket.size();
    }
  } else if (dc.num_vars() >= 3 && kary_indexes_[c] != nullptr) {
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
      if (counted[probe.group]) continue;
      counted[probe.group] = true;
      keys += bucket_groups_[probe.group].bucket.size();
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
    const RelationId rel = db_->Locate(id).relation;
    for (const uint32_t g : groups_by_rel_[rel]) {
      expected[g][KeyHashOverAttrs(bucket_groups_[g].attrs, id)].push_back(id);
    }
  });
  for (size_t g = 0; g < bucket_groups_.size(); ++g) {
    const auto& actual = bucket_groups_[g].bucket;
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
  // Watch-table completeness: every blocked (constraint, probe side) is
  // covered by exactly one probe carrying its signature and partner group.
  for (uint32_t c = 0; c < constraints_.size(); ++c) {
    const DcState& state = dc_states_[c];
    if (constraints_[c].num_vars() != 2 || !state.blocked) continue;
    for (int probe_side = 0; probe_side < 2; ++probe_side) {
      const uint32_t sig = static_cast<uint32_t>(probe_sig_[c][probe_side]);
      const uint32_t group =
          static_cast<uint32_t>(state.group[1 - probe_side]);
      size_t covered = 0;
      for (const WatchProbe& probe :
           watch_probes_by_rel_[constraints_[c].var_relation(probe_side)]) {
        if (probe.sig == sig && probe.group == group &&
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
