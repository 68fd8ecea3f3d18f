#include "violations/eval_kernel.h"

#include "common/check.h"

namespace dbim {

KAryBlockingIndex::KAryBlockingIndex(const DenialConstraint& dc)
    : k_(dc.num_vars()), pair_keys_(k_ * k_), group_of_(k_ * k_, -1) {
  for (uint32_t v = 0; v < k_; ++v) {
    for (uint32_t u = 0; u < k_; ++u) {
      if (u == v) continue;
      PairBlockingKeys keys = ExtractPairBlockingKeys(dc, u, v);
      if (keys.empty()) continue;
      const RelationId rel = dc.var_relation(v);
      int group = -1;
      for (size_t g = 0; g < groups_.size(); ++g) {
        if (groups_[g].relation == rel && groups_[g].attrs == keys.v_attrs) {
          group = static_cast<int>(g);
          break;
        }
      }
      if (group < 0) {
        group = static_cast<int>(groups_.size());
        groups_.push_back(KeyBuckets{rel, keys.v_attrs, {}});
      }
      group_of_[v * k_ + u] = group;
      pair_keys_[v * k_ + u] = std::move(keys);
    }
  }
}

const std::vector<FactId>* KeyBuckets::Remove(uint64_t hash, FactId id) {
  const auto it = buckets.find(hash);
  DBIM_CHECK(it != buckets.end());
  std::vector<FactId>& bucket = it->second;
  const auto pos = std::find(bucket.begin(), bucket.end(), id);
  DBIM_CHECK(pos != bucket.end());
  bucket.erase(pos);  // preserve order: probes stay deterministic
  if (!bucket.empty()) return &bucket;
  buckets.erase(it);
  return nullptr;
}

void KAryBlockingIndex::Add(const Database& db, FactId id) {
  const Database::RowLocation loc = db.Locate(id);
  const RowRef row{&db.relation_block(loc.relation), loc.row};
  for (KeyBuckets& group : groups_) {
    if (group.relation == loc.relation) group.Add(db.pool(), row);
  }
}

void KAryBlockingIndex::Remove(const Database& db, FactId id) {
  const Database::RowLocation loc = db.Locate(id);
  const RowRef row{&db.relation_block(loc.relation), loc.row};
  for (KeyBuckets& group : groups_) {
    if (group.relation == loc.relation) group.Remove(db.pool(), row);
  }
}

size_t KAryBlockingIndex::num_bucket_keys() const {
  size_t n = 0;
  for (const KeyBuckets& group : groups_) n += group.num_keys();
  return n;
}

bool MakesSelfInconsistentInterned(const DcEval& eval, const Database& db,
                                   FactId id) {
  const DenialConstraint& dc = eval.dc();
  const Database::RowLocation loc = db.Locate(id);
  for (const RelationId r : dc.var_relations()) {
    if (r != loc.relation) return false;
  }
  const RowRef self{&db.relation_block(loc.relation), loc.row};
  std::vector<RowRef> assignment(dc.num_vars(), self);
  return eval.BodyHolds(assignment.data());
}

uint32_t CountDerivations(const DcEval& eval, const Database& db,
                          const std::vector<FactId>& subset) {
  const DenialConstraint& dc = eval.dc();
  const size_t k = dc.num_vars();
  const size_t m = subset.size();
  if (m > k) return 0;

  // Pre-bind every member and check which variable positions its relation
  // admits; bail early when some member fits nowhere.
  std::vector<RowRef> members(m);
  std::vector<RelationId> member_rel(m);
  for (size_t j = 0; j < m; ++j) {
    const Database::RowLocation loc = db.Locate(subset[j]);
    members[j] = RowRef{&db.relation_block(loc.relation), loc.row};
    member_rel[j] = loc.relation;
  }

  // Odometer over the m^k mappings var -> member; count the surjective,
  // relation-compatible, body-satisfying ones. k and m are tiny (the
  // constraint's arity), so this is constant work per subset.
  std::vector<size_t> pick(k, 0);
  std::vector<RowRef> assignment(k);
  uint32_t count = 0;
  while (true) {
    bool compatible = true;
    uint32_t used_mask = 0;
    for (size_t v = 0; v < k && compatible; ++v) {
      if (dc.var_relation(static_cast<uint32_t>(v)) != member_rel[pick[v]]) {
        compatible = false;
        break;
      }
      assignment[v] = members[pick[v]];
      used_mask |= 1u << pick[v];
    }
    if (compatible && used_mask == (1u << m) - 1 &&
        eval.BodyHolds(assignment.data())) {
      ++count;
    }
    size_t v = 0;
    while (v < k && ++pick[v] == m) {
      pick[v] = 0;
      ++v;
    }
    if (v == k) break;
  }
  return count;
}

}  // namespace dbim
