#include "violations/eval_kernel.h"

#include <numeric>

#include "common/check.h"
#include "common/radix_sort.h"

namespace dbim {

template <typename KeyAt, typename Stop>
size_t KeyBuckets::Probe(const KeyAt& key_at, const Stop& stop) const {
  uint64_t h = 0;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    h = (h ^ key_at(i)) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  }
  const size_t mask = table_.size() - 1;
  size_t slot = h & mask;
  while (!stop(table_[slot])) slot = (slot + 1) & mask;
  return slot;
}

template <typename KeyAt>
uint32_t KeyBuckets::Lookup(const KeyAt& key_at) const {
  if (table_.empty()) return kNone;
  return table_[Probe(key_at, [&](uint32_t b) {
    if (b == kNone) return true;
    const ValueId* k = key(b);
    for (size_t i = 0; i < attrs_.size(); ++i) {
      if (k[i] != key_at(i)) return false;
    }
    return true;
  })];
}

uint32_t KeyBuckets::Find(const RowRef& row,
                          const std::vector<AttrIndex>& row_attrs) const {
  return Lookup([&](size_t i) { return row.class_at(row_attrs[i]); });
}

uint32_t KeyBuckets::FindKey(const ValueId* key) const {
  return Lookup([key](size_t i) { return key[i]; });
}

void KeyBuckets::Rehash(size_t keys) {
  size_t slots = 8;
  while (slots < 2 * keys) slots *= 2;
  table_.assign(slots, kNone);
  for (uint32_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b].size == 0) continue;
    table_[Probe(KeyOf(b), [](uint32_t x) { return x == kNone; })] = b;
  }
}

void KeyBuckets::Build(const Database::RelationBlock& block,
                       std::vector<uint32_t>* bucket_of_row) {
  buckets_.clear();
  keys_.clear();
  free_ids_.clear();
  table_.clear();
  num_keys_ = 0;
  const size_t n = block.num_rows();
  if (bucket_of_row != nullptr) bucket_of_row->resize(n);
  if (n == 0) return;
  // (class, row) items in key order, row order within a key: one stable
  // radix sort on the class per key attribute, the last first, each pass
  // keying the items with its own attribute's class.
  std::vector<uint64_t> items(n);
  std::iota(items.begin(), items.end(), uint64_t{0});
  std::vector<uint64_t> scratch;
  for (size_t i = attrs_.size(); i-- > 0;) {
    const ValueId* column = block.class_columns[attrs_[i]].data();
    for (uint64_t& item : items) {
      item = uint64_t{column[static_cast<uint32_t>(item)]} << 32 |
             static_cast<uint32_t>(item);
    }
    StableRadixSort(items, scratch, [](uint64_t item) {
      return static_cast<uint32_t>(item >> 32);
    });
  }
  // One bucket per stretch of equal keys: the first attribute's class is
  // in the items, the others are read from their columns.
  auto row_at = [&](size_t j) { return static_cast<uint32_t>(items[j]); };
  auto same_key = [&](size_t j) {
    if (items[j - 1] >> 32 != items[j] >> 32) return false;
    for (size_t i = 1; i < attrs_.size(); ++i) {
      const std::vector<ValueId>& column = block.class_columns[attrs_[i]];
      if (column[row_at(j - 1)] != column[row_at(j)]) return false;
    }
    return true;
  };
  for (size_t begin = 0, end = 1; begin < n; begin = end++) {
    while (end < n && same_key(end)) ++end;
    const uint32_t b = static_cast<uint32_t>(buckets_.size());
    Bucket& bucket = buckets_.emplace_back();
    bucket.size = static_cast<uint32_t>(end - begin);
    bucket.one = block.row_ids[row_at(begin)];
    if (bucket.size > 1) bucket.many.resize(bucket.size);
    for (size_t j = begin; j < end; ++j) {
      if (bucket.size > 1) bucket.many[j - begin] = block.row_ids[row_at(j)];
      if (bucket_of_row != nullptr) (*bucket_of_row)[row_at(j)] = b;
    }
    for (const AttrIndex a : attrs_) {
      keys_.push_back(block.class_columns[a][row_at(begin)]);
    }
  }
  num_keys_ = buckets_.size();
  Rehash(num_keys_);
}

uint32_t KeyBuckets::Add(const RowRef& row) {
  uint32_t b = Find(row);
  if (b == kNone) {
    if (2 * (num_keys_ + 1) > table_.size()) Rehash(num_keys_ + 1);
    if (free_ids_.empty()) {
      b = static_cast<uint32_t>(buckets_.size());
      buckets_.emplace_back();
      keys_.resize(keys_.size() + attrs_.size());
    } else {
      b = free_ids_.back();
      free_ids_.pop_back();
    }
    for (size_t i = 0; i < attrs_.size(); ++i) {
      keys_[size_t{b} * attrs_.size() + i] = row.class_at(attrs_[i]);
    }
    table_[Probe(KeyOf(b), [](uint32_t x) { return x == kNone; })] = b;
    ++num_keys_;
  }
  Bucket& bucket = buckets_[b];
  const FactId id = row.fact_id();
  if (bucket.size == 0) {
    bucket.one = id;
  } else {
    if (bucket.size == 1) bucket.many.assign(1, bucket.one);
    bucket.many.push_back(id);
  }
  ++bucket.size;
  return b;
}

uint32_t KeyBuckets::Remove(const RowRef& row) {
  const uint32_t b = Find(row);
  DBIM_CHECK(b != kNone);
  Bucket& bucket = buckets_[b];
  const FactId id = row.fact_id();
  if (bucket.size > 1) {
    const auto pos = std::find(bucket.many.begin(), bucket.many.end(), id);
    DBIM_CHECK(pos != bucket.many.end());
    bucket.many.erase(pos);  // preserve order: probes stay deterministic
    if (--bucket.size == 1) {
      bucket.one = bucket.many.front();
      std::vector<FactId>().swap(bucket.many);
    }
    return b;
  }
  DBIM_CHECK(bucket.one == id);
  bucket.size = 0;
  free_ids_.push_back(b);
  --num_keys_;
  // Backward-shift deletion: every later entry of the probe run that may
  // sit at the hole (its home is not cyclically after the hole) moves in.
  const size_t mask = table_.size() - 1;
  size_t hole = Probe(KeyOf(b), [b](uint32_t x) { return x == b; });
  for (size_t next = (hole + 1) & mask; table_[next] != kNone;
       next = (next + 1) & mask) {
    const size_t home =
        Probe(KeyOf(table_[next]), [](uint32_t) { return true; });
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      table_[hole] = table_[next];
      hole = next;
    }
  }
  table_[hole] = kNone;
  return b;
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
