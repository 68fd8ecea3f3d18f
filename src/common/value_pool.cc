#include "common/value_pool.h"

#include <atomic>
#include <functional>
#include <string>
#include <utility>

#include "common/check.h"

namespace dbim {

namespace {

std::atomic<uint64_t> g_pool_generation{0};

size_t RoundUpPow2(size_t n) {
  if (n <= 1) return 1;
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t ValuePool::RepHashOf(const Value& v, size_t sem_hash) {
  // Derived from the semantic hash the caller already computed for stripe
  // selection, salted by kind: rep-equal values share kind and semantic
  // hash, so this is a valid representation hash, and same-class values
  // of different kinds (2 vs 2.0) split into distinct buckets. Collisions
  // are verified with RepEqual like any hash lookup, so no payload-level
  // second hash is ever needed — interning costs exactly one Value::Hash.
  return (static_cast<size_t>(v.kind()) + 1) * 0x9e3779b97f4a7c15ull ^
         sem_hash;
}

bool ValuePool::RepEqual(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kInt:
      return a.as_int() == b.as_int();
    case Value::Kind::kDouble:
      return a.as_double() == b.as_double();
    case Value::Kind::kString:
      return a.as_string() == b.as_string();
  }
  return false;
}

ValuePool::ValuePool(size_t num_stripes)
    : generation_(
          g_pool_generation.fetch_add(1, std::memory_order_relaxed) + 1),
      stripe_mask_(RoundUpPow2(num_stripes) - 1),
      stripes_(new Stripe[stripe_mask_ + 1]) {
  const ValueId null_id = InternImpl(Value());
  DBIM_CHECK(null_id == kNullValueId);
}

ValueId ValuePool::Intern(const Value& v) { return InternImpl(v); }

ValueId ValuePool::Intern(Value&& v) { return InternImpl(std::move(v)); }

ValueId ValuePool::InternImpl(Value v) {
  const size_t sem_hash = v.Hash();
  const size_t rep_hash = RepHashOf(v, sem_hash);
  Stripe& stripe = StripeFor(sem_hash);
  // The stripe mutex serializes everything about this value: duplicate
  // detection (another thread interning a rep-equal value maps to the same
  // stripe — rep-equal values share the semantic hash) and class-
  // representative election (semantically equal values likewise). Only
  // dense id allocation and the slab append need the global append mutex,
  // taken strictly after the stripe mutex.
  std::lock_guard<std::mutex> stripe_lock(stripe.mutex);
  std::vector<ValueId>& rep_bucket = stripe.index[rep_hash];
  for (const ValueId id : rep_bucket) {
    if (RepEqual(values_.at(id), v)) return id;
  }
  // First representation of a semantic class becomes its representative.
  std::vector<ValueId>& class_bucket = stripe.class_index[sem_hash];
  ValueId class_id = 0;
  bool found_class = false;
  for (const ValueId rep : class_bucket) {
    if (values_.at(rep) == v) {
      class_id = rep;
      found_class = true;
      break;
    }
  }
  ValueId id;
  {
    std::lock_guard<std::mutex> append_lock(append_mutex_);
    const uint32_t count = size_.load(std::memory_order_relaxed);
    DBIM_CHECK_MSG(count < UINT32_MAX, "value pool exhausted");
    id = static_cast<ValueId>(count);
    if (!found_class) class_id = id;
    values_.Append(count, std::move(v));
    hashes_.Append(count, sem_hash);
    classes_.Append(count, class_id);
    // Publish: the entry is complete in every array before the id becomes
    // visible.
    size_.store(id + 1, std::memory_order_release);
  }
  // Index the published id while still holding the stripe mutex, so any
  // later intern/find of this value observes a fully readable entry.
  if (!found_class) class_bucket.push_back(id);
  rep_bucket.push_back(id);
  return id;
}

size_t ValuePool::num_slabs() const {
  std::lock_guard<std::mutex> lock(append_mutex_);
  return values_.num_slabs() + hashes_.num_slabs() + classes_.num_slabs();
}

void ValuePool::ReclaimRetiredSlabs() {
  std::lock_guard<std::mutex> lock(append_mutex_);
  values_.ReclaimRetired();
  hashes_.ReclaimRetired();
  classes_.ReclaimRetired();
}

std::optional<ValueId> ValuePool::Find(const Value& v) const {
  const size_t sem_hash = v.Hash();
  Stripe& stripe = StripeFor(sem_hash);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.index.find(RepHashOf(v, sem_hash));
  if (it == stripe.index.end()) return std::nullopt;
  for (const ValueId id : it->second) {
    if (RepEqual(values_.at(id), v)) return id;
  }
  return std::nullopt;
}

std::optional<ValueId> ValuePool::FindClass(const Value& v) const {
  const size_t sem_hash = v.Hash();
  Stripe& stripe = StripeFor(sem_hash);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.class_index.find(sem_hash);
  if (it == stripe.class_index.end()) return std::nullopt;
  for (const ValueId rep : it->second) {
    if (values_.at(rep) == v) return rep;
  }
  return std::nullopt;
}

}  // namespace dbim
