#ifndef DBIM_COMMON_VALUE_POOL_H_
#define DBIM_COMMON_VALUE_POOL_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/value.h"

// Bounds checking on the pool's three hot readers: a branch on an atomic
// size load per call. Kept in normal builds (the abort beats silent
// garbage); see DBIM_CHECK's rationale in common/check.h. The acquire
// order pairs with Intern's release store, so a size that admits `id`
// guarantees the subsequent slab load is at least as new — the guard
// can't pass against a stale, smaller slab.
#define DBIM_POOL_BOUNDS_CHECK(id)                                         \
  do {                                                                     \
    if (!((id) < size_.load(std::memory_order_acquire))) {                 \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

namespace dbim {

/// Dense identifier of an interned value within a ValuePool.
using ValueId = uint32_t;

/// Id of the null value; every pool interns null at construction so columns
/// can be default-initialized to a valid id.
inline constexpr ValueId kNullValueId = 0;

/// A dictionary that interns `Value`s into dense `ValueId`s.
///
/// Interning is by *exact representation* (kind + payload), so a cell read
/// back through `value(id)` round-trips bit-for-bit — Value(2) and
/// Value(2.0) get distinct ids and keep their kinds. On top of that the
/// pool assigns every id a *semantic class*: ids whose canonical values
/// compare equal under the paper's total order on `Val` (where 2 == 2.0)
/// share one class id. `class_of(a) == class_of(b)` iff
/// `value(a) == value(b)`, which makes value equality on the violation
/// detector's hot probe path a single integer compare, and lets blocking
/// hash `uint32_t` class ids instead of variant values. Ordered
/// comparisons (`<`, `<=`, ...) go through `value(id)`, an array index.
///
/// The pool is append-only: ids and `const Value&` references stay valid
/// for the pool's lifetime, so databases can be copied/restricted while
/// sharing one pool. (Overwritten values are not reclaimed; sustained
/// value churn grows the dictionary — a MeasureSession vacuum rebuilds the
/// pool wholesale instead.)
///
/// Thread safety: `Intern`, `Find` and `FindClass` are *lock-striped* —
/// the intern/find indices are sharded by semantic hash into
/// `num_stripes` partitions, each with its own mutex, so concurrent
/// interns of unrelated values proceed in parallel and only contend on a
/// short global append section (dense id allocation + slab write).
/// Rep-equal and semantically-equal values always hash to the same stripe,
/// so duplicate detection and class-representative election stay serialized
/// per value: sequential interning produces ids and class representatives
/// identical to a single-stripe pool, and any interleaving yields a
/// semantically identical class partition. `value(id)`,
/// `class_of(id)` and `hash(id)` are lock-free — one atomic snapshot load
/// plus an array index, the same work as a `std::vector` access — for any
/// id the calling thread obtained through a properly synchronized channel
/// (e.g. a database column guarded by a session handle lock: the interning
/// write happens-before the column publish, which happens-before the
/// read). Growth never invalidates anything readers hold: a full slab is
/// replaced by a bigger copy and *retired*, not freed, so stale snapshot
/// pointers and outstanding `const Value&`s stay valid (bounded overhead:
/// the retired halves sum to less than the live slab). Retired slabs are
/// freed only by a vacuum holding exclusive access (ReclaimRetiredSlabs).
/// This is what lets independent MeasureSession handles mutate
/// concurrently on one shared pool without taxing the detector's hot read
/// paths.
class ValuePool {
 public:
  /// Default stripe count: enough to make intern contention negligible at
  /// the thread counts the schedulers use, small enough that the per-pool
  /// footprint stays trivial.
  static constexpr size_t kDefaultStripes = 16;

  ValuePool() : ValuePool(kDefaultStripes) {}

  /// A pool with `num_stripes` index partitions (rounded up to a power of
  /// two, floored at 1). `ValuePool(1)` is a single-mutex pool;
  /// benchmarks use it as the striping baseline.
  explicit ValuePool(size_t num_stripes);

  ValuePool(const ValuePool&) = delete;
  ValuePool& operator=(const ValuePool&) = delete;

  /// Returns the id of `v`, interning it if new.
  ValueId Intern(const Value& v);
  ValueId Intern(Value&& v);

  /// The id of `v` if a value with `v`'s exact representation is interned.
  std::optional<ValueId> Find(const Value& v) const;

  /// The semantic class of `v` if any interned value compares equal to it
  /// (e.g. FindClass(Value(2.0)) hits when Value(2) is interned).
  std::optional<ValueId> FindClass(const Value& v) const;

  /// Canonical value for an id (must be valid).
  const Value& value(ValueId id) const {
    DBIM_POOL_BOUNDS_CHECK(id);
    return values_.at(id);
  }

  /// Semantic class of an id: equal across ids iff the values are equal.
  ValueId class_of(ValueId id) const {
    DBIM_POOL_BOUNDS_CHECK(id);
    return classes_.at(id);
  }

  /// Precomputed `Value::Hash()` of the canonical value (consistent with
  /// semantic equality: values in one class hash alike).
  size_t hash(ValueId id) const {
    DBIM_POOL_BOUNDS_CHECK(id);
    return hashes_.at(id);
  }

  /// Number of distinct interned representations.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Process-unique identity token, distinct for every pool constructed.
  /// Caches derived from pool contents (e.g. compiled constraint evals)
  /// must key on (generation, size), not size alone: a session vacuum
  /// swaps in a freshly built pool whose size can coincide with the old
  /// one's even though every class id changed.
  uint64_t generation() const { return generation_; }

  /// Stripe partitions in the intern/find index.
  size_t num_stripes() const { return stripe_mask_ + 1; }

  /// Slabs held across the three id-indexed arrays, retired ones included
  /// (the floor is 3: one live slab per array once anything is interned —
  /// the constructor interns null).
  size_t num_slabs() const;

  /// Frees every retired slab, keeping only the live one per array. This
  /// revokes the append-only guarantee for the past: stale snapshot
  /// pointers and `const Value&`s obtained *before* the call dangle, so the
  /// caller must hold exclusive access with no concurrent readers — the
  /// MeasureSession vacuum's exclusive lock is the intended call site.
  void ReclaimRetiredSlabs();

 private:
  // Lock-free-reader dynamic array. The backing slab is published through
  // one atomic pointer; readers load the snapshot and index it — the same
  // two loads a std::vector access costs. Growth (under the append mutex)
  // allocates a doubled slab, copies the published prefix, publishes the
  // new pointer with release order, and retires the old slab without
  // freeing it, so a reader holding a stale snapshot, or a `const T&` into
  // one, is never invalidated. Slot writes beyond the published size race
  // with nothing: readers only index ids they obtained through a channel
  // ordered after the append.
  template <typename T>
  class SnapshotArray {
   public:
    const T& at(size_t i) const {
      return data_.load(std::memory_order_acquire)[i];
    }

    /// Slabs currently held, retired included. Call under the append
    /// mutex.
    size_t num_slabs() const {
      return (live_ == nullptr ? 0 : 1) + retired_.size();
    }

    /// Frees every retired slab, keeping only the live one. Only legal
    /// when no reader can hold a stale snapshot or a reference into a
    /// retired slab (see ValuePool::ReclaimRetiredSlabs). Call under the
    /// append mutex.
    void ReclaimRetired() { retired_.clear(); }

    /// Appends at index `count` (the caller's current element count),
    /// growing and retiring as needed. Call only under the append mutex;
    /// the caller publishes the new count afterwards.
    void Append(size_t count, T v) {
      if (count == capacity_) {
        const size_t fresh_capacity =
            capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
        auto fresh = std::unique_ptr<T[]>(new T[fresh_capacity]);
        const T* old = data_.load(std::memory_order_relaxed);
        for (size_t i = 0; i < count; ++i) fresh[i] = old[i];
        fresh[count] = std::move(v);
        data_.store(fresh.get(), std::memory_order_release);
        capacity_ = fresh_capacity;
        if (live_ != nullptr) retired_.push_back(std::move(live_));
        live_ = std::move(fresh);
        return;
      }
      data_.load(std::memory_order_relaxed)[count] = std::move(v);
    }

   private:
    static constexpr size_t kInitialCapacity = 1024;

    std::atomic<T*> data_{nullptr};
    size_t capacity_ = 0;               // under the append mutex
    std::unique_ptr<T[]> live_;         // currently published slab
    std::vector<std::unique_ptr<T[]>> retired_;  // superseded, oldest first
  };

  // One partition of the intern/find index. Values land in a stripe by
  // *semantic* hash, which rep-equal values share too (rep-equal implies
  // semantically equal), so the duplicate scan and the class-
  // representative election for any given value are always serialized by
  // one stripe mutex — that is what keeps class assignment deterministic.
  struct Stripe {
    mutable std::mutex mutex;
    // Representation hash -> ids with that hash (verified with RepEqual).
    std::unordered_map<size_t, std::vector<ValueId>> index;
    // Semantic hash -> class representatives (verified with Value::==).
    std::unordered_map<size_t, std::vector<ValueId>> class_index;
  };

  // Representation-exact hash/equality for the interning index (the
  // Value's own hash/== are semantic and would merge int/double). The rep
  // hash is derived from the semantic hash, which every pool operation
  // computes anyway for stripe selection.
  static size_t RepHashOf(const Value& v, size_t sem_hash);
  static bool RepEqual(const Value& a, const Value& b);

  Stripe& StripeFor(size_t sem_hash) const {
    // Fibonacci mix before masking: Value::Hash has fine entropy overall
    // but small-int workloads cluster in the low bits.
    return stripes_[(sem_hash * 0x9e3779b97f4a7c15ull >> 17) & stripe_mask_];
  }

  ValueId InternImpl(Value v);

  const uint64_t generation_;  // assigned at construction, immutable
  const size_t stripe_mask_;   // num_stripes - 1 (power of two)
  const std::unique_ptr<Stripe[]> stripes_;
  // Guards id allocation, slab growth and the size_ publish. Lock order:
  // stripe mutex first, then append mutex; never the reverse.
  mutable std::mutex append_mutex_;
  SnapshotArray<Value> values_;     // id -> canonical value
  SnapshotArray<size_t> hashes_;    // id -> values_[id].Hash() (semantic)
  SnapshotArray<ValueId> classes_;  // id -> semantic class id
  // Published with release order after the new entry is fully written, so
  // a reader that checks `id < size()` (acquire) sees the entry.
  std::atomic<uint32_t> size_{0};
};

}  // namespace dbim

#endif  // DBIM_COMMON_VALUE_POOL_H_
