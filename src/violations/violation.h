#ifndef DBIM_VIOLATIONS_VIOLATION_H_
#define DBIM_VIOLATIONS_VIOLATION_H_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "relational/database.h"

namespace dbim {

/// The set MI_Sigma(D) of minimal inconsistent subsets of a database, plus
/// bookkeeping the measures need:
///
///  * the subsets, `subset(i)` for i < num_minimal_subsets() or by
///    iterating the set — each a sorted set of fact ids E with E
///    inconsistent and every proper subset consistent. MI is a set of fact
///    sets, so a pair violating two DCs appears once (this matters for I_MI
///    on the running example). Both producers, the detector and the
///    incremental index, fill a WitnessStore, whose slots are distinct fact
///    sets; a ViolationSet is that store's snapshot.
///  * `SelfInconsistentFacts()` — facts f with {f} inconsistent
///    ("contradictory tuples"); these are exactly the singleton minimal
///    subsets.
///  * `num_minimal_violations()` — the count of (F, sigma) pairs from the
///    paper's Section 5.3 discussion, where the same fact set is counted
///    once per constraint it violates: the sum of the per-subset
///    `multiplicities()`, the number of derivations of a subset (one per
///    binary constraint it violates, one per satisfying assignment of a
///    k-ary constraint with exactly that support, and one for a
///    contradictory fact's singleton).
///
/// Layout: three flat arrays. `facts()` holds every subset back to back in
/// set order, subset i at [offsets_[i], offsets_[i + 1]); `multiplicities()`
/// runs parallel to the subsets. Copying a set or taking a store's snapshot
/// costs a few array copies, not one allocation per subset.
class ViolationSet {
 public:
  ViolationSet() = default;

  /// Appends a minimal inconsistent subset (non-empty, sorted, distinct
  /// ids) not yet in the set, counting it as `multiplicity` minimal
  /// violations (one per constraint or assignment that derives it).
  void Add(const FactId* first, const FactId* last, size_t multiplicity = 1);
  void Add(std::initializer_list<FactId> subset, size_t multiplicity = 1) {
    Add(subset.begin(), subset.end(), multiplicity);
  }

  size_t num_minimal_subsets() const { return multiplicities_.size(); }
  /// The i-th subset, in set order.
  FactSpan subset(size_t i) const {
    return {facts_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  /// Every subset's facts back to back, in set order.
  const std::vector<FactId>& facts() const { return facts_; }
  /// Derivations of each subset, in set order.
  const std::vector<uint32_t>& multiplicities() const {
    return multiplicities_;
  }
  size_t num_minimal_violations() const { return num_minimal_violations_; }

  bool empty() const { return multiplicities_.empty(); }

  /// Iterates the subsets in set order: `for (FactSpan s : violations)`.
  class Iterator {
   public:
    Iterator(const ViolationSet& set, size_t i) : set_(&set), i_(i) {}
    FactSpan operator*() const { return set_->subset(i_); }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return i_ != other.i_; }

   private:
    const ViolationSet* set_;
    size_t i_;
  };
  Iterator begin() const { return Iterator(*this, 0); }
  Iterator end() const { return Iterator(*this, num_minimal_subsets()); }

  /// The same subsets with the same multiplicities, in the same order.
  bool operator==(const ViolationSet& other) const;

  /// Union of all minimal subsets: the problematic facts, sorted.
  std::vector<FactId> ProblematicFacts() const;

  /// Facts forming singleton minimal subsets, sorted.
  std::vector<FactId> SelfInconsistentFacts() const;

  /// Largest subset cardinality (0 when consistent). This bounds the LP
  /// integrality gap and the continuity constant d_Sigma.
  size_t MaxSubsetSize() const;

  /// Number of size-2 subsets divided by n-choose-2 — the "violation ratio"
  /// the paper reports above each chart of Figure 4.
  double ViolatingPairRatio(size_t db_size) const;

 private:
  friend class WitnessStore;

  std::vector<FactId> facts_;
  // Where each subset starts in facts_, then facts_.size(); empty while
  // the set is.
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> multiplicities_;
  size_t num_minimal_violations_ = 0;
};

/// MI_Sigma(D) while it is built and maintained: the one store that decides
/// which fact sets MI holds. ViolationDetector fills it and hands it out as
/// a ViolationSet; IncrementalViolationIndex adopts the one its initial
/// detection filled and keeps it current under Apply.
///
/// A slot holds a sorted fact set, its derivation count and an alive flag;
/// its facts (members) are a range of one array holding every slot's
/// members back to back. Every structure is a flat array:
///
///  * Slots are distinct fact sets. An open-addressing table (linear
///    probing, backward-shift deletion, at most half full) holds each live
///    slot's id beside its canonical key (a hash of the fact ids). A key
///    hit counts only when the fact sets are equal, so two subsets whose
///    keys collide take two slots.
///  * Member chains, always kept: per fact, the members holding it, each
///    knowing its slot. They serve the k-ary minimality filter and
///    RemoveInvolving. A killed slot's members stay in other facts' chains,
///    skipped as dead, until Compact relinks the live members.
///  * A per-fact flag marks the self-inconsistent facts: those with a live
///    singleton slot. Per-fact arrays are indexed by FactId, like the
///    database's own locators.
class WitnessStore {
 public:
  /// Admits `subset` (sorted, distinct ids: a singleton or a pair) with
  /// `derivations` derivations. A live slot holding the same fact set only
  /// gains the derivations.
  void Admit(std::initializer_list<FactId> subset, uint32_t derivations = 1) {
    AdmitRange(subset.begin(), subset.end(), derivations);
  }

  /// Admits the minimal subsets among the candidate supports of k-ary
  /// constraints (each sorted, distinct ids), one per satisfying
  /// assignment. Equal supports are one candidate whose derivations they
  /// are. Candidates go in canonical order, size-major and lexicographic
  /// within a size, so a smaller witness is stored before the larger
  /// candidates it suppresses. A candidate is admitted iff it holds no
  /// self-inconsistent fact (bar its own singleton) and no live smaller
  /// subset.
  void AdmitKAry(std::vector<std::vector<FactId>> supports);

  /// Kills every live slot holding `id`: one walk of its member chain.
  /// Slots are only marked dead; Compact reclaims them.
  void RemoveInvolving(FactId id);

  bool IsSelfInconsistent(FactId id) const {
    return id < by_fact_.size() && by_fact_[id].self_inconsistent;
  }
  bool empty() const { return num_live_ == 0; }
  size_t num_live() const { return num_live_; }
  /// Live plus dead slots.
  size_t num_slots() const { return slots_.size(); }
  size_t num_minimal_violations() const { return num_minimal_violations_; }
  /// Facts held by some live slot.
  size_t NumMembers() const;

  /// Drops the dead slots, keeping the live ones in order, and relinks
  /// the member chains of the live slots. O(live state + fact ids).
  void Compact();
  /// Compact when the dead fraction of the slots exceeds
  /// `waste_threshold`. Returns whether it ran.
  bool CompactIfWasteful(double waste_threshold);

  /// The live slots in slot order.
  ViolationSet Snapshot() const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Slot {
    uint32_t begin = 0;  // its first member
    uint32_t size = 0;
    uint32_t derivations = 0;
    bool alive = true;
  };
  struct Member {
    uint32_t slot = kNone;
    uint32_t next = kNone;  // the next member holding the same fact
  };
  struct PerFact {
    uint32_t head = kNone;  // the first member holding the fact
    bool self_inconsistent = false;
  };
  struct Entry {
    uint64_t key = 0;
    uint32_t slot = kNone;  // kNone where free
  };

  const FactId* begin(const Slot& slot) const {
    return facts_.data() + slot.begin;
  }
  const FactId* end(const Slot& slot) const {
    return begin(slot) + slot.size;
  }

  void AdmitRange(const FactId* first, const FactId* last,
                  uint32_t derivations);
  // No live smaller subset is contained in `candidate`, and no member of it
  // is self-inconsistent unless it is that member's singleton.
  bool IsMinimal(const std::vector<FactId>& candidate) const;
  // Erases slot `s`, whose key is `key`, from table_.
  void EraseEntry(uint64_t key, uint32_t s);
  // Sizes table_ to the least power of two (at least 8) holding twice
  // `live` entries, keeping its entries.
  void Rehash(size_t live);

  std::vector<Slot> slots_;
  std::vector<FactId> facts_;     // every slot's members, dead ones too
  std::vector<Member> members_;   // parallel to facts_
  std::vector<PerFact> by_fact_;  // indexed by FactId
  std::vector<Entry> table_;      // live slots only
  size_t num_live_ = 0;
  size_t num_minimal_violations_ = 0;
};

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_VIOLATION_H_
