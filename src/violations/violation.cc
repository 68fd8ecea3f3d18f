#include "violations/violation.h"

#include <algorithm>

#include "common/check.h"

namespace dbim {

namespace {

// FNV-1a over a sorted fact-id set: a subset's canonical key. Distinct sets
// can share a key ({899, 947, 948} and {898, 947, 208029} do), so a key
// only narrows the search and the fact sets decide.
uint64_t SubsetKey(const FactId* first, const FactId* last) {
  uint64_t h = 1469598103934665603ull;
  for (; first != last; ++first) {
    h ^= *first;
    h *= 1099511628211ull;
  }
  return h;
}

// Where `key`'s probe sequence starts in a table of `mask` + 1 entries.
size_t Home(uint64_t key, size_t mask) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdull;
  return (key ^ key >> 33) & mask;
}

}  // namespace

void ViolationSet::Add(const FactId* first, const FactId* last,
                       size_t multiplicity) {
  DBIM_CHECK(first != last);
  DBIM_CHECK(std::is_sorted(first, last));
  DBIM_CHECK(facts_.size() + (last - first) <= UINT32_MAX);
  if (offsets_.empty()) offsets_.push_back(0);
  facts_.insert(facts_.end(), first, last);
  offsets_.push_back(static_cast<uint32_t>(facts_.size()));
  multiplicities_.push_back(static_cast<uint32_t>(multiplicity));
  num_minimal_violations_ += multiplicity;
}

bool ViolationSet::operator==(const ViolationSet& other) const {
  return multiplicities_ == other.multiplicities_ &&
         facts_ == other.facts_ && (empty() || offsets_ == other.offsets_);
}

std::vector<FactId> ViolationSet::ProblematicFacts() const {
  std::vector<FactId> out = facts_;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<FactId> ViolationSet::SelfInconsistentFacts() const {
  std::vector<FactId> out;
  for (const FactSpan subset : *this) {
    if (subset.size == 1) out.push_back(subset[0]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t ViolationSet::MaxSubsetSize() const {
  size_t m = 0;
  for (const FactSpan subset : *this) m = std::max<size_t>(m, subset.size);
  return m;
}

double ViolationSet::ViolatingPairRatio(size_t db_size) const {
  if (db_size < 2) return 0.0;
  size_t pairs = 0;
  for (const FactSpan subset : *this) pairs += subset.size == 2;
  const double all_pairs =
      0.5 * static_cast<double>(db_size) * static_cast<double>(db_size - 1);
  return static_cast<double>(pairs) / all_pairs;
}

void WitnessStore::Rehash(size_t live) {
  size_t size = 8;
  while (size < 2 * live) size *= 2;
  if (size == table_.size()) return;
  std::vector<Entry> old(size);
  old.swap(table_);
  for (const Entry& entry : old) {
    if (entry.slot == kNone) continue;
    size_t e = Home(entry.key, size - 1);
    while (table_[e].slot != kNone) e = (e + 1) & (size - 1);
    table_[e] = entry;
  }
}

void WitnessStore::EraseEntry(uint64_t key, uint32_t s) {
  const size_t mask = table_.size() - 1;
  size_t hole = Home(key, mask);
  while (table_[hole].slot != s) {
    DBIM_CHECK(table_[hole].slot != kNone);
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: every later entry of the probe run that may
  // sit at the hole (its home is not cyclically after the hole) moves in.
  for (size_t next = (hole + 1) & mask; table_[next].slot != kNone;
       next = (next + 1) & mask) {
    const size_t home = Home(table_[next].key, mask);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      table_[hole] = table_[next];
      hole = next;
    }
  }
  table_[hole].slot = kNone;
}

void WitnessStore::AdmitRange(const FactId* first, const FactId* last,
                              uint32_t derivations) {
  num_minimal_violations_ += derivations;
  if (2 * (num_live_ + 1) > table_.size()) Rehash(num_live_ + 1);
  const uint64_t key = SubsetKey(first, last);
  const size_t mask = table_.size() - 1;
  size_t e = Home(key, mask);
  for (; table_[e].slot != kNone; e = (e + 1) & mask) {
    if (table_[e].key != key) continue;
    Slot& slot = slots_[table_[e].slot];
    if (std::equal(first, last, begin(slot), end(slot))) {
      slot.derivations += derivations;
      return;
    }
  }
  const uint32_t s = static_cast<uint32_t>(slots_.size());
  table_[e] = Entry{key, s};
  DBIM_CHECK(facts_.size() + (last - first) < kNone);
  slots_.push_back(Slot{static_cast<uint32_t>(facts_.size()),
                        static_cast<uint32_t>(last - first), derivations,
                        true});
  if (*(last - 1) >= by_fact_.size()) by_fact_.resize(*(last - 1) + 1);
  for (const FactId* id = first; id != last; ++id) {
    members_.push_back(Member{s, by_fact_[*id].head});
    by_fact_[*id].head = static_cast<uint32_t>(facts_.size());
    facts_.push_back(*id);
  }
  if (last - first == 1) by_fact_[*first].self_inconsistent = true;
  ++num_live_;
}

bool WitnessStore::IsMinimal(const std::vector<FactId>& candidate) const {
  for (const FactId id : candidate) {
    if (IsSelfInconsistent(id)) return candidate.size() == 1;
  }
  // The member chains bound the scan to the slots sharing a fact with it.
  for (const FactId id : candidate) {
    if (id >= by_fact_.size()) continue;
    for (uint32_t m = by_fact_[id].head; m != kNone; m = members_[m].next) {
      const Slot& slot = slots_[members_[m].slot];
      if (!slot.alive || slot.size >= candidate.size()) continue;
      if (std::includes(candidate.begin(), candidate.end(), begin(slot),
                        end(slot))) {
        return false;
      }
    }
  }
  return true;
}

void WitnessStore::AdmitKAry(std::vector<std::vector<FactId>> supports) {
  if (supports.empty()) return;
  std::sort(supports.begin(), supports.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  for (size_t i = 0; i < supports.size();) {
    size_t end = i + 1;
    while (end < supports.size() && supports[end] == supports[i]) ++end;
    if (IsMinimal(supports[i])) {
      const std::vector<FactId>& support = supports[i];
      AdmitRange(support.data(), support.data() + support.size(),
                 static_cast<uint32_t>(end - i));
    }
    i = end;
  }
}

void WitnessStore::RemoveInvolving(FactId id) {
  if (id >= by_fact_.size()) return;
  PerFact& fact = by_fact_[id];
  for (uint32_t m = fact.head; m != kNone; m = members_[m].next) {
    const uint32_t s = members_[m].slot;
    Slot& slot = slots_[s];
    if (!slot.alive) continue;
    slot.alive = false;
    --num_live_;
    num_minimal_violations_ -= slot.derivations;
    EraseEntry(SubsetKey(begin(slot), end(slot)), s);
  }
  // Every slot holding `id` is dead, so its chain goes whole.
  fact.head = kNone;
  fact.self_inconsistent = false;
}

size_t WitnessStore::NumMembers() const {
  size_t n = 0;
  for (const PerFact& fact : by_fact_) {
    for (uint32_t m = fact.head; m != kNone; m = members_[m].next) {
      if (slots_[members_[m].slot].alive) {
        ++n;
        break;
      }
    }
  }
  return n;
}

void WitnessStore::Compact() {
  if (num_live_ == slots_.size()) return;
  // Live slots move down in order, their members with them (a slot's
  // members never lie before an earlier slot's), and each moved member is
  // pushed onto its fact's emptied chain.
  std::vector<uint32_t> renumber(slots_.size(), kNone);
  for (PerFact& fact : by_fact_) fact.head = kNone;
  uint32_t live = 0;
  uint32_t to = 0;
  for (uint32_t s = 0; s < static_cast<uint32_t>(slots_.size()); ++s) {
    Slot slot = slots_[s];
    if (!slot.alive) continue;
    renumber[s] = live;
    for (uint32_t i = 0; i < slot.size; ++i, ++to) {
      const FactId id = facts_[slot.begin + i];
      facts_[to] = id;
      members_[to] = Member{live, by_fact_[id].head};
      by_fact_[id].head = to;
    }
    slot.begin = to - slot.size;
    slots_[live++] = slot;
  }
  slots_.resize(live);
  facts_.resize(to);
  members_.resize(to);
  for (Entry& entry : table_) {
    if (entry.slot != kNone) entry.slot = renumber[entry.slot];
  }
  Rehash(num_live_);
}

bool WitnessStore::CompactIfWasteful(double waste_threshold) {
  if (slots_.empty() || num_live_ == slots_.size()) return false;
  const double waste = 1.0 - static_cast<double>(num_live_) /
                                 static_cast<double>(slots_.size());
  if (waste <= waste_threshold) return false;
  Compact();
  return true;
}

ViolationSet WitnessStore::Snapshot() const {
  ViolationSet out;
  if (num_live_ == 0) return out;
  // One pass over the slots. The facts of every slot, dead ones included,
  // bound the live facts, so the fact array is sized once and trimmed.
  out.offsets_.resize(num_live_ + 1);
  out.multiplicities_.resize(num_live_);
  out.facts_.resize(facts_.size());
  uint32_t* offset = out.offsets_.data();
  uint32_t* multiplicity = out.multiplicities_.data();
  FactId* to = out.facts_.data();
  for (const Slot& slot : slots_) {
    if (!slot.alive) continue;
    for (const FactId* id = begin(slot); id != end(slot); ++id) *to++ = *id;
    *++offset = static_cast<uint32_t>(to - out.facts_.data());
    *multiplicity++ = slot.derivations;
  }
  out.facts_.resize(out.offsets_.back());
  out.num_minimal_violations_ = num_minimal_violations_;
  return out;
}

}  // namespace dbim
