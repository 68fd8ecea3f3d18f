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

void WitnessStore::AdmitRange(const FactId* first, const FactId* last,
                              uint32_t derivations) {
  num_minimal_violations_ += derivations;
  const uint64_t key = SubsetKey(first, last);
  const auto [lo, hi] = by_key_.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    Slot& slot = slots_[it->second];
    if (std::equal(first, last, begin(slot), end(slot))) {
      slot.derivations += derivations;
      return;
    }
  }
  const uint32_t s = static_cast<uint32_t>(slots_.size());
  by_key_.emplace_hint(lo, key, s);
  if (has_postings_) {
    for (const FactId* id = first; id != last; ++id) {
      postings_[*id].push_back(s);
    }
  }
  if (last - first == 1) self_inconsistent_.insert(*first);
  slots_.push_back(Slot{facts_.size(), static_cast<uint32_t>(last - first),
                        derivations, true});
  facts_.insert(facts_.end(), first, last);
  ++num_live_;
}

void WitnessStore::BuildPostings() {
  if (has_postings_) return;
  for (uint32_t s = 0; s < static_cast<uint32_t>(slots_.size()); ++s) {
    if (!slots_[s].alive) continue;
    for (const FactId* id = begin(slots_[s]); id != end(slots_[s]); ++id) {
      postings_[*id].push_back(s);
    }
  }
  has_postings_ = true;
}

bool WitnessStore::IsMinimal(const std::vector<FactId>& candidate) const {
  for (const FactId id : candidate) {
    if (IsSelfInconsistent(id)) return candidate.size() == 1;
  }
  // The postings bound the scan to the slots sharing a fact with it.
  for (const FactId id : candidate) {
    const auto it = postings_.find(id);
    if (it == postings_.end()) continue;
    for (const uint32_t s : it->second) {
      const Slot& slot = slots_[s];
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
  BuildPostings();
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
  BuildPostings();
  const auto it = postings_.find(id);
  if (it == postings_.end()) return;
  for (const uint32_t s : it->second) {
    Slot& slot = slots_[s];
    if (!slot.alive) continue;
    slot.alive = false;
    --num_live_;
    num_minimal_violations_ -= slot.derivations;
    auto key = by_key_.equal_range(SubsetKey(begin(slot), end(slot))).first;
    while (key->second != s) ++key;
    by_key_.erase(key);
    if (slot.size == 1) self_inconsistent_.erase(*begin(slot));
  }
  postings_.erase(it);
}

size_t WitnessStore::NumMembers() const {
  std::vector<FactId> members;
  for (const Slot& slot : slots_) {
    if (slot.alive) members.insert(members.end(), begin(slot), end(slot));
  }
  std::sort(members.begin(), members.end());
  return static_cast<size_t>(
      std::unique(members.begin(), members.end()) - members.begin());
}

void WitnessStore::Compact() {
  if (num_live_ == slots_.size()) return;
  std::vector<Slot> live;
  std::vector<FactId> facts;
  live.reserve(num_live_);
  for (const Slot& slot : slots_) {
    if (!slot.alive) continue;
    live.push_back(Slot{facts.size(), slot.size, slot.derivations, true});
    facts.insert(facts.end(), begin(slot), end(slot));
  }
  slots_ = std::move(live);
  facts_ = std::move(facts);
  by_key_.clear();
  by_key_.reserve(slots_.size());
  for (uint32_t s = 0; s < static_cast<uint32_t>(slots_.size()); ++s) {
    by_key_.emplace(SubsetKey(begin(slots_[s]), end(slots_[s])), s);
  }
  postings_.clear();
  has_postings_ = false;
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
  DBIM_CHECK(facts_.size() <= UINT32_MAX);
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
