#ifndef DBIM_COMMON_RADIX_SORT_H_
#define DBIM_COMMON_RADIX_SORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dbim {

/// Below this many items StableRadixSort runs an insertion sort: a radix
/// pass costs a 256-entry histogram however few items it moves.
inline constexpr size_t kRadixSortCutoff = 32;

/// Stably sorts `items` by `key(item)`, a uint32_t such as a ValuePool
/// class id: an LSD radix sort on 8-bit digits, one pass per digit in
/// which the keys differ (so at most four, and two for keys below 2^16),
/// each O(n + 256). `scratch` is working space; its contents are lost. A
/// key tuple sorts by one call per component, the last component first.
template <typename T, typename Key>
void StableRadixSort(std::vector<T>& items, std::vector<T>& scratch,
                     const Key& key) {
  const size_t n = items.size();
  if (n < kRadixSortCutoff) {
    for (size_t i = 1; i < n; ++i) {
      T item = items[i];
      const uint32_t k = key(item);
      size_t j = i;
      for (; j > 0 && key(items[j - 1]) > k; --j) items[j] = items[j - 1];
      items[j] = item;
    }
    return;
  }
  uint32_t counts[4][256] = {};
  for (const T& item : items) {
    const uint32_t k = key(item);
    for (int d = 0; d < 4; ++d) ++counts[d][(k >> (8 * d)) & 255];
  }
  scratch.resize(n);
  for (int d = 0; d < 4; ++d) {
    const int shift = 8 * d;
    uint32_t* starts = counts[d];
    // Every key shares this digit: the pass would move nothing.
    if (starts[(key(items[0]) >> shift) & 255] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : counts[d]) {
      const uint32_t here = c;
      c = sum;
      sum += here;
    }
    for (const T& item : items) {
      scratch[starts[(key(item) >> shift) & 255]++] = item;
    }
    items.swap(scratch);
  }
}

}  // namespace dbim

#endif  // DBIM_COMMON_RADIX_SORT_H_
