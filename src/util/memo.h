// One versioned-result cache for every memoized query path (DESIGN.md §8
// "Query path"): a single (key, value) slot that hands back the stored
// value while the caller's key is unchanged and recomputes otherwise.
// Each Get() counts exactly one hit or one miss, so the owner's
// hits + misses == lookups ledger holds by construction. Caches are
// runtime state: owners never serialize a Memo.
#ifndef SWSKETCH_UTIL_MEMO_H_
#define SWSKETCH_UTIL_MEMO_H_

#include <optional>
#include <utility>

#include "util/metrics.h"

namespace swsketch {

/// Single-slot memo keyed by an equality-comparable `Key` (a version
/// counter or a tuple of them). `Value` need not be default-constructible.
template <class Key, class Value>
class Memo {
 public:
  /// Returns the stored value when `key` equals the stored key (counting a
  /// hit on `hits`); otherwise stores `compute()` under `key` and returns
  /// it (counting a miss on `misses`). The old value is freed before
  /// `compute()` runs, so two results are never resident at once.
  template <class Compute>
  const Value& Get(const Key& key, Counter* hits, Counter* misses,
                   Compute&& compute) {
    if (slot_ && slot_->first == key) {
      hits->Add();
      return slot_->second;
    }
    misses->Add();
    slot_.reset();
    slot_.emplace(key, std::forward<Compute>(compute)());
    return slot_->second;
  }

  /// Drops the stored value: the next Get() is a miss.
  void Reset() { slot_.reset(); }

 private:
  std::optional<std::pair<Key, Value>> slot_;
};

}  // namespace swsketch

#endif  // SWSKETCH_UTIL_MEMO_H_
