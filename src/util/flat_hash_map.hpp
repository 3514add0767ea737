// FlatHashMap — an open-addressing table for per-entity state on hot
// sequential paths: SlidingWindow's stream state (jobs, running tasks,
// per-host running counts) and trace::validate's per-task state.
//
// Those tables are touched once per event: every SCHEDULE inserts a
// running task and every terminal erases one. std::unordered_map
// allocates a node per insert and frees it per erase, and std::map
// adds a tree walk; this table keeps keys and values inline in one
// power-of-two slot array and allocates only when it grows:
//
//   * linear probing from a multiplicative (Fibonacci) hash of the
//     key's 64-bit hash code (FlatHashKey<Key>::hash);
//   * backward-shift deletion: erase moves later entries of the probe
//     run back into the hole, so there are no tombstones and lookups do
//     not degrade under insert/erase churn;
//   * the array doubles before the load passes 3/4 and never shrinks
//     (a month of jobs then costs about what unordered_map's nodes did;
//     probe runs stay short at that load with a Fibonacci hash);
//   * one key value (FlatHashKey<Key>::kEmpty) marks free slots; an
//     entry whose key is that value lives in a side slot, so every key
//     is usable.
//
// Keys are compared with ==, so a hash collision never merges two
// keys. 64-bit integers work out of the box; another key type
// specializes FlatHashKey next to its definition (trace::TaskKey does).
//
// Iteration order follows the hash and the insertion history, like an
// unordered_map's: it must not reach output unless the fold over it is
// order-invariant (cgc_lint's unordered-iteration check covers this
// type, DESIGN.md §15). Pointers from find()/try_emplace() are
// invalidated by the next insertion or erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace cgc::util {

/// Hash code and free-slot marker of a FlatHashMap key type. This
/// primary template covers 64-bit integers (the key is its own hash
/// code); other key types specialize it.
template <typename Key>
struct FlatHashKey {
  static_assert(std::is_integral_v<Key> && sizeof(Key) == 8);
  /// Key value that marks a free slot (stored out of line when used).
  static constexpr Key kEmpty = static_cast<Key>(0x9e3779b97f4a7c15ULL);
  /// 64-bit hash code; the table spreads it with a Fibonacci multiply.
  static std::uint64_t hash(Key key) {
    return static_cast<std::uint64_t>(key);
  }
};

template <typename Key, typename Value>
class FlatHashMap {
  static_assert(std::is_trivially_copyable_v<Key>,
                "FlatHashMap moves keys with plain copies");
  static_assert(std::is_trivially_copyable_v<Value>,
                "FlatHashMap moves values with plain copies");

 public:
  /// One stored entry.
  struct Slot {
    Key key;      ///< kEmptyKey in a free array slot
    Value value;  ///< the mapped value
  };

  /// Key value that marks a free slot (stored out of line when used).
  static constexpr Key kEmptyKey = FlatHashKey<Key>::kEmpty;

  /// Entries stored.
  std::size_t size() const { return size_; }

  /// The value stored under `key`, or nullptr.
  Value* find(Key key) {
    if (key == kEmptyKey) {
      return has_empty_key_ ? &empty_key_slot_.value : nullptr;
    }
    if (slots_.empty()) {
      return nullptr;
    }
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.key == key) {
        return &slot.value;
      }
      if (slot.key == kEmptyKey) {
        return nullptr;
      }
    }
  }

  /// The value under `key`, value-initialized and inserted when absent;
  /// `second` is true when it was inserted.
  std::pair<Value*, bool> try_emplace(Key key) {
    if (key == kEmptyKey) {
      const bool inserted = !has_empty_key_;
      if (inserted) {
        has_empty_key_ = true;
        empty_key_slot_ = Slot{key, Value{}};
        ++size_;
      }
      return {&empty_key_slot_.value, inserted};
    }
    if (4 * (used_slots() + 1) > 3 * slots_.size()) {
      grow();
    }
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.key == key) {
        return {&slot.value, false};
      }
      if (slot.key == kEmptyKey) {
        slot = Slot{key, Value{}};
        ++size_;
        return {&slot.value, true};
      }
    }
  }

  /// try_emplace(key).first, as a reference.
  Value& operator[](Key key) { return *try_emplace(key).first; }

  /// Removes `key`; false when it was absent.
  bool erase(Key key) {
    if (key == kEmptyKey) {
      if (!has_empty_key_) {
        return false;
      }
      has_empty_key_ = false;
      --size_;
      return true;
    }
    if (slots_.empty()) {
      return false;
    }
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        erase_slot(i);
        return true;
      }
      if (slots_[i].key == kEmptyKey) {
        return false;
      }
    }
  }

  /// Removes every entry for which pred(key, value) holds.
  template <typename Pred>
  void erase_if(Pred pred) {
    if (has_empty_key_ && pred(empty_key_slot_.key, empty_key_slot_.value)) {
      has_empty_key_ = false;
      --size_;
    }
    // erase_slot() refills slot i from later in its probe run, so i is
    // re-examined. An entry not yet scanned only ever moves onto i or a
    // later slot, so none is skipped; one already scanned may wrap
    // round and be tested again, which a pure predicate does not mind.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      while (slots_[i].key != kEmptyKey &&
             pred(slots_[i].key, slots_[i].value)) {
        erase_slot(i);
      }
    }
  }

  /// Forward iteration over the stored entries in slot order (plus the
  /// side slot last).
  class const_iterator {
   public:
    /// The entry under the iterator.
    const Slot& operator*() const {
      return index_ == map_->slots_.size() ? map_->empty_key_slot_
                                           : map_->slots_[index_];
    }
    /// Advances to the next stored entry.
    const_iterator& operator++() {
      ++index_;
      settle();
      return *this;
    }
    /// Iterators are equal at the same position.
    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }

   private:
    friend class FlatHashMap;
    const_iterator(const FlatHashMap* map, std::size_t index)
        : map_(map), index_(index) {
      settle();
    }
    // Positions [0, slots) are the array, `slots` is the side slot,
    // `slots` + 1 is end().
    void settle() {
      const std::size_t n = map_->slots_.size();
      while (index_ < n && map_->slots_[index_].key == kEmptyKey) {
        ++index_;
      }
      if (index_ == n && !map_->has_empty_key_) {
        ++index_;
      }
    }
    const FlatHashMap* map_;
    std::size_t index_;
  };

  /// First stored entry.
  const_iterator begin() const { return const_iterator(this, 0); }
  /// Past the last stored entry.
  const_iterator end() const {
    return const_iterator(this, slots_.size() + 1);
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  std::size_t used_slots() const { return size_ - (has_empty_key_ ? 1 : 0); }

  std::size_t home(Key key) const {
    return static_cast<std::size_t>(
        (FlatHashKey<Key>::hash(key) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// Backward-shift deletion of the entry in slot `hole`.
  void erase_slot(std::size_t hole) {
    for (std::size_t i = (hole + 1) & mask_; slots_[i].key != kEmptyKey;
         i = (i + 1) & mask_) {
      // The entry at i may fill the hole when the hole lies on its probe
      // path, i.e. cyclically within [home, i).
      const std::size_t from_home = (i - home(slots_[i].key)) & mask_;
      const std::size_t from_hole = (i - hole) & mask_;
      if (from_home >= from_hole) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
  }

  void grow() {
    const std::size_t capacity =
        slots_.empty() ? kMinSlots : 2 * slots_.size();
    std::vector<Slot> old(capacity, Slot{kEmptyKey, Value{}});
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) {
      --shift_;
    }
    for (const Slot& slot : old) {
      if (slot.key == kEmptyKey) {
        continue;
      }
      std::size_t i = home(slot.key);
      while (slots_[i].key != kEmptyKey) {
        i = (i + 1) & mask_;
      }
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
  Slot empty_key_slot_{kEmptyKey, Value{}};
};

}  // namespace cgc::util
