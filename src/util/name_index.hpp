// Dense ids 0, 1, 2, ... looked up by name.
//
// The names stay with the caller, who passes `name_of(id)` to each call;
// the index holds only ids, in an open-addressing table with linear
// probing that is kept at most half full. Since it stores no names, a
// copy of the index stays valid for a copy of the caller's names.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace fta::util {

class NameIndex {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0xffffffffu;

  /// The id called `name`, or kNone.
  template <class NameOf>
  Id find(std::string_view name, const NameOf& name_of) const {
    return slots_.empty() ? kNone : slots_[probe(name, name_of)];
  }

  /// The id called `name`. A new name gets the next dense id (the number
  /// of names indexed so far), which the caller must make `name_of`
  /// answer before the next call.
  template <class NameOf>
  Id insert(std::string_view name, const NameOf& name_of) {
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(std::max<std::size_t>(16, 2 * slots_.size()), name_of);
    }
    Id& slot = slots_[probe(name, name_of)];
    if (slot == kNone) slot = static_cast<Id>(size_++);
    return slot;
  }

  /// Makes room for `n` names without a rehash.
  template <class NameOf>
  void reserve(std::size_t n, const NameOf& name_of) {
    if (2 * n > slots_.size()) rehash(std::bit_ceil(2 * n), name_of);
  }

 private:
  /// The slot holding `name`, else the free slot where it would go.
  template <class NameOf>
  std::size_t probe(std::string_view name, const NameOf& name_of) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = std::hash<std::string_view>{}(name) & mask;
    while (slots_[s] != kNone && name_of(slots_[s]) != name) {
      s = (s + 1) & mask;
    }
    return s;
  }

  template <class NameOf>
  void rehash(std::size_t slots, const NameOf& name_of) {
    slots_.assign(slots, kNone);
    const std::size_t mask = slots - 1;
    for (Id id = 0; id < size_; ++id) {
      std::size_t s = std::hash<std::string_view>{}(name_of(id)) & mask;
      while (slots_[s] != kNone) s = (s + 1) & mask;
      slots_[s] = id;
    }
  }

  std::vector<Id> slots_;
  std::size_t size_ = 0;
};

}  // namespace fta::util
