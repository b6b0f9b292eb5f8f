//===- support/PtrIndex.h - Pointer to dense number table -------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-addressing hash table from pointers to dense numbers, for the
/// passes that number IR objects once and then index flat arrays with the
/// numbers (the verifier's dominance check, module cloning).
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_SUPPORT_PTRINDEX_H
#define KHAOS_SUPPORT_PTRINDEX_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace khaos {

/// Pointer -> dense number with no allocation per entry and a probe or two
/// per lookup. reset() sizes the table for an expected count; an insert
/// that would fill it past half doubles it, so a count that is only known
/// as it is discovered needs no counting pass.
template <typename T> class PtrIndex {
public:
  static constexpr unsigned None = ~0u;

  /// Empties the table and sizes it for \p Count keys.
  void reset(size_t Count) {
    unsigned Bits = 1;
    while ((size_t(1) << Bits) < 2 * Count)
      ++Bits;
    Shift = 64 - Bits;
    Slots.assign(size_t(1) << Bits, {nullptr, None});
    Size = 0;
  }
  /// Maps \p Key, which must not be in the table yet, to \p Val.
  void insert(const T *Key, unsigned Val) {
    if (2 * (Size + 1) > Slots.size())
      grow();
    place(Key, Val);
    ++Size;
  }
  /// None when \p Key was not inserted.
  unsigned lookup(const T *Key) const {
    if (Slots.empty())
      return None;
    for (size_t S = home(Key);; S = (S + 1) & (Slots.size() - 1))
      if (Slots[S].first == Key || !Slots[S].first)
        return Slots[S].second;
  }

private:
  size_t home(const T *Key) const {
    return (reinterpret_cast<uintptr_t>(Key) * 0x9E3779B97F4A7C15ull) >>
           Shift;
  }
  void place(const T *Key, unsigned Val) {
    size_t S = home(Key);
    while (Slots[S].first)
      S = (S + 1) & (Slots.size() - 1);
    Slots[S] = {Key, Val};
  }
  void grow() {
    std::vector<std::pair<const T *, unsigned>> Old = std::move(Slots);
    size_t Kept = Size;
    reset(Old.size());
    for (const auto &[Key, Val] : Old)
      if (Key)
        place(Key, Val);
    Size = Kept;
  }

  std::vector<std::pair<const T *, unsigned>> Slots;
  size_t Size = 0;
  unsigned Shift = 63;
};

} // namespace khaos

#endif // KHAOS_SUPPORT_PTRINDEX_H
