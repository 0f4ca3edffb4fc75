// A growable bitset used for MAC category sets and principal-membership
// closures. Word-granular operations keep lattice checks cheap: Dominates()
// over category sets is a per-word AND/compare, which experiment F3 measures.

#ifndef XSEC_SRC_BASE_BITSET_H_
#define XSEC_SRC_BASE_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xsec {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t bit_count) { Resize(bit_count); }

  // Grows (never shrinks) the logical size; new bits are zero.
  void Resize(size_t bit_count);

  size_t size_bits() const { return bit_count_; }
  size_t size_words() const { return words_.size(); }

  // Number of significant words (ignoring trailing zeros): two sets are
  // equal iff they agree on this many words.
  size_t SignificantWords() const;
  // The i-th 64-bit word; 0 past the end.
  uint64_t word(size_t i) const { return i < words_.size() ? words_[i] : 0; }

  // Accessors tolerate indices past the current size: Test() of an
  // out-of-range bit is false, Set() grows the set.
  void Set(size_t index);
  void Clear(size_t index);
  bool Test(size_t index) const;

  void ClearAll();
  void SetAll();

  // Number of set bits.
  size_t Count() const;
  bool None() const { return Count() == 0; }

  // True iff every set bit of *this is also set in `other`.
  bool IsSubsetOf(const DynamicBitset& other) const;
  // True iff the sets share no bit.
  bool IsDisjointFrom(const DynamicBitset& other) const;

  // Set algebra; the result is sized to cover both operands.
  DynamicBitset Union(const DynamicBitset& other) const;
  DynamicBitset Intersection(const DynamicBitset& other) const;
  DynamicBitset Difference(const DynamicBitset& other) const;

  void UnionInPlace(const DynamicBitset& other);

  bool operator==(const DynamicBitset& other) const;

  // Stable hash over the set bits (trailing zero words are ignored, so equal
  // sets of different capacities hash identically).
  uint64_t Hash() const;

  // Indices of the set bits, ascending.
  std::vector<size_t> ToIndices() const;

  // "{1,3,7}".
  std::string ToString() const;

 private:
  static constexpr size_t kBitsPerWord = 64;

  std::vector<uint64_t> words_;
  size_t bit_count_ = 0;
};

}  // namespace xsec

#endif  // XSEC_SRC_BASE_BITSET_H_
