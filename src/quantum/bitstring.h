#ifndef QPLEX_QUANTUM_BITSTRING_H_
#define QPLEX_QUANTUM_BITSTRING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace qplex {

/// A fixed-width string of classical bits — the computational-basis state of
/// a (possibly very wide) qubit register, and one lane of the reversible-oracle
/// simulator (BasisStateSimulator::Lane/SetLane), which executes the paper's
/// O(n^2 log n)-qubit X/CNOT/C^kNOT oracles on basis states.
class BitString {
 public:
  BitString() = default;
  explicit BitString(int num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {
    QPLEX_CHECK(num_bits >= 0) << "negative bit count";
  }

  int size() const { return num_bits_; }

  bool Get(int bit) const {
    QPLEX_CHECK(bit >= 0 && bit < num_bits_) << "bit " << bit << " of " << num_bits_;
    return (words_[static_cast<std::size_t>(bit) >> 6] >> (bit & 63)) & 1;
  }
  void Set(int bit, bool value) {
    QPLEX_CHECK(bit >= 0 && bit < num_bits_) << "bit " << bit << " of " << num_bits_;
    const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
    if (value) {
      words_[static_cast<std::size_t>(bit) >> 6] |= mask;
    } else {
      words_[static_cast<std::size_t>(bit) >> 6] &= ~mask;
    }
  }
  void Flip(int bit) {
    QPLEX_CHECK(bit >= 0 && bit < num_bits_) << "bit " << bit << " of " << num_bits_;
    words_[static_cast<std::size_t>(bit) >> 6] ^= std::uint64_t{1} << (bit & 63);
  }

  /// Number of set bits.
  int PopCount() const;

  /// Writes the low-order `width` bits of `value` into bits
  /// [offset, offset + width).
  void StoreInt(int offset, int width, std::uint64_t value);

  /// Reads bits [offset, offset + width) as an unsigned little-endian integer
  /// (bit `offset` is the least significant). width <= 64.
  std::uint64_t LoadInt(int offset, int width) const;

  /// All-zero check.
  bool IsZero() const;

  /// "b0 b1 b2..." with bit 0 leftmost; for debugging.
  std::string ToString() const;

  friend bool operator==(const BitString& a, const BitString& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

 private:
  int num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace qplex

#endif  // QPLEX_QUANTUM_BITSTRING_H_
