// Streaming 64-bit hash for digests of long byte streams.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sdf {

/// Non-cryptographic 64-bit hash of a byte stream fed in chunks of any
/// size.  The bytes are read as little-endian 64-bit words striped over
/// four independent multiply-rotate lanes (word i feeds lane i mod 4), so
/// neighbouring words hash in parallel instead of through one serial
/// multiply chain per byte.  A partial stripe waits for the next `update`,
/// so the value depends on the bytes alone, never on where the chunks
/// split them.  `finish` folds in the buffered words (the last one
/// zero-padded), the four lanes and the total length.
class WordHash64 {
 public:
  void update(std::string_view bytes);
  [[nodiscard]] std::uint64_t finish() const;

 private:
  static constexpr std::size_t kStripe = 32;

  std::array<std::uint64_t, 4> lanes_ = {
      0x60ea27eeadc0b5d6ULL, 0xc2b2ae3d27d4eb4fULL, 0, 0x61c8864e7a143579ULL};
  std::array<unsigned char, kStripe> tail_{};
  std::size_t tail_size_ = 0;
  std::uint64_t length_ = 0;
};

/// `WordHash64` of `bytes` in one call.
[[nodiscard]] std::uint64_t word_hash64(std::string_view bytes);

}  // namespace sdf
