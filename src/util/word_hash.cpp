#include "util/word_hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sdf {
namespace {

constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;

std::uint64_t load_le(const unsigned char* p) {
  std::uint64_t w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, sizeof w);
  } else {
    for (int i = 0; i < 8; ++i) w |= std::uint64_t{p[i]} << (8 * i);
  }
  return w;
}

std::uint64_t mix(std::uint64_t lane, std::uint64_t word) {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

/// Mixes `stripes` whole stripes at `p` into `lanes`.  The lanes stay in
/// locals: stored through a reference they could alias the input bytes,
/// and every store would force the next load to wait for it.
void mix_stripes(std::array<std::uint64_t, 4>& lanes, const unsigned char* p,
                 std::size_t stripes) {
  std::uint64_t a = lanes[0], b = lanes[1], c = lanes[2], d = lanes[3];
  for (; stripes > 0; --stripes, p += 32) {
    a = mix(a, load_le(p));
    b = mix(b, load_le(p + 8));
    c = mix(c, load_le(p + 16));
    d = mix(d, load_le(p + 24));
  }
  lanes = {a, b, c, d};
}

}  // namespace

void WordHash64::update(std::string_view bytes) {
  if (bytes.empty()) return;  // data() may be null, which memcpy must not see
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  length_ += n;
  if (tail_size_ > 0) {
    const std::size_t take = std::min(kStripe - tail_size_, n);
    std::memcpy(tail_.data() + tail_size_, p, take);
    tail_size_ += take;
    p += take;
    n -= take;
    if (tail_size_ < kStripe) return;
    mix_stripes(lanes_, tail_.data(), 1);
    tail_size_ = 0;
  }
  const std::size_t whole = n / kStripe;
  mix_stripes(lanes_, p, whole);
  p += whole * kStripe;
  n -= whole * kStripe;
  std::memcpy(tail_.data(), p, n);
  tail_size_ = n;
}

std::uint64_t WordHash64::finish() const {
  std::array<std::uint64_t, 4> lanes = lanes_;
  std::array<unsigned char, kStripe> tail{};
  std::memcpy(tail.data(), tail_.data(), tail_size_);
  for (std::size_t i = 0; 8 * i < tail_size_; ++i)
    lanes[i] = mix(lanes[i], load_le(tail.data() + 8 * i));
  std::uint64_t h = std::rotl(lanes[0], 1) + std::rotl(lanes[1], 7) +
                    std::rotl(lanes[2], 12) + std::rotl(lanes[3], 18);
  for (const std::uint64_t lane : lanes)
    h = (h ^ mix(0, lane)) * kPrime1 + kPrime3;
  h ^= length_;
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::uint64_t word_hash64(std::string_view bytes) {
  WordHash64 h;
  h.update(bytes);
  return h.finish();
}

}  // namespace sdf
