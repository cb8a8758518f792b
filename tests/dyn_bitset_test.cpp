// Property tests for the word-parallel bitset kernels: every DynBitset
// primitive that compiles down to util/bitset_kernels.hpp is checked
// against a naive per-bit reference on randomized universes, including
// non-word-multiple lengths and the trailing-word mask edge.
#include "util/dyn_bitset.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "util/bitset_kernels.hpp"

namespace sdf {
namespace {

/// Naive per-bit model of a DynBitset.
using Bits = std::vector<bool>;

Bits random_bits(std::mt19937& rng, std::size_t size, double density) {
  std::bernoulli_distribution bit(density);
  Bits out(size);
  for (std::size_t i = 0; i < size; ++i) out[i] = bit(rng);
  return out;
}

DynBitset from_bits(const Bits& bits) {
  DynBitset out(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) out.set(i);
  return out;
}

std::size_t ref_count(const Bits& a) {
  std::size_t n = 0;
  for (const bool b : a) n += b ? 1 : 0;
  return n;
}

std::size_t ref_intersect_count(const Bits& a, const Bits& b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) n += (a[i] && b[i]) ? 1 : 0;
  return n;
}

bool ref_subset(const Bits& a, const Bits& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] && !b[i]) return false;
  return true;
}

bool ref_intersects(const Bits& a, const Bits& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] && b[i]) return true;
  return false;
}

bool ref_intersects3(const Bits& a, const Bits& b, const Bits& c) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] && b[i] && c[i]) return true;
  return false;
}

std::size_t ref_find_first(const Bits& a, std::size_t from) {
  for (std::size_t i = from; i < a.size(); ++i)
    if (a[i]) return i;
  return DynBitset::npos;
}

/// Universe sizes straddling every word boundary the kernels care about:
/// sub-word, exact multiples, one-past, and multi-block lengths (the
/// 4-word unrolled loops switch to their remainder path at 256 bits).
const std::size_t kSizes[] = {1,   2,   63,  64,  65,  127, 128, 129,
                              191, 192, 193, 255, 256, 257, 300, 1024};

/// Trailing bits beyond size() must stay zero after every operation; the
/// kernels rely on this to avoid masking the last word.
void expect_trailing_zero(const DynBitset& s) {
  const std::size_t tail = s.size() % 64;
  if (tail == 0 || s.words().empty()) return;
  EXPECT_EQ(s.words().back() & (~std::uint64_t{0} << tail), 0u)
      << "trailing garbage at size " << s.size();
}

TEST(DynBitsetKernels, ReductionsMatchNaiveReference) {
  std::mt19937 rng(20260809);
  for (const std::size_t size : kSizes) {
    for (const double density : {0.0, 0.05, 0.5, 1.0}) {
      const Bits ra = random_bits(rng, size, density);
      const Bits rb = random_bits(rng, size, density);
      const DynBitset a = from_bits(ra);
      const DynBitset b = from_bits(rb);
      EXPECT_EQ(a.count(), ref_count(ra)) << size << " d=" << density;
      EXPECT_EQ(a.none(), ref_count(ra) == 0);
      EXPECT_EQ(a.any(), ref_count(ra) != 0);
      EXPECT_EQ(a.intersect_count(b), ref_intersect_count(ra, rb));
      expect_trailing_zero(a);
    }
  }
}

TEST(DynBitsetKernels, PredicatesMatchNaiveReference) {
  std::mt19937 rng(7);
  for (const std::size_t size : kSizes) {
    for (int round = 0; round < 8; ++round) {
      const Bits ra = random_bits(rng, size, 0.3);
      const Bits rb = random_bits(rng, size, 0.7);
      const Bits rc = random_bits(rng, size, 0.5);
      const DynBitset a = from_bits(ra);
      const DynBitset b = from_bits(rb);
      const DynBitset c = from_bits(rc);
      EXPECT_EQ(a.is_subset_of(b), ref_subset(ra, rb)) << size;
      EXPECT_EQ(a.intersects(b), ref_intersects(ra, rb)) << size;
      EXPECT_EQ(DynBitset::intersects(a, b, c), ref_intersects3(ra, rb, rc))
          << size;
      EXPECT_EQ(a == b, ra == rb);
      EXPECT_TRUE(a == a);
      EXPECT_TRUE(a.is_subset_of(a));
      // Force the subset/intersects predicates through their true branch
      // too: a & b is always a subset of b and intersects it when nonempty.
      const DynBitset meet = a & b;
      EXPECT_TRUE(meet.is_subset_of(b));
      EXPECT_EQ(meet.any(), a.intersects(b));
    }
  }
}

TEST(DynBitsetKernels, TransformsMatchNaiveReference) {
  std::mt19937 rng(99);
  for (const std::size_t size : kSizes) {
    const Bits ra = random_bits(rng, size, 0.4);
    const Bits rb = random_bits(rng, size, 0.4);
    const DynBitset a = from_bits(ra);
    const DynBitset b = from_bits(rb);

    const DynBitset u = a | b;
    const DynBitset n = a & b;
    const DynBitset d = a - b;
    DynBitset d2;
    a.and_not_into(b, d2);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(u.test(i), ra[i] || rb[i]) << size << ":" << i;
      EXPECT_EQ(n.test(i), ra[i] && rb[i]) << size << ":" << i;
      EXPECT_EQ(d.test(i), ra[i] && !rb[i]) << size << ":" << i;
      EXPECT_EQ(d2.test(i), ra[i] && !rb[i]) << size << ":" << i;
    }
    expect_trailing_zero(u);
    expect_trailing_zero(n);
    expect_trailing_zero(d);
    expect_trailing_zero(d2);
    // Algebraic identities tie the transforms to the predicates.
    EXPECT_EQ(u.count(), a.count() + b.count() - a.intersect_count(b));
    EXPECT_EQ(n.count(), a.intersect_count(b));
    EXPECT_TRUE(n.is_subset_of(a));
    EXPECT_TRUE(a.is_subset_of(u));
    EXPECT_FALSE(d.intersects(b));
  }
}

TEST(DynBitsetKernels, AndNotIntoReusesStorageAndResizesDestination) {
  const DynBitset a = from_bits(Bits{true, false, true, true});
  const DynBitset b = from_bits(Bits{false, false, true, false});
  DynBitset out(100);  // wrong universe: must be re-shaped, not trusted
  a.and_not_into(b, out);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out.to_string(), "{0,3}");
  // Second call with the now-matching universe reuses the words in place.
  a.and_not_into(b, out);
  EXPECT_EQ(out.to_string(), "{0,3}");
}

TEST(DynBitsetKernels, FindFirstMatchesNaiveReference) {
  std::mt19937 rng(1234);
  for (const std::size_t size : kSizes) {
    for (const double density : {0.0, 0.01, 0.5}) {
      const Bits ra = random_bits(rng, size, density);
      const DynBitset a = from_bits(ra);
      EXPECT_EQ(a.find_first(), ref_find_first(ra, 0)) << size;
      // Every `from`, including past-the-end (probe a few word edges too).
      for (std::size_t from : {std::size_t{0}, size / 2, size - 1, size,
                               size + 7}) {
        EXPECT_EQ(a.find_first(from),
                  from >= size ? DynBitset::npos : ref_find_first(ra, from))
            << size << " from=" << from;
      }
      // for_each visits exactly the reference members, ascending.
      std::vector<std::size_t> seen;
      a.for_each([&](std::size_t p) { seen.push_back(p); });
      EXPECT_EQ(seen, a.members());
      EXPECT_EQ(seen.size(), ref_count(ra));
    }
  }
}

TEST(DynBitsetKernels, TrailingWordMaskEdge) {
  // A bitset whose last word is only partially used: setting the final
  // valid bit must not disturb trailing-zero territory, and every kernel
  // must ignore the unused region.
  for (const std::size_t size : {65u, 127u, 129u, 191u}) {
    DynBitset full(size);
    for (std::size_t i = 0; i < size; ++i) full.set(i);
    expect_trailing_zero(full);
    EXPECT_EQ(full.count(), size);
    EXPECT_EQ(full.find_first(size - 1), size - 1);
    EXPECT_EQ(full.find_first(size), DynBitset::npos);

    DynBitset last(size);
    last.set(size - 1);
    EXPECT_TRUE(last.is_subset_of(full));
    EXPECT_TRUE(last.intersects(full));
    EXPECT_EQ(full.intersect_count(last), 1u);
    const DynBitset rest = full - last;
    EXPECT_EQ(rest.count(), size - 1);
    EXPECT_FALSE(rest.test(size - 1));
    expect_trailing_zero(rest);
  }
}

TEST(DynBitsetKernels, RandomizedSizesSweep) {
  // Fuzz-style sweep over arbitrary (non-word-aligned) universes: all
  // primitives agree with the reference on 200 random instances.
  std::mt19937 rng(42);
  std::uniform_int_distribution<std::size_t> size_dist(1, 400);
  std::uniform_real_distribution<double> density_dist(0.0, 1.0);
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = size_dist(rng);
    const Bits ra = random_bits(rng, size, density_dist(rng));
    const Bits rb = random_bits(rng, size, density_dist(rng));
    const DynBitset a = from_bits(ra);
    const DynBitset b = from_bits(rb);
    ASSERT_EQ(a.count(), ref_count(ra)) << "size=" << size;
    ASSERT_EQ(a.intersect_count(b), ref_intersect_count(ra, rb));
    ASSERT_EQ(a.is_subset_of(b), ref_subset(ra, rb)) << "size=" << size;
    ASSERT_EQ(a.intersects(b), ref_intersects(ra, rb)) << "size=" << size;
    ASSERT_EQ(a.find_first(), ref_find_first(ra, 0)) << "size=" << size;
    const DynBitset d = a - b;
    ASSERT_EQ(d.count(), ref_count(ra) - ref_intersect_count(ra, rb));
    expect_trailing_zero(d);
  }
}

TEST(DynBitsetKernels, ResizePreservesMembersAndZeroFillsNewBits) {
  DynBitset s(10);
  s.set(0);
  s.set(9);
  s.resize(130);
  EXPECT_EQ(s.size(), 130u);
  EXPECT_EQ(s.to_string(), "{0,9}");
  EXPECT_EQ(s.find_first(10), DynBitset::npos);
  s.set(129);
  expect_trailing_zero(s);
  EXPECT_EQ(s.count(), 3u);
}

}  // namespace
}  // namespace sdf
