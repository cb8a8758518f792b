// Word-parallel bitset kernels: the raw-speed layer under `DynBitset`.
//
// Every set-algebra query the exploration hot path issues — activatability
// intersections, `comm_reachable` three-way tests, candidate-domain subset
// checks — reduces to a handful of primitives over packed 64-bit words.
// This header implements them as branch-light, allocation-free loops that
// the compiler can inline straight into the call site:
//
//   * predicates (`intersects`, `subset`, `equal`, `any`) consume four
//     words per iteration and test once per block instead of once per
//     word, so the inner loop carries no data-dependent branch;
//   * reductions (`popcount`, `intersect_count`) are pure unrolled
//     popcount sums, and
//   * transforms (`or`/`and`/`andnot`, `andnot_into`) are straight-line
//     stores the auto-vectorizer handles on its own.
//
// Every kernel is checked word-for-word against a naive per-bit model in
// tests/dyn_bitset_test.cpp and raced against it in bench/bench_kernels.cpp.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace sdf::bitkernel {

// ---- reductions ------------------------------------------------------------

/// Population count over `n` words.
[[nodiscard]] inline std::size_t popcount_words(const std::uint64_t* w,
                                                std::size_t n) {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<std::size_t>(std::popcount(w[i + 0]));
    c1 += static_cast<std::size_t>(std::popcount(w[i + 1]));
    c2 += static_cast<std::size_t>(std::popcount(w[i + 2]));
    c3 += static_cast<std::size_t>(std::popcount(w[i + 3]));
  }
  for (; i < n; ++i) c0 += static_cast<std::size_t>(std::popcount(w[i]));
  return c0 + c1 + c2 + c3;
}

/// Population count of the intersection `a & b` without a temporary.
[[nodiscard]] inline std::size_t intersect_count_words(const std::uint64_t* a,
                                                       const std::uint64_t* b,
                                                       std::size_t n) {
  std::size_t c0 = 0, c1 = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    c0 += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
    c1 += static_cast<std::size_t>(std::popcount(a[i + 1] & b[i + 1]));
  }
  if (i < n) c0 += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  return c0 + c1;
}

// ---- predicates ------------------------------------------------------------

/// True iff any word is non-zero.
[[nodiscard]] inline bool any_words(const std::uint64_t* w, std::size_t n) {
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = (w[i] | w[i + 1]) | (w[i + 2] | w[i + 3]);
    if (acc != 0) return true;
  }
  acc = 0;
  for (; i < n; ++i) acc |= w[i];
  return acc != 0;
}

/// True iff `a & b` is non-empty.
[[nodiscard]] inline bool intersects_words(const std::uint64_t* a,
                                           const std::uint64_t* b,
                                           std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t acc = (a[i] & b[i]) | (a[i + 1] & b[i + 1]) |
                              (a[i + 2] & b[i + 2]) | (a[i + 3] & b[i + 3]);
    if (acc != 0) return true;
  }
  std::uint64_t acc = 0;
  for (; i < n; ++i) acc |= a[i] & b[i];
  return acc != 0;
}

/// True iff `a & b & c` is non-empty — the `comm_reachable` kernel:
/// the word-wise equivalent of `(a & b & c).any()` without temporaries.
[[nodiscard]] inline bool intersects3_words(const std::uint64_t* a,
                                            const std::uint64_t* b,
                                            const std::uint64_t* c,
                                            std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t acc =
        (a[i] & b[i] & c[i]) | (a[i + 1] & b[i + 1] & c[i + 1]) |
        (a[i + 2] & b[i + 2] & c[i + 2]) | (a[i + 3] & b[i + 3] & c[i + 3]);
    if (acc != 0) return true;
  }
  std::uint64_t acc = 0;
  for (; i < n; ++i) acc |= a[i] & b[i] & c[i];
  return acc != 0;
}

/// True iff `a ⊆ b`, i.e. `a & ~b` is empty.
[[nodiscard]] inline bool subset_words(const std::uint64_t* a,
                                       const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t acc = (a[i] & ~b[i]) | (a[i + 1] & ~b[i + 1]) |
                              (a[i + 2] & ~b[i + 2]) | (a[i + 3] & ~b[i + 3]);
    if (acc != 0) return false;
  }
  std::uint64_t acc = 0;
  for (; i < n; ++i) acc |= a[i] & ~b[i];
  return acc == 0;
}

/// True iff the word arrays are identical.
[[nodiscard]] inline bool equal_words(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n) {
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = (a[i] ^ b[i]) | (a[i + 1] ^ b[i + 1]) | (a[i + 2] ^ b[i + 2]) |
          (a[i + 3] ^ b[i + 3]);
    if (acc != 0) return false;
  }
  acc = 0;
  for (; i < n; ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

// ---- transforms ------------------------------------------------------------

inline void or_words(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

inline void and_words(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

/// dst &= ~src (set difference in place).
inline void andnot_words(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

/// dst = a & ~b, the out-of-place difference (`and_not_into`).
inline void andnot_into_words(const std::uint64_t* a, const std::uint64_t* b,
                              std::uint64_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & ~b[i];
}

// ---- scans -----------------------------------------------------------------

/// Index of the first non-zero word at or after `from`, or `n` if none.
[[nodiscard]] inline std::size_t find_nonzero_word(const std::uint64_t* w,
                                                   std::size_t n,
                                                   std::size_t from) {
  for (std::size_t i = from; i < n; ++i)
    if (w[i] != 0) return i;
  return n;
}

}  // namespace sdf::bitkernel
