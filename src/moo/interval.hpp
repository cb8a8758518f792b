// Interval objectives and uncertain dominance.
//
// The paper cites Teich's "Pareto-Front Exploration with Uncertain
// Objectives" [12] for its MOP formalism.  Early in a design, allocation
// costs are estimates; this module models them as intervals [lo, hi] and
// provides the two dominance relations of [12]:
//   * `certainly_dominates` — a dominates b under EVERY realization of the
//     intervals (safe to prune b),
//   * `possibly_dominates`  — a dominates b under SOME realization.
// The *uncertain Pareto set* keeps every point that is not certainly
// dominated; it is a superset of the crisp front and converges to it as
// the intervals shrink.
#pragma once

#include <vector>

#include "util/status.hpp"

namespace sdf {

/// A closed interval [lo, hi], lo <= hi.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  [[nodiscard]] static Interval exact(double v) { return Interval{v, v}; }
  [[nodiscard]] double width() const { return hi - lo; }
  [[nodiscard]] double mid() const { return (lo + hi) / 2.0; }
  [[nodiscard]] bool contains(double v) const { return lo <= v && v <= hi; }
  [[nodiscard]] bool overlaps(const Interval& o) const {
    return lo <= o.hi && o.lo <= hi;
  }

  friend Interval operator+(const Interval& a, const Interval& b) {
    return Interval{a.lo + b.lo, a.hi + b.hi};
  }
  Interval& operator+=(const Interval& o) {
    lo += o.lo;
    hi += o.hi;
    return *this;
  }
  friend bool operator==(const Interval& a, const Interval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// A design point with an uncertain first objective (cost interval) and a
/// crisp second objective (1/flexibility), both minimized.
struct IntervalPoint {
  Interval x;
  double y = 0.0;
  std::size_t tag = 0;
};

/// a certainly dominates b: for every realization (xa in a.x, xb in b.x),
/// (xa, a.y) weakly dominates (xb, b.y), strictly for some pair.
[[nodiscard]] bool certainly_dominates(const IntervalPoint& a,
                                       const IntervalPoint& b);

/// a possibly dominates b: for some realization a dominates b.
[[nodiscard]] bool possibly_dominates(const IntervalPoint& a,
                                      const IntervalPoint& b);

/// Archive of points not certainly dominated by any other.
class IntervalFront {
 public:
  /// Inserts `p` unless certainly dominated (or duplicated); removes
  /// incumbents `p` certainly dominates.  Returns true iff inserted.
  bool insert(const IntervalPoint& p);

  /// True iff some archived point certainly dominates `p`.
  [[nodiscard]] bool certainly_dominated(const IntervalPoint& p) const;

  /// Points sorted by ascending x.lo.
  [[nodiscard]] std::vector<IntervalPoint> points() const;
  [[nodiscard]] std::size_t size() const { return points_.size(); }

 private:
  std::vector<IntervalPoint> points_;
};

}  // namespace sdf
