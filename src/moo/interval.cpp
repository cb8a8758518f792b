#include "moo/interval.hpp"

#include <algorithm>

namespace sdf {

bool certainly_dominates(const IntervalPoint& a, const IntervalPoint& b) {
  // Worst case for a (x = a.x.hi) must still weakly dominate the best case
  // for b (x = b.x.lo); strictness in at least one objective for the pair.
  if (a.x.hi > b.x.lo || a.y > b.y) return false;
  return a.x.hi < b.x.lo || a.y < b.y;
}

bool possibly_dominates(const IntervalPoint& a, const IntervalPoint& b) {
  // Best case for a vs worst case for b.
  if (a.x.lo > b.x.hi || a.y > b.y) return false;
  return a.x.lo < b.x.hi || a.y < b.y;
}

bool IntervalFront::insert(const IntervalPoint& p) {
  if (certainly_dominated(p)) return false;
  for (const IntervalPoint& q : points_)
    if (q.x == p.x && q.y == p.y) return false;
  std::erase_if(points_, [&](const IntervalPoint& q) {
    return certainly_dominates(p, q);
  });
  points_.push_back(p);
  return true;
}

bool IntervalFront::certainly_dominated(const IntervalPoint& p) const {
  return std::any_of(points_.begin(), points_.end(),
                     [&](const IntervalPoint& q) {
                       return certainly_dominates(q, p);
                     });
}

std::vector<IntervalPoint> IntervalFront::points() const {
  std::vector<IntervalPoint> out = points_;
  std::sort(out.begin(), out.end(),
            [](const IntervalPoint& a, const IntervalPoint& b) {
              if (a.x.lo != b.x.lo) return a.x.lo < b.x.lo;
              return a.y < b.y;
            });
  return out;
}

}  // namespace sdf
