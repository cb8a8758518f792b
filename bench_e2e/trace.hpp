// In-memory spans for the traced run, written out once at the end as
// Chrome trace-event JSON (chrome://tracing, Perfetto and speedscope all
// open it; no dependency needed).
//
// One span per layer call that happens once per specification.  Calls made
// per candidate (enumerate, dominance, estimate, bind) are accumulated and
// recorded as one *aggregate* span per layer and specification, laid end to
// end from the start of their enclosing loop span, so self times still add
// up: the loop's self time is what no layer call covers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace sdf::e2e {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : origin_(Clock::now()) {}

  /// Records the complete span [start, end).
  void span(std::string name, Clock::time_point start, Clock::time_point end,
            JsonObject args = {});
  /// Records an accumulated `seconds` of `name`, placed at `start`.
  /// Returns the end of the placed span, where the next aggregate goes.
  Clock::time_point aggregate(std::string name, Clock::time_point start,
                              double seconds, JsonObject args = {});

  /// Span duration minus the parts of it that nested spans cover, summed
  /// per span name (seconds).
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// {"traceEvents": [...], "displayTimeUnit": "ms"}.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  struct Span {
    std::string name;
    std::string cat;
    double start_us = 0.0;
    double dur_us = 0.0;
    JsonObject args;
  };
  [[nodiscard]] double micros(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace sdf::e2e
