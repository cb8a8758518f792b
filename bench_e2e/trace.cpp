#include "trace.hpp"

#include <algorithm>
#include <numeric>

namespace sdf::e2e {

double Tracer::micros(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

void Tracer::span(std::string name, Clock::time_point start,
                  Clock::time_point end, JsonObject args) {
  spans_.push_back(Span{std::move(name), "layer", micros(start),
                        micros(end) - micros(start), std::move(args)});
}

Tracer::Clock::time_point Tracer::aggregate(std::string name,
                                            Clock::time_point start,
                                            double seconds, JsonObject args) {
  const auto end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  spans_.push_back(Span{std::move(name), "aggregate", micros(start),
                        micros(end) - micros(start), std::move(args)});
  return end;
}

std::map<std::string, double> Tracer::self_seconds() const {
  // Spans come from one thread and nest properly: walk them by start
  // (outer first on ties), keeping the chain of open ancestors, and charge
  // each span's duration against its innermost open ancestor.
  std::vector<std::size_t> order(spans_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans_[a].start_us != spans_[b].start_us)
      return spans_[a].start_us < spans_[b].start_us;
    return spans_[a].dur_us > spans_[b].dur_us;
  });
  std::map<std::string, double> self;
  std::vector<std::size_t> open;
  for (std::size_t i : order) {
    const Span& s = spans_[i];
    while (!open.empty()) {
      const Span& top = spans_[open.back()];
      if (s.start_us < top.start_us + top.dur_us) break;
      open.pop_back();
    }
    self[s.name] += s.dur_us * 1e-6;
    if (!open.empty()) self[spans_[open.back()].name] -= s.dur_us * 1e-6;
    open.push_back(i);
  }
  return self;
}

std::string Tracer::to_chrome_json() const {
  JsonArray events;
  events.reserve(spans_.size());
  for (const Span& s : spans_) {
    JsonObject e;
    e.emplace_back("name", Json(s.name));
    e.emplace_back("cat", Json(s.cat));
    e.emplace_back("ph", Json("X"));
    e.emplace_back("ts", Json(s.start_us));
    e.emplace_back("dur", Json(s.dur_us));
    e.emplace_back("pid", Json(1));
    e.emplace_back("tid", Json(1));
    e.emplace_back("args", Json(s.args));
    events.emplace_back(std::move(e));
  }
  JsonObject doc;
  doc.emplace_back("traceEvents", Json(std::move(events)));
  doc.emplace_back("displayTimeUnit", Json("ms"));
  return Json(std::move(doc)).dump();
}

}  // namespace sdf::e2e
