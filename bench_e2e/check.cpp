#include "check.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "bind/solver.hpp"
#include "flex/flexibility.hpp"
#include "spec/compiled.hpp"

namespace sdf::e2e {
namespace {

bool same(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

std::string describe(const std::vector<FrontPoint>& front) {
  std::string out = "[";
  for (const FrontPoint& p : front) {
    if (out.size() > 1) out += ' ';
    out += '(';
    out += Json(p.cost).dump();
    out += ',';
    out += Json(p.flexibility).dump();
    out += ')';
  }
  out += ']';
  return out;
}

std::vector<FrontPoint> points_of(const ExploreResult& result) {
  std::vector<FrontPoint> out;
  for (const Implementation& impl : result.front)
    out.push_back(FrontPoint{impl.cost, impl.flexibility});
  return out;
}

bool same_front(const std::vector<FrontPoint>& a,
                const std::vector<FrontPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same(a[i].cost, b[i].cost) ||
        !same(a[i].flexibility, b[i].flexibility))
      return false;
  return true;
}

// The paper's published results (§5): the Set-Top box front and the
// decoder's cheapest implementation.
const std::vector<FrontPoint> kPaperSettop = {
    {100, 2}, {120, 3}, {230, 4}, {290, 5}, {360, 7}, {430, 8}};
constexpr FrontPoint kPaperDecoderCheapest = {50, 1};

}  // namespace

Result<ExpectedFronts> load_expected(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{"cannot read " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  Result<Json> doc = Json::parse(buf.str());
  if (!doc.ok()) return doc.error().wrap(path);
  const Json* fronts = doc.value().find("fronts");
  if (fronts == nullptr || !fronts->is_object())
    return Error{path + ": no \"fronts\" object"};
  ExpectedFronts out;
  for (const auto& [key, entry] : fronts->as_object()) {
    ExpectedFront e;
    const Json* front = entry.find("front");
    if (front == nullptr || !front->is_array())
      return Error{path + ": " + key + ": no \"front\" array"};
    for (const Json& p : front->as_array()) {
      if (!p.is_array() || p.as_array().size() != 2 ||
          !p.as_array()[0].is_number() || !p.as_array()[1].is_number())
        return Error{path + ": " + key + ": bad front point"};
      e.front.push_back(
          FrontPoint{p.as_array()[0].as_number(), p.as_array()[1].as_number()});
    }
    if (const Json* c = entry.find("exact_up_to_cost");
        c != nullptr && c->is_number())
      e.exact_up_to_cost = c->as_number();
    out.emplace(key, std::move(e));
  }
  return out;
}

std::string expected_to_text(const ExpectedFronts& fronts) {
  std::string out = "{\"seed\": " + std::to_string(kDefaultSeed) +
                    ", \"fronts\": {";
  const char* sep = "\n";
  for (const auto& [key, e] : fronts) {
    JsonArray front;
    for (const FrontPoint& p : e.front)
      front.emplace_back(JsonArray{Json(p.cost), Json(p.flexibility)});
    JsonObject entry;
    entry.emplace_back("front", Json(std::move(front)));
    if (e.exact_up_to_cost.has_value())
      entry.emplace_back("exact_up_to_cost", Json(*e.exact_up_to_cost));
    out += sep;
    out += Json(key).dump() + ": " + Json(std::move(entry)).dump();
    sep = ",\n";
  }
  return out + "\n}}\n";
}

ExpectedFront expected_of(const ExploreResult& result) {
  ExpectedFront e;
  e.front = points_of(result);
  if (result.stats.stop_reason != StopReason::kCompleted)
    e.exact_up_to_cost = result.stats.exact_up_to_cost;
  return e;
}

std::string verify_run(const SpecCase& c, const SpecRun& run,
                       const ExploreOptions& options,
                       const ExpectedFronts& expected) {
  if (!run.error.empty()) return run.error;
  const ExploreResult& result = run.result;
  if (!result.status.ok()) return "status: " + result.status.error().message;
  const bool budgeted = c.deadline_seconds > 0.0 || c.max_allocations != 0;
  const bool partial = result.stats.stop_reason != StopReason::kCompleted;
  if (partial && !budgeted) return "stopped early without a budget";

  const CompiledSpec& cs = run.spec->compiled();
  const double f_max = max_flexibility(cs.problem());
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    const Implementation& impl = result.front[i];
    const std::string at = "front point " + std::to_string(i) + ": ";
    if (i > 0 && !(impl.cost > result.front[i - 1].cost &&
                   impl.flexibility > result.front[i - 1].flexibility))
      return at + "not strictly better than its predecessor";
    if (impl.flexibility > f_max + 1e-9) return at + "exceeds max flexibility";
    if (!same(impl.cost, cs.allocation_cost(impl.units)))
      return at + "cost differs from its allocation's cost";
    if (impl.ecas.empty()) return at + "no feasible activation";
    for (const FeasibleEca& fe : impl.ecas)
      if (!binding_feasible(cs, impl.units, fe.eca, fe.binding,
                            options.implementation.solver))
        return at + "binding fails binding_feasible";
    if (partial && !(impl.cost < result.stats.exact_up_to_cost))
      return at + "partial front point at or above exact_up_to_cost";
  }

  const std::vector<FrontPoint> front = points_of(result);
  if (c.key == "example:settop" && !same_front(front, kPaperSettop))
    return "settop front " + describe(front) + " differs from the paper's";
  if (c.key == "example:decoder" &&
      (front.empty() || !same(front[0].cost, kPaperDecoderCheapest.cost) ||
       !same(front[0].flexibility, kPaperDecoderCheapest.flexibility)))
    return "decoder's cheapest point differs from the paper's $50/f=1";
  if (!c.deterministic()) return "";
  const auto it = expected.find(c.key);
  if (it == expected.end()) return "";
  if (!same_front(front, it->second.front))
    return "front " + describe(front) + " differs from the committed " +
           describe(it->second.front);
  if (it->second.exact_up_to_cost.has_value() &&
      !(partial && same(result.stats.exact_up_to_cost,
                        *it->second.exact_up_to_cost)))
    return "certificate differs from the committed exact_up_to_cost";
  return "";
}

std::string compare_replay(const ExploreResult& explored,
                           const ExploreResult& replayed) {
  if (!replayed.status.ok())
    return "replay status: " + replayed.status.error().message;
  if (explored.front.size() != replayed.front.size())
    return "replay front size differs";
  for (std::size_t i = 0; i < explored.front.size(); ++i) {
    const Implementation& a = explored.front[i];
    const Implementation& b = replayed.front[i];
    if (!(a.units == b.units) || a.cost != b.cost ||
        a.flexibility != b.flexibility)
      return "replay front point " + std::to_string(i) + " differs";
  }
  const ExploreCheckpoint::Counters x = checkpoint_counters(explored.stats);
  const ExploreCheckpoint::Counters y = checkpoint_counters(replayed.stats);
  if (x.candidates_generated != y.candidates_generated ||
      x.dominated_skipped != y.dominated_skipped ||
      x.possible_allocations != y.possible_allocations ||
      x.flexibility_estimations != y.flexibility_estimations ||
      x.bound_skipped != y.bound_skipped ||
      x.implementation_attempts != y.implementation_attempts ||
      x.solver_calls != y.solver_calls || x.solver_nodes != y.solver_nodes ||
      x.budget_abandoned != y.budget_abandoned)
    return "replay checkpoint_counters differ";
  if (explored.stats.stop_reason != replayed.stats.stop_reason ||
      explored.stats.exact_up_to_cost != replayed.stats.exact_up_to_cost)
    return "replay stop reason or certificate differs";
  return "";
}

}  // namespace sdf::e2e
