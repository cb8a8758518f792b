// Word-parallel bitset kernels: inline kernel layer vs the pre-refactor
// scalar path and a naive per-bit reference; and the binding solver's
// kernel on the deep-solve anchors.
//
// Three implementations of every hot set primitive are raced on the
// allocation-sized universes EXPLORE actually touches (a handful of words):
//   * kernel  — util/bitset_kernels.hpp as inlined through DynBitset (the
//               shipping hot path: block loops, no per-bit branches);
//   * scalar  — the pre-refactor DynBitset code paths, replicated verbatim
//               as out-of-line noinline functions (one per-word loop behind
//               a cross-TU call, exactly what call sites used to compile to);
//   * naive   — a per-bit reference (the semantics oracle).
//
// The binding-kernel case replays EXPLORE's one-thread candidate loop on
// baseband-dsp seeds 3, 47 and 213, collects every (allocation, ECA) query
// it sends the solver, and times the raw kernel on them: per-node search
// time and per-call setup time (domains, conflict tables, load lists,
// seed counts, the first MRV scan), the latter from a second pass whose
// solves stop at their first decision node against a tripped budget.
//
// The stream-filter case times the cost-ordered allocation stream and the
// §5 dominance filter on nested.json and two of bench_e2e's enum_nested
// tile specs (19 units each): ns per emitted subset for a full unbounded
// pass of `next`, and ns per candidate for `obviously_dominated` over the
// first 2^18 subsets in stream order.
//
// The implementation-overhead case times one-thread `build_implementation`
// with default options over the same loop's allocations on those anchors
// and settop-box seeds 320 and 321, and splits its time per call: the
// activatable set's prepared ECA list, the binding cache's probe,
// revalidation and insert, and the kernel searches of the cache's misses.  Each phase is one pass over all calls on a cold
// spec, as the run would make them; the rest of the total assembles the
// implementation.
//
// The front-door case times what a run does to a spec before exploring
// it, on nested-m and nested-xl seed 1 (2.6 and 23 MB): load
// (`spec_from_file` without validation), `validate()`, `compiled()`,
// `lint_errors` and `explore_spec_digest`, median of 5 passes each, plus
// the process's peak RSS (VmHWM) after the first pass's compile.  It runs
// before every other case, nested-m first, so that peak is the front
// door's own; a child process writes each spec file, so the generator's
// memory stays out of it.
//
// `--smoke` skips all timing and runs the deterministic CI gate instead:
// every kernel must agree with the naive reference on randomized universes,
// and in the count-based work model (word operations vs bit operations) the
// kernels must strictly beat the reference.  Nothing in smoke mode depends
// on the wall clock, so the gate cannot flake on a loaded box.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "bind/bind_cache.hpp"
#include "bind/implementation.hpp"
#include "bind/solver.hpp"
#include "explore/allocation_enum.hpp"
#include "explore/checkpoint.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "graph/eca.hpp"
#include "lint/lint.hpp"
#include "spec/compiled.hpp"
#include "spec/spec_io.hpp"
#include "util/bitset_kernels.hpp"
#include "util/dyn_bitset.hpp"
#include "util/status.hpp"

// `noipa` (not just `noinline`) replicates a true cross-TU call: no
// interprocedural analysis, full ABI register clobbers — exactly what call
// sites paid when these methods lived out-of-line in dyn_bitset.cpp.
#if defined(__GNUC__) && !defined(__clang__)
#define SDF_BENCH_NOINLINE __attribute__((noipa))
#elif defined(__GNUC__)
#define SDF_BENCH_NOINLINE __attribute__((noinline))
#else
#define SDF_BENCH_NOINLINE
#endif

namespace sdf {
namespace {

// ---- the pre-refactor scalar path, preserved as the timing baseline --------
// A faithful replica of the PR's "before": DynBitset's hot methods lived
// out-of-line in dyn_bitset.cpp as simple per-word loops with an early-exit
// branch per word, so every call site paid a cross-TU call plus the
// vector-storage indirection.  `noinline` reproduces the call boundary the
// header-inlined kernels removed; the method bodies are copied verbatim.
class OldDynBitset {
 public:
  explicit OldDynBitset(std::size_t size)
      : words_((size + 63) / 64, 0), size_(size) {}

  void set(std::size_t pos) { words_[pos / 64] |= std::uint64_t{1} << (pos % 64); }

  SDF_BENCH_NOINLINE std::size_t count() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_)
      n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  SDF_BENCH_NOINLINE bool intersects(const OldDynBitset& other) const {
    check_compatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & other.words_[i]) return true;
    return false;
  }

  SDF_BENCH_NOINLINE static bool intersects(const OldDynBitset& a,
                                            const OldDynBitset& b,
                                            const OldDynBitset& c) {
    a.check_compatible(b);
    a.check_compatible(c);
    for (std::size_t i = 0; i < a.words_.size(); ++i)
      if (a.words_[i] & b.words_[i] & c.words_[i]) return true;
    return false;
  }

  SDF_BENCH_NOINLINE bool is_subset_of(const OldDynBitset& other) const {
    check_compatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~other.words_[i]) return false;
    return true;
  }

 private:
  void check_compatible(const OldDynBitset& other) const {
    SDF_CHECK(size_ == other.size_, "DynBitset size mismatch");
  }

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

// ---- the naive per-bit reference (semantics oracle) ------------------------
namespace naive {

bool test(const std::uint64_t* w, std::size_t pos) {
  return (w[pos / 64] >> (pos % 64)) & 1u;
}

SDF_BENCH_NOINLINE std::size_t count(const std::uint64_t* w, std::size_t bits) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < bits; ++i) out += test(w, i) ? 1 : 0;
  return out;
}

SDF_BENCH_NOINLINE bool intersects(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t bits) {
  for (std::size_t i = 0; i < bits; ++i)
    if (test(a, i) && test(b, i)) return true;
  return false;
}

SDF_BENCH_NOINLINE bool intersects3(const std::uint64_t* a,
                                    const std::uint64_t* b,
                                    const std::uint64_t* c, std::size_t bits) {
  for (std::size_t i = 0; i < bits; ++i)
    if (test(a, i) && test(b, i) && test(c, i)) return true;
  return false;
}

SDF_BENCH_NOINLINE bool subset(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t bits) {
  for (std::size_t i = 0; i < bits; ++i)
    if (test(a, i) && !test(b, i)) return false;
  return true;
}

}  // namespace naive

// ---- workload: batches of random word arrays -------------------------------

constexpr std::size_t kPairs = 4096;  ///< operand sets timed per pass

struct Workload {
  std::size_t bits;
  std::size_t words;
  // kPairs operand triples, stored flat; trailing bits masked to zero like
  // DynBitset guarantees.  `p` is a dense probe (~50% of the universe set)
  // standing in for a mid-exploration allocation set.
  std::vector<std::uint64_t> a, b, c, p;
};

Workload make_workload(std::size_t bits, std::uint64_t seed) {
  Workload w;
  w.bits = bits;
  w.words = (bits + 63) / 64;
  std::mt19937_64 rng(seed);
  const std::uint64_t tail_mask =
      bits % 64 == 0 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << (bits % 64)) - 1;
  // Sparse operands (~12.5% density), the regime of the real call sites:
  // bus-adjacency sets and candidate allocations populate a small fraction
  // of the unit universe, so the predicates see a genuine hit/miss mix and
  // scan their words instead of always exiting on a hit in word 0.
  for (std::vector<std::uint64_t>* arr : {&w.a, &w.b, &w.c}) {
    arr->resize(kPairs * w.words);
    for (std::size_t i = 0; i < arr->size(); ++i) {
      (*arr)[i] = rng() & rng() & rng();
      if ((i + 1) % w.words == 0) (*arr)[i] &= tail_mask;
    }
  }
  // Dense probe: comm_reachable intersects the *allocation* set (roughly
  // half the units allocated mid-exploration) with two sparse adjacency
  // rows, so per-call verdicts are a genuine mix rather than a predictable
  // miss.
  w.p.resize(kPairs * w.words);
  for (std::size_t i = 0; i < w.p.size(); ++i) {
    w.p[i] = rng();
    if ((i + 1) % w.words == 0) w.p[i] &= tail_mask;
  }
  return w;
}

/// Best-of-5 ns per element for a whole-batch scan `fn()` (the shape of the
/// real call sites: one allocation filtered against thousands of sets).
/// Timing whole scans amortizes the loop overhead identically on every
/// side, so the ratio isolates the per-element op cost.
template <typename Fn>
double time_ns_per_op(const Fn& fn) {
  using Clock = std::chrono::steady_clock;
  constexpr int kReps = 40;
  double best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 5; ++round) {
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) sink += fn();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    benchmark::DoNotOptimize(sink);
    best = std::min(best, ns / (kReps * kPairs));
  }
  return best;
}

struct Row {
  const char* primitive;
  std::size_t bits;
  double ns_kernel;
  double ns_scalar;
  double ns_naive;
};

/// Materializes the flat word arrays as old- and new-style bitset objects
/// carrying identical bit patterns, so both sides time the full call-site
/// shape (object storage included), not just the inner loop.
template <typename BitsetT>
std::vector<BitsetT> materialize(const std::vector<std::uint64_t>& flat,
                                 std::size_t bits, std::size_t words) {
  std::vector<BitsetT> out;
  out.reserve(kPairs);
  for (std::size_t p = 0; p < kPairs; ++p) {
    BitsetT s(bits);
    for (std::size_t b = 0; b < bits; ++b)
      if ((flat[p * words + b / 64] >> (b % 64)) & 1u) s.set(b);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Row> run_timings() {
  std::vector<Row> rows;
  for (const std::size_t bits : {24u, 64u, 128u, 320u}) {
    const Workload w = make_workload(bits, 0x5df0 + bits);
    const std::size_t n = w.words;
    const auto A = [&](std::size_t i) { return w.a.data() + i * n; };
    const auto B = [&](std::size_t i) { return w.b.data() + i * n; };
    const auto C = [&](std::size_t i) { return w.c.data() + i * n; };
    const auto P = [&](std::size_t i) { return w.p.data() + i * n; };
    const std::vector<DynBitset> ka = materialize<DynBitset>(w.a, bits, n);
    const std::vector<DynBitset> kb = materialize<DynBitset>(w.b, bits, n);
    const std::vector<DynBitset> kc = materialize<DynBitset>(w.c, bits, n);
    const std::vector<DynBitset> kp = materialize<DynBitset>(w.p, bits, n);
    const std::vector<OldDynBitset> oa =
        materialize<OldDynBitset>(w.a, bits, n);
    const std::vector<OldDynBitset> ob =
        materialize<OldDynBitset>(w.b, bits, n);
    const std::vector<OldDynBitset> oc =
        materialize<OldDynBitset>(w.c, bits, n);
    const std::vector<OldDynBitset> op =
        materialize<OldDynBitset>(w.p, bits, n);

    // Every scan filters the whole batch against the first operand, like
    // build_domains filtering candidate units against one allocation or
    // comm_reachable probing every adjacency pair.
    rows.push_back(
        {"count", bits,
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i) s += ka[i].count();
           return s;
         }),
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i) s += oa[i].count();
           return s;
         }),
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i) s += naive::count(A(i), bits);
           return s;
         })});
    rows.push_back(
        {"intersects", bits,
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i)
             s += ka[0].intersects(kb[i]) ? 1 : 0;
           return s;
         }),
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i)
             s += oa[0].intersects(ob[i]) ? 1 : 0;
           return s;
         }),
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i)
             s += naive::intersects(A(0), B(i), bits) ? 1 : 0;
           return s;
         })});
    rows.push_back(
        {"comm_reachable(intersects3)", bits,
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i)
             s += DynBitset::intersects(kp[0], kb[i], kc[i]) ? 1 : 0;
           return s;
         }),
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i)
             s += OldDynBitset::intersects(op[0], ob[i], oc[i]) ? 1 : 0;
           return s;
         }),
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i)
             s += naive::intersects3(P(0), B(i), C(i), bits) ? 1 : 0;
           return s;
         })});
    rows.push_back(
        {"is_subset_of", bits,
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i)
             s += ka[i].is_subset_of(kb[0]) ? 1 : 0;
           return s;
         }),
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i)
             s += oa[i].is_subset_of(ob[0]) ? 1 : 0;
           return s;
         }),
         time_ns_per_op([&] {
           std::uint64_t s = 0;
           for (std::size_t i = 0; i < kPairs; ++i)
             s += naive::subset(A(i), B(0), bits) ? 1 : 0;
           return s;
         })});
  }
  return rows;
}

// ---- binding kernel: per-node search and per-call setup time -------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One solver query: the allocation, and the flattening of one of its
/// ECAs, resolved up front so the timing sees the kernel and nothing of
/// the flatten cache.
struct KernelQuery {
  const AllocSet* alloc;
  std::shared_ptr<const CompiledFlat> flat;
};

/// Every (allocation, ECA) query EXPLORE's one-thread candidate loop sends
/// the solver on `cs`, with default filters and the raw kernel answering
/// (no binding cache, no hierarchical path): the same
/// `solver_calls` as `sdf explore --threads 1`.
struct KernelWorkload {
  std::vector<AllocSet> allocs;
  std::vector<KernelQuery> queries;
};

/// The allocations EXPLORE's one-thread candidate loop builds an
/// implementation for on `cs`, with default filters, in order.
std::vector<AllocSet> implementation_attempts(const CompiledSpec& cs) {
  std::vector<AllocSet> attempts;
  const double f_max = max_flexibility(cs.problem());
  double f_cur = 0.0;
  const DominanceContext dominance(cs);
  CostOrderedAllocations stream(cs);
  stream.set_branch_bound([&](const AllocSet& potential) {
    if (f_cur <= 0.0) return true;
    const std::optional<double> est = estimate_flexibility(cs, potential);
    return est.has_value() && *est > f_cur;
  });
  while (std::optional<AllocSet> a = stream.next()) {
    if (a->none() || obviously_dominated(cs, dominance, *a)) continue;
    const Activatability act(cs, *a);
    if (!act.root_activatable()) continue;
    const std::optional<double> est = act.estimated_flexibility();
    if (!est.has_value() || !(*est > f_cur)) continue;
    attempts.push_back(*a);
    const std::optional<Implementation> impl = build_implementation(cs, *a);
    if (!impl.has_value() || impl->flexibility <= f_cur) continue;
    f_cur = impl->flexibility;
    if (f_cur >= f_max - 1e-9) break;
  }
  return attempts;
}

KernelWorkload explore_queries(const CompiledSpec& cs) {
  KernelWorkload w;
  w.allocs = implementation_attempts(cs);
  for (const AllocSet& a : w.allocs) {
    const Activatability act(cs, a);
    for (const Eca& eca :
         enumerate_ecas(cs.problem(), act.clusters(), kEcaLimit))
      w.queries.push_back(KernelQuery{&a, cs.flat(eca.selection)});
  }
  return w;
}

/// Seconds to answer every query once; adds the nodes searched.
double time_queries(const CompiledSpec& cs, const KernelWorkload& w,
                    const SolverOptions& options, std::uint64_t& nodes) {
  const auto t0 = Clock::now();
  for (const KernelQuery& q : w.queries) {
    if (q.flat == nullptr) continue;
    SolverStats stats;
    benchmark::DoNotOptimize(
        solve_binding_flat(cs, *q.alloc, *q.flat, options, &stats));
    nodes += stats.nodes;
  }
  return seconds_since(t0);
}

struct KernelRow {
  std::uint64_t seed;
  std::size_t calls;
  std::uint64_t nodes;
  double solve_s;            ///< median full pass
  double setup_s;            ///< median pass stopped at the first node
  double ns_per_node;        ///< (solve_s - setup_s) / nodes
  double ns_setup_per_call;  ///< setup_s / calls
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::vector<KernelRow> run_binding_kernel() {
  constexpr int kReps = 3;
  std::vector<KernelRow> rows;
  for (const std::uint64_t seed : {3u, 47u, 213u}) {
    const SpecificationGraph spec =
        generate_preset(PlatformPreset::kBasebandDsp, seed);
    const CompiledSpec& cs = spec.compiled();
    const KernelWorkload w = explore_queries(cs);

    // A budget that is already spent: every solve charges its first
    // decision node, is refused, and returns.
    RunBudget one_node;
    one_node.max_solver_nodes = 1;
    BudgetTracker spent(one_node);
    while (spent.charge_solver_node()) {
    }
    SolverOptions setup_only;
    setup_only.budget = &spent;

    std::vector<double> solve, setup;
    std::uint64_t nodes = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      nodes = 0;
      solve.push_back(time_queries(cs, w, {}, nodes));
      std::uint64_t first_nodes = 0;
      setup.push_back(time_queries(cs, w, setup_only, first_nodes));
    }
    KernelRow row{seed, w.queries.size(), nodes, median_of(solve),
                  median_of(setup), 0.0, 0.0};
    row.ns_per_node = (row.solve_s - row.setup_s) * 1e9 /
                      static_cast<double>(std::max<std::uint64_t>(nodes, 1));
    row.ns_setup_per_call =
        row.setup_s * 1e9 /
        static_cast<double>(std::max<std::size_t>(row.calls, 1));
    rows.push_back(row);
  }
  return rows;
}

// ---- implementation overhead: where build_implementation's time goes -------

/// One anchor's `build_implementation` time, split by phase: medians of
/// the per-phase passes, in seconds over all calls.
struct OverheadRow {
  PlatformPreset preset;
  std::uint64_t seed;
  std::size_t calls;    ///< build_implementation calls
  std::size_t queries;  ///< ECA queries (`solver_calls`)
  std::size_t misses;   ///< queries the binding cache sent to the kernel
  double total_s;       ///< build_implementation itself
  double prepare_s;     ///< activatability and the prepared ECA list
  double cache_s;       ///< cache probe, revalidation and insert
  double search_s;      ///< kernel searches of the cache's misses
};

/// One query the binding cache answers: a hit, or a miss with the verdict
/// its search found.
struct CacheQuery {
  const AllocSet* alloc;
  const PreparedEca* eca;
  bool miss;
  std::optional<Binding> verdict;
};

/// Times the phases of `build_implementation` over `attempts` on a cold
/// spec, each one pass over every call in order: `prepare_s`, `search_s`
/// (the kernel on the binding cache's misses alone) and
/// `cache_s` (the frontier work of `BindCache::solve` without its
/// searches: probe, revalidation of a stored witness, insert of the
/// verdict, replayed on a fresh frontier with the verdicts the cache's
/// own pass found).  The anchors do not decompose, so the hierarchical
/// path never engages.
void time_phases(OverheadRow& row, const std::vector<AllocSet>& attempts) {
  const SpecificationGraph spec = generate_preset(row.preset, row.seed);
  const CompiledSpec& cs = spec.compiled();
  row.misses = 0;

  auto t0 = Clock::now();
  std::vector<std::shared_ptr<const PreparedEcas>> lists;
  for (const AllocSet& a : attempts) {
    const Activatability act(cs, a);
    lists.push_back(cs.prepared_ecas(act.clusters()));
  }
  row.prepare_s = seconds_since(t0);

  // Untimed: which queries the cache answers, and the misses' verdicts.
  BindCache cache;
  std::vector<CacheQuery> asked;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    for (const PreparedEca& eca : *lists[i]) {
      SolverStats stats;
      std::optional<Binding> verdict =
          cache.solve(cs, attempts[i], eca, {}, &stats);
      const bool miss =
          stats.cache_hits_feasible + stats.cache_hits_infeasible == 0;
      if (miss) ++row.misses;
      asked.push_back(CacheQuery{&attempts[i], &eca, miss,
                                 miss ? std::move(verdict) : std::nullopt});
    }
  }
  row.queries = asked.size();

  std::vector<std::pair<const AllocSet*, const CompiledFlat*>> searches;
  for (const CacheQuery& query : asked)
    if (query.miss && query.eca->flat != nullptr)
      searches.emplace_back(query.alloc, query.eca->flat.get());
  t0 = Clock::now();
  for (const auto& [alloc, flat] : searches)
    benchmark::DoNotOptimize(solve_binding_flat(cs, *alloc, *flat));
  row.search_s = seconds_since(t0);

  MonotoneFrontier frontier(16);
  t0 = Clock::now();
  for (const CacheQuery& query : asked) {
    const MonotoneFrontier::Key& key = query.eca->key;
    const MonotoneFrontier::Probe probe = frontier.probe(key, *query.alloc);
    if (probe.infeasible) continue;
    if (probe.witness.has_value() && query.eca->flat != nullptr &&
        binding_feasible_flat(cs, *query.alloc, *query.eca->flat,
                              *probe.witness))
      continue;
    frontier.insert(key, *query.alloc,
                    query.verdict.has_value() ? &*query.verdict : nullptr);
  }
  row.cache_s = seconds_since(t0);
}

// ---- stream_filter: ns per emitted subset and per filtered candidate -------

struct StreamFilterRow {
  std::string spec;
  std::size_t units = 0;
  std::uint64_t emitted = 0;     ///< subsets per unbounded pass
  std::uint64_t candidates = 0;  ///< subsets the filter judges per pass
  std::uint64_t dominated = 0;
  double ns_per_emission = 0.0;   ///< median of kReps passes
  double ns_per_candidate = 0.0;  ///< median of kReps passes
};

/// bench_e2e's `tiles-<tiles>x<depth>x2b@<seed>` enum_nested specs.
GeneratorParams tile_params(std::size_t tiles, std::size_t depth,
                            std::uint64_t seed) {
  GeneratorParams p;
  p.seed = seed;
  p.tiles = tiles;
  p.max_depth = depth;
  p.tile_processors = 2;
  p.tile_bus = true;
  return p;
}

std::vector<StreamFilterRow> run_stream_filter() {
  constexpr int kReps = 5;
  constexpr std::size_t kCandidates = std::size_t{1} << 18;
  Result<SpecificationGraph> nested =
      spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/nested.json");
  SDF_CHECK(nested.ok(), "cannot load examples/specs/nested.json");
  std::vector<std::pair<std::string, SpecificationGraph>> specs;
  specs.emplace_back("nested.json", std::move(nested).value());
  specs.emplace_back("tiles-3x2x2b@47", generate_spec(tile_params(3, 2, 47)));
  specs.emplace_back("tiles-2x3x2b@108",
                     generate_spec(tile_params(2, 3, 108)));
  std::vector<StreamFilterRow> rows;
  for (const auto& [name, spec] : specs) {
    const CompiledSpec& cs = spec.compiled();
    StreamFilterRow row{name, cs.unit_count()};
    std::vector<double> stream_ns;
    std::vector<AllocSet> candidates;
    for (int rep = 0; rep < kReps; ++rep) {
      CostOrderedAllocations stream(cs);
      AllocSet out;
      std::uint64_t emitted = 0;
      const auto t0 = Clock::now();
      while (stream.next(out)) {
        benchmark::DoNotOptimize(out);
        ++emitted;
      }
      stream_ns.push_back(seconds_since(t0) * 1e9 /
                          static_cast<double>(emitted));
      row.emitted = emitted;
    }
    CostOrderedAllocations stream(cs);
    AllocSet out;
    while (candidates.size() < kCandidates && stream.next(out))
      if (out.any()) candidates.push_back(out);
    const DominanceContext dominance(cs);
    std::vector<double> filter_ns;
    for (int rep = 0; rep < kReps; ++rep) {
      std::uint64_t dominated = 0;
      const auto t0 = Clock::now();
      for (const AllocSet& a : candidates)
        dominated += obviously_dominated(cs, dominance, a) ? 1 : 0;
      filter_ns.push_back(seconds_since(t0) * 1e9 /
                          static_cast<double>(candidates.size()));
      row.dominated = dominated;
    }
    row.candidates = candidates.size();
    row.ns_per_emission = median_of(stream_ns);
    row.ns_per_candidate = median_of(filter_ns);
    rows.push_back(row);
  }
  return rows;
}

// ---- front_door: seconds per layer before exploration ------------------------

struct FrontDoorRow {
  std::string spec;
  std::uint64_t bytes = 0;
  /// Medians of kReps passes.
  double load_s = 0.0, validate_s = 0.0, compile_s = 0.0, lint_s = 0.0,
         digest_s = 0.0;
  double vm_hwm_mib = 0.0;  ///< after the first pass's compile
};

/// This process's peak resident set so far (VmHWM), MiB; 0 when unknown.
double vm_hwm_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// Writes the preset's spec to `path` from a child process.
void write_preset_file(PlatformPreset preset, std::uint64_t seed,
                       const std::string& path) {
  const pid_t pid = fork();
  SDF_CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    const Result<std::string> text =
        spec_to_string(generate_preset(preset, seed));
    std::ofstream out(path, std::ios::binary);
    if (text.ok()) out << text.value();
    _exit(text.ok() && out.good() ? 0 : 1);
  }
  int status = 0;
  SDF_CHECK(waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                WEXITSTATUS(status) == 0,
            "cannot write the front-door spec");
}

std::vector<FrontDoorRow> run_front_door() {
  constexpr int kReps = 5;
  std::vector<FrontDoorRow> rows;
  for (const PlatformPreset preset :
       {PlatformPreset::kNestedM, PlatformPreset::kNestedXl}) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("sdf_bench_front_door." + std::to_string(getpid()) + ".json"))
            .string();
    write_preset_file(preset, 1, path);
    FrontDoorRow row{std::string(preset_name(preset)) + "@1"};
    std::vector<double> load, validate, compile, lint, digest;
    for (int rep = 0; rep < kReps; ++rep) {
      SpecParseOptions options;
      options.validate = false;
      auto t0 = Clock::now();
      Result<SpecificationGraph> loaded = spec_from_file(path, options);
      load.push_back(seconds_since(t0));
      SDF_CHECK(loaded.ok(), "cannot load the front-door spec");
      const SpecificationGraph& spec = loaded.value();
      t0 = Clock::now();
      SDF_CHECK(spec.validate().ok(), "front-door spec does not validate");
      validate.push_back(seconds_since(t0));
      t0 = Clock::now();
      benchmark::DoNotOptimize(spec.compiled());
      compile.push_back(seconds_since(t0));
      if (rep == 0) row.vm_hwm_mib = vm_hwm_mib();
      t0 = Clock::now();
      SDF_CHECK(lint_errors(spec).errors() == 0, "front-door spec has errors");
      lint.push_back(seconds_since(t0));
      t0 = Clock::now();
      SDF_CHECK(explore_spec_digest(spec).ok(), "front-door digest failed");
      digest.push_back(seconds_since(t0));
    }
    row.bytes = std::filesystem::file_size(path);
    std::filesystem::remove(path);
    row.load_s = median_of(load);
    row.validate_s = median_of(validate);
    row.compile_s = median_of(compile);
    row.lint_s = median_of(lint);
    row.digest_s = median_of(digest);
    rows.push_back(row);
  }
  return rows;
}

std::vector<OverheadRow> run_implementation_overhead() {
  constexpr int kReps = 3;
  std::vector<OverheadRow> rows;
  for (const auto& [preset, seed] :
       {std::pair{PlatformPreset::kBasebandDsp, 3u},
        std::pair{PlatformPreset::kBasebandDsp, 47u},
        std::pair{PlatformPreset::kBasebandDsp, 213u},
        std::pair{PlatformPreset::kSetTopBox, 320u},
        std::pair{PlatformPreset::kSetTopBox, 321u}}) {
    std::vector<AllocSet> attempts;
    {
      const SpecificationGraph spec = generate_preset(preset, seed);
      attempts = implementation_attempts(spec.compiled());
    }
    std::vector<double> total, prepare, cache, search;
    OverheadRow row{preset, seed, attempts.size(), 0, 0, 0, 0, 0, 0};
    for (int rep = 0; rep < kReps; ++rep) {
      {
        // The engine's run-local caches, on a cold spec.
        const SpecificationGraph spec = generate_preset(preset, seed);
        const CompiledSpec& cs = spec.compiled();
        BindCache bind_cache;
        HierCache hier_cache;
        ImplementationOptions options;
        options.bind_cache = &bind_cache;
        options.hier_cache = &hier_cache;
        const auto t0 = Clock::now();
        for (const AllocSet& a : attempts)
          benchmark::DoNotOptimize(build_implementation(cs, a, options));
        total.push_back(seconds_since(t0));
      }
      time_phases(row, attempts);
      prepare.push_back(row.prepare_s);
      cache.push_back(row.cache_s);
      search.push_back(row.search_s);
    }
    row.total_s = median_of(total);
    row.prepare_s = median_of(prepare);
    row.cache_s = median_of(cache);
    row.search_s = median_of(search);
    rows.push_back(row);
  }
  return rows;
}

void print_and_write(const std::vector<FrontDoorRow>& front_door_rows,
                     const std::vector<Row>& rows,
                     const std::vector<KernelRow>& kernel_rows,
                     const std::vector<StreamFilterRow>& stream_rows,
                     const std::vector<OverheadRow>& overhead_rows) {
  bench::section("bitset kernels: ns/op, kernel vs pre-refactor scalar vs "
                 "per-bit naive");
  Table table({"primitive", "bits", "kernel ns", "scalar ns", "naive ns",
               "speedup vs scalar", "speedup vs naive"});
  JsonObject doc;
  doc.emplace_back("bench", Json("kernels"));
  doc.emplace_back("host", bench::host_metadata());
  JsonArray runs;
  for (const Row& r : rows) {
    const double vs_scalar = r.ns_scalar / r.ns_kernel;
    const double vs_naive = r.ns_naive / r.ns_kernel;
    table.add_row({r.primitive, std::to_string(r.bits),
                   format_double(r.ns_kernel, 2), format_double(r.ns_scalar, 2),
                   format_double(r.ns_naive, 2),
                   format_double(vs_scalar, 2) + "x",
                   format_double(vs_naive, 2) + "x"});
    JsonObject run{
        {"primitive", Json(std::string(r.primitive))},
        {"bits", Json(r.bits)},
        {"ns_kernel", Json(r.ns_kernel)},
        {"ns_scalar_baseline", Json(r.ns_scalar)},
        {"ns_naive_reference", Json(r.ns_naive)},
        {"speedup_vs_scalar", Json(vs_scalar)},
        {"speedup_vs_naive", Json(vs_naive)},
    };
    runs.push_back(Json(std::move(run)));
  }
  doc.emplace_back("runs", Json(std::move(runs)));
  std::printf("%s", table.to_ascii().c_str());

  bench::section("binding kernel on baseband-dsp anchors: raw kernel over "
                 "EXPLORE's one-thread queries, median of 3 passes");
  Table kernel_table({"seed", "calls", "nodes", "solve s", "setup s",
                      "ns/node", "setup ns/call"});
  JsonArray kernel_runs;
  for (const KernelRow& r : kernel_rows) {
    kernel_table.add_row(
        {std::to_string(r.seed), std::to_string(r.calls),
         std::to_string(r.nodes), format_double(r.solve_s, 3),
         format_double(r.setup_s, 3), format_double(r.ns_per_node, 1),
         format_double(r.ns_setup_per_call, 1)});
    JsonObject run{
        {"preset", Json("baseband-dsp")},
        {"seed", Json(static_cast<double>(r.seed))},
        {"solver_calls", Json(static_cast<double>(r.calls))},
        {"solver_nodes", Json(static_cast<double>(r.nodes))},
        {"solve_s", Json(r.solve_s)},
        {"setup_s", Json(r.setup_s)},
        {"ns_per_node", Json(r.ns_per_node)},
        {"ns_setup_per_call", Json(r.ns_setup_per_call)},
    };
    kernel_runs.push_back(Json(std::move(run)));
  }
  doc.emplace_back("binding_kernel", Json(std::move(kernel_runs)));
  std::printf("%s", kernel_table.to_ascii().c_str());

  bench::section("cost-ordered stream and §5 filter, one thread: median "
                 "of 5 passes, ns per subset");
  Table stream_table({"spec", "units", "emitted", "ns/emission", "candidates",
                      "dominated", "ns/candidate"});
  JsonArray stream_runs;
  for (const StreamFilterRow& r : stream_rows) {
    stream_table.add_row(
        {r.spec, std::to_string(r.units), std::to_string(r.emitted),
         format_double(r.ns_per_emission, 1), std::to_string(r.candidates),
         std::to_string(r.dominated), format_double(r.ns_per_candidate, 1)});
    JsonObject run{
        {"spec", Json(r.spec)},
        {"units", Json(r.units)},
        {"emitted", Json(static_cast<double>(r.emitted))},
        {"ns_per_emission", Json(r.ns_per_emission)},
        {"candidates", Json(static_cast<double>(r.candidates))},
        {"dominated", Json(static_cast<double>(r.dominated))},
        {"ns_per_candidate", Json(r.ns_per_candidate)},
    };
    stream_runs.push_back(Json(std::move(run)));
  }
  doc.emplace_back("stream_filter", Json(std::move(stream_runs)));
  std::printf("%s", stream_table.to_ascii().c_str());

  bench::section("build_implementation per call, one thread, default "
                 "options: median of 3 cold passes, microseconds");
  Table overhead_table({"preset", "seed", "calls", "queries", "total",
                        "prepare", "cache", "search"});
  JsonArray overhead_runs;
  for (const OverheadRow& r : overhead_rows) {
    const double per_call =
        1e6 / static_cast<double>(std::max<std::size_t>(r.calls, 1));
    overhead_table.add_row(
        {preset_name(r.preset), std::to_string(r.seed),
         std::to_string(r.calls), std::to_string(r.queries),
         format_double(r.total_s * per_call, 1),
         format_double(r.prepare_s * per_call, 1),
         format_double(r.cache_s * per_call, 1),
         format_double(r.search_s * per_call, 1)});
    JsonObject run{
        {"preset", Json(preset_name(r.preset))},
        {"seed", Json(static_cast<double>(r.seed))},
        {"implementation_calls", Json(static_cast<double>(r.calls))},
        {"solver_calls", Json(static_cast<double>(r.queries))},
        {"cache_misses", Json(static_cast<double>(r.misses))},
        {"total_s", Json(r.total_s)},
        {"prepare_s", Json(r.prepare_s)},
        {"cache_probe_s", Json(r.cache_s)},
        {"search_s", Json(r.search_s)},
        {"us_per_call_total", Json(r.total_s * per_call)},
        {"us_per_call_prepare", Json(r.prepare_s * per_call)},
        {"us_per_call_cache_probe", Json(r.cache_s * per_call)},
        {"us_per_call_search", Json(r.search_s * per_call)},
    };
    overhead_runs.push_back(Json(std::move(run)));
  }
  doc.emplace_back("implementation_overhead", Json(std::move(overhead_runs)));
  std::printf("%s", overhead_table.to_ascii().c_str());

  bench::section("front door, one thread: median of 5 passes, seconds per "
                 "layer; peak RSS after the first compile");
  Table front_table({"spec", "bytes", "load s", "validate s", "compile s",
                     "lint s", "digest s", "VmHWM MiB"});
  JsonArray front_runs;
  for (const FrontDoorRow& r : front_door_rows) {
    front_table.add_row(
        {r.spec, std::to_string(r.bytes), format_double(r.load_s, 4),
         format_double(r.validate_s, 4), format_double(r.compile_s, 4),
         format_double(r.lint_s, 4), format_double(r.digest_s, 4),
         format_double(r.vm_hwm_mib, 1)});
    JsonObject run{
        {"spec", Json(r.spec)},
        {"bytes", Json(static_cast<double>(r.bytes))},
        {"load_s", Json(r.load_s)},
        {"validate_s", Json(r.validate_s)},
        {"compile_s", Json(r.compile_s)},
        {"lint_s", Json(r.lint_s)},
        {"digest_s", Json(r.digest_s)},
        {"vm_hwm_after_compile_mib", Json(r.vm_hwm_mib)},
    };
    front_runs.push_back(Json(std::move(run)));
  }
  doc.emplace_back("front_door", Json(std::move(front_runs)));
  std::ofstream out("BENCH_kernels.json");
  out << Json(std::move(doc)).dump(2) << '\n';
  std::printf("%swrote BENCH_kernels.json\n",
              front_table.to_ascii().c_str());
}

// ---- --smoke: the deterministic CI gate ------------------------------------

int fail(const char* what, std::size_t bits) {
  std::fprintf(stderr, "SMOKE FAIL: %s at %zu bits\n", what, bits);
  return 1;
}

/// Correctness (kernel == naive on random universes, word-boundary sizes
/// included) plus the count-based work model: a kernel touches
/// ceil(bits/64) words where the reference touches `bits` bits, so modeled
/// kernel work must be strictly below modeled reference work for every
/// multi-bit universe.  No wall-clock anywhere.
int run_smoke() {
  std::mt19937_64 rng(20260809);
  const std::size_t sizes[] = {2,  24,  63,  64,  65,  127, 128,
                               129, 192, 256, 320, 1000};
  for (const std::size_t bits : sizes) {
    const std::size_t words = (bits + 63) / 64;
    if (words >= bits) return fail("work model: words !< bits", bits);
    for (int round = 0; round < 64; ++round) {
      const Workload w = make_workload(bits, rng());
      const std::size_t i =
          static_cast<std::size_t>(rng() % kPairs) * words;
      const std::uint64_t* a = w.a.data() + i;
      const std::uint64_t* b = w.b.data() + i;
      const std::uint64_t* c = w.c.data() + i;
      if (bitkernel::popcount_words(a, words) != naive::count(a, bits))
        return fail("count", bits);
      std::size_t ref_intersect = 0;
      for (std::size_t p = 0; p < bits; ++p)
        ref_intersect += (naive::test(a, p) && naive::test(b, p)) ? 1 : 0;
      if (bitkernel::intersect_count_words(a, b, words) != ref_intersect)
        return fail("intersect_count", bits);
      if (bitkernel::intersects_words(a, b, words) !=
          naive::intersects(a, b, bits))
        return fail("intersects", bits);
      if (bitkernel::intersects3_words(a, b, c, words) !=
          naive::intersects3(a, b, c, bits))
        return fail("intersects3", bits);
      if (bitkernel::subset_words(a, b, words) != naive::subset(a, b, bits))
        return fail("subset", bits);
      if (bitkernel::any_words(a, words) != (naive::count(a, bits) != 0))
        return fail("any", bits);
    }
  }
  std::printf("bench_kernels --smoke: kernels match the per-bit reference "
              "and beat it in the count-based work model\n");
  return 0;
}

// ---- google-benchmark registrations (informational) ------------------------

void BM_KernelIntersects3(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const Workload w = make_workload(bits, 7);
  const std::vector<DynBitset> a = materialize<DynBitset>(w.a, bits, w.words);
  const std::vector<DynBitset> b = materialize<DynBitset>(w.b, bits, w.words);
  const std::vector<DynBitset> c = materialize<DynBitset>(w.c, bits, w.words);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t p = i++ % kPairs;
    benchmark::DoNotOptimize(DynBitset::intersects(a[p], b[p], c[p]));
  }
}
BENCHMARK(BM_KernelIntersects3)->Arg(64)->Arg(320);

void BM_OldScalarIntersects3(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const Workload w = make_workload(bits, 7);
  const std::vector<OldDynBitset> a =
      materialize<OldDynBitset>(w.a, bits, w.words);
  const std::vector<OldDynBitset> b =
      materialize<OldDynBitset>(w.b, bits, w.words);
  const std::vector<OldDynBitset> c =
      materialize<OldDynBitset>(w.c, bits, w.words);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t p = i++ % kPairs;
    benchmark::DoNotOptimize(OldDynBitset::intersects(a[p], b[p], c[p]));
  }
}
BENCHMARK(BM_OldScalarIntersects3)->Arg(64)->Arg(320);

}  // namespace
}  // namespace sdf

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) return sdf::run_smoke();
  // The front door first: its peak RSS must be its own.
  std::vector<sdf::FrontDoorRow> front_door = sdf::run_front_door();
  sdf::print_and_write(front_door, sdf::run_timings(),
                       sdf::run_binding_kernel(),
                       sdf::run_stream_filter(),
                       sdf::run_implementation_overhead());
  return sdf::bench::run_benchmarks(argc, argv);
}
