#!/usr/bin/env bash
# Single entry point for every local gate, in cheap-to-expensive order:
#
#   1. scripts/check.sh        build, ctest, benches, ASan+UBSan suite
#   2. scripts/check_tsan.sh   ThreadSanitizer over the concurrency tests
#   3. fault injection         SDF_FAULT_INJECTION=ON + TSan, armed-site tests
#   4. fuzz harnesses          front-door parsers under ASan+UBSan, ~60s each
#   5. scripts/check_tidy.sh   clang-tidy profile (skips if not installed)
#   6. sdf lint                zero-diagnostic gate over examples/specs/
set -euo pipefail
cd "$(dirname "$0")/.."

scripts/check.sh
scripts/check_tsan.sh

echo "==================== fault injection (tsan) ===================="
# Dedicated tree: the injection points are compiled in only here, so the
# production build stays injection-free.  TSan proves the pool's unwind
# paths (throwing worker, bad_alloc, delayed task) are race-free.
FAULT_BUILD=build-faultsan
FAULT_TESTS=(fault_injection_test explore_threads_test anytime_test bind_cache_test)
cmake -B "$FAULT_BUILD" -DSDF_FAULT_INJECTION=ON -DSDF_SANITIZE=thread
cmake --build "$FAULT_BUILD" --target "${FAULT_TESTS[@]}" -j "$(nproc)"
fault_failed=()
for t in "${FAULT_TESTS[@]}"; do
  echo "-------------------- $t (fault+tsan) --------------------"
  "$FAULT_BUILD/tests/$t" || fault_failed+=("$t")
done
if [ "${#fault_failed[@]}" -ne 0 ]; then
  echo "check_all: fault+tsan failed: ${fault_failed[*]}" >&2
  exit 1
fi

echo "==================== fuzz harnesses (asan+ubsan) ===================="
# Continuous fuzzing of the untrusted front doors: the spec parser
# (differential single-shot vs chunked), the lint pipeline, and the
# checkpoint loader.  Reuses the instrumented tree check.sh built, so
# crashes, leaks, and UB all abort.  ~60s per harness (override with
# SDF_FUZZ_TIME); the standalone driver uses a fixed seed, so a CI failure
# reproduces locally.  On a crash the reproducer is copied into
# fuzz/corpus/<harness>/ — commit it, and every future run replays it.
FUZZ_BUILD=build-addresssan
cmake -B "$FUZZ_BUILD" -DSDF_SANITIZE=address -DSDF_FUZZ=ON
cmake --build "$FUZZ_BUILD" --target fuzz_spec_parse fuzz_lint fuzz_checkpoint \
  -j "$(nproc)"
FUZZ_TIME="${SDF_FUZZ_TIME:-60}"
rm -f crash-*.bin
for h in spec_parse lint checkpoint; do
  echo "-------------------- fuzz_$h (${FUZZ_TIME}s) --------------------"
  if ! UBSAN_OPTIONS=halt_on_error=1 \
      "$FUZZ_BUILD/fuzz/fuzz_$h" -max_total_time="$FUZZ_TIME" \
      "fuzz/corpus/$h"; then
    cp -v crash-*.bin "fuzz/corpus/$h/" 2>/dev/null || true
    echo "check_all: fuzz_$h failed; reproducers copied to fuzz/corpus/$h" >&2
    exit 1
  fi
done

scripts/check_tidy.sh

echo "==================== kernel perf smoke ===================="
# Count-based, not wall-clock: asserts every bitset kernel agrees with a
# per-bit reference on word-boundary sizes AND touches fewer words than the
# per-bit model (ceil(bits/64) < bits).  Deterministic, so it cannot flake
# on a loaded CI box the way a timing threshold would.
KERNEL_BENCH=build/bench/bench_kernels
if [ ! -x "$KERNEL_BENCH" ]; then
  echo "check_all: $KERNEL_BENCH missing after check.sh" >&2
  exit 1
fi
"$KERNEL_BENCH" --smoke

echo "==================== sdf lint examples/specs ===================="
SDF=build/tools/sdf
if [ ! -x "$SDF" ]; then
  echo "check_all: $SDF missing after check.sh" >&2
  exit 1
fi
for spec in examples/specs/*.json; do
  echo "lint $spec"
  "$SDF" lint "$spec"
done

echo "==== front equivalence: threads x (default, --no-bind-cache, --no-hier, both) ===="
# The binding cache and the hierarchical solve path may only change work
# counters, never verdicts, and the thread count may only change work
# accounting, never the front.  Every (threads, mode) combination must give
# a JSON front byte-identical to the default run at one thread.  Only the
# "front" key is compared: stats legitimately differ (wall time, cache and
# band counters).  settop/decoder exercise hier's not-decomposable
# fallback, nested.json its real per-group path.  --no-bind-cache alone
# still takes the hierarchical path on nested.json; only with --no-hier
# too does a spec that decomposes run the uncached kernel.
extract_front() {
  python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["front"], indent=1))'
}
for spec in examples/specs/*.json; do
  "$SDF" explore --json --no-stats --threads 1 "$spec" \
    | extract_front > /tmp/sdf_front_ref.$$
  for threads in 1 4; do
    for mode in "" --no-bind-cache --no-hier "--no-bind-cache --no-hier"; do
      echo "front diff (threads=$threads ${mode:-default}) $spec"
      "$SDF" explore --json --no-stats --threads "$threads" $mode "$spec" \
        | extract_front > /tmp/sdf_front_cmp.$$
      diff -u /tmp/sdf_front_ref.$$ /tmp/sdf_front_cmp.$$ || {
        echo "check_all: front differs for $spec (threads=$threads ${mode:-default})" >&2
        exit 1
      }
    done
  done
done
rm -f /tmp/sdf_front_ref.$$ /tmp/sdf_front_cmp.$$

# The equivalence above would be vacuous if the hierarchical path silently
# never engaged: assert it actually decomposes nested.json (sub-solves > 0)
# and correctly stands down on the paper models (sub-solves == 0).
"$SDF" explore --json examples/specs/nested.json | python3 -c '
import json, sys
stats = json.load(sys.stdin)["stats"]
assert stats["hier_subsolves"] > 0, "hier path never engaged on nested.json"
assert stats["solver_nodes"] < stats["solver_calls"], (
    "per-group memoization should need fewer nodes than queries on nested.json")
'
"$SDF" explore --json examples/specs/settop.json | python3 -c '
import json, sys
stats = json.load(sys.stdin)["stats"]
assert stats["hier_subsolves"] == 0, "hier path engaged on a flat-only spec"
'

echo "============ deadline gate: nested presets return at their deadline ============"
# EXPLORE cannot finish nested-s or nested-m, so a --deadline-ms run must
# stop itself: the deadline, not the frontier it leaves behind, decides when
# it returns.  Asserted per preset and seed: it stops for the deadline,
# explore()'s own wall time ends within max(100 ms, 10%) of it, the partial
# front lies strictly below its certificate, and the process's peak RSS
# stays under a fixed cap.  nested-xl is left out: it returns after
# 0.34-0.40 s at 181-245 MiB, and loading it alone peaks at 118 MiB (see
# ROADMAP.md).
for preset_seed in nested-s:1 nested-s:2 nested-m:1 nested-m:2; do
  preset=${preset_seed%:*}
  seed=${preset_seed#*:}
  echo "deadline gate $preset seed $seed"
  "$SDF" generate --preset="$preset" --seed="$seed" > /tmp/sdf_nested.$$
  python3 - "$SDF" /tmp/sdf_nested.$$ <<'PY'
import json, resource, subprocess, sys
DEADLINE_S = 0.25
# Measured 49-64 MiB for nested-s seeds 1 and 2 and 75-99 MiB (0.28 s) for
# nested-m seeds 1 and 2 (4-core x86-64 Xeon, GCC 12, Release).  A stop path
# that copies and sorts the frontier state by state peaked at 174-189 MiB
# on nested-s and returned after 0.8-1.0 s.
RSS_CAP_MIB = 128
run = subprocess.run([sys.argv[1], "explore", "--deadline-ms=250", "--json",
                      sys.argv[2]], capture_output=True, text=True)
assert run.returncode == 3, f"exit {run.returncode}, expected 3: {run.stderr}"
doc = json.loads(run.stdout)
stats = doc["stats"]
assert stats["stop_reason"] == "deadline", stats["stop_reason"]
limit = DEADLINE_S + max(0.1, 0.1 * DEADLINE_S)
assert stats["wall_seconds"] <= limit, (
    f"returned after {stats['wall_seconds']:.3f} s, limit {limit:.3f} s")
for point in doc["front"]:
    assert point["cost"] < stats["exact_up_to_cost"], (
        f"front point at {point['cost']} not below the certificate "
        f"{stats['exact_up_to_cost']}")
rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert rss_mib <= RSS_CAP_MIB, f"peak RSS {rss_mib:.0f} MiB > {RSS_CAP_MIB}"
print(f"  wall {stats['wall_seconds']:.3f} s, peak RSS {rss_mib:.0f} MiB, "
      f"exact below {stats['exact_up_to_cost']:g}")
PY
done
rm -f /tmp/sdf_nested.$$

echo "============ deadline gate: finishing presets keep their front ============"
# A deadline the run never reaches may change nothing.  settop-box,
# automotive-ecu and baseband-dsp seed 1 complete in 0.001-0.04 s, so at
# --deadline-ms 250 each must exit 0, report stop_reason "completed" and
# print the same front as its run without a deadline.
for preset in settop-box automotive-ecu baseband-dsp; do
  echo "deadline gate $preset seed 1"
  "$SDF" generate --preset="$preset" --seed=1 > /tmp/sdf_preset.$$
  python3 - "$SDF" /tmp/sdf_preset.$$ <<'PY'
import json, subprocess, sys

def explore(*flags):
    run = subprocess.run([sys.argv[1], "explore", "--json", *flags,
                          sys.argv[2]], capture_output=True, text=True)
    assert run.returncode == 0, f"exit {run.returncode}, expected 0: {run.stderr}"
    return json.loads(run.stdout)

free = explore()
timed = explore("--deadline-ms=250")
assert timed["stats"]["stop_reason"] == "completed", timed["stats"]["stop_reason"]
assert timed["front"] == free["front"], "the deadline changed the front"
print(f"  wall {timed['stats']['wall_seconds']:.3f} s, "
      f"{len(timed['front'])} front points")
PY
done
rm -f /tmp/sdf_preset.$$

echo "============ front door: load time linear in the spec's bytes ============"
# nested-xl has 8.9x the bytes of nested-m.  `sdf validate` (load, compile,
# lint) on it may take at most 15x as long, best of 3 each: a ratio needs
# no host-specific threshold.  A quadratic name lookup in the reader gave
# 32.5-34.7, hashed names 9.3-14.1 (4-core x86-64 Xeon, GCC 12,
# RelWithDebInfo; compile and lint still grow faster than the bytes, see
# ROADMAP.md).  Then a budgeted
# explore --json on nested-xl must stop for its budget and print strict
# JSON: its raw design-point count (2^1057) overflows a double, and JSON
# has no spelling for infinity.
"$SDF" generate --preset=nested-m --seed=1 > /tmp/sdf_nested_m.$$
"$SDF" generate --preset=nested-xl --seed=1 > /tmp/sdf_nested_xl.$$
python3 - "$SDF" /tmp/sdf_nested_m.$$ /tmp/sdf_nested_xl.$$ <<'PY'
import json, os, subprocess, sys, time
sdf, small, large = sys.argv[1:4]
MAX_TIME_RATIO = 15

def best_of_3(path):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sdf, "validate", path], stdout=subprocess.DEVNULL,
                       check=True)
        best = min(best, time.perf_counter() - start)
    return best

t_small, t_large = best_of_3(small), best_of_3(large)
ratio = t_large / t_small
print(f"  validate nested-m {t_small:.3f} s, nested-xl {t_large:.3f} s: "
      f"time ratio {ratio:.1f}, byte ratio "
      f"{os.path.getsize(large) / os.path.getsize(small):.1f}")
assert ratio <= MAX_TIME_RATIO, f"time ratio {ratio:.1f} > {MAX_TIME_RATIO}"

def reject(constant):
    raise ValueError(f"not JSON: {constant}")

run = subprocess.run([sdf, "explore", "--max-allocations=64", "--json",
                      large], capture_output=True, text=True)
assert run.returncode == 3, f"exit {run.returncode}, expected 3: {run.stderr}"
stats = json.loads(run.stdout, parse_constant=reject)["stats"]
assert stats["stop_reason"] == "allocations", stats["stop_reason"]
assert stats["raw_design_points"] is None, stats["raw_design_points"]
PY
rm -f /tmp/sdf_nested_m.$$ /tmp/sdf_nested_xl.$$

echo "============ static analyzer: sound bounds, identical fronts ============"
# Two contracts, asserted per example spec:
#   1. The solved front lies inside the analyzer's whole-spec cost interval
#      (every front point costs at least the root lower bound — the bound
#      is a theorem, so a violation is a bug, not noise).
#   2. The analyzer may only remove solver work, never change results: the
#      JSON front with --no-analysis and with --analysis-bound must be
#      byte-identical to the default run.
for spec in examples/specs/*.json; do
  echo "analyze gate $spec"
  "$SDF" analyze --json "$spec" > /tmp/sdf_analysis.$$
  "$SDF" explore --json --no-stats "$spec" \
    | extract_front > /tmp/sdf_front_default.$$
  "$SDF" explore --json --no-stats --no-analysis "$spec" \
    | extract_front > /tmp/sdf_front_noanalysis.$$
  "$SDF" explore --json --no-stats --analysis-bound "$spec" \
    | extract_front > /tmp/sdf_front_abound.$$
  diff -u /tmp/sdf_front_default.$$ /tmp/sdf_front_noanalysis.$$ || {
    echo "check_all: --no-analysis changed the front for $spec" >&2
    exit 1
  }
  diff -u /tmp/sdf_front_default.$$ /tmp/sdf_front_abound.$$ || {
    echo "check_all: --analysis-bound changed the front for $spec" >&2
    exit 1
  }
  python3 - /tmp/sdf_analysis.$$ /tmp/sdf_front_default.$$ <<'PY'
import json, sys
analysis = json.load(open(sys.argv[1]))
front = json.load(open(sys.argv[2]))
roots = [c for c in analysis["clusters"] if c["root"]]
assert len(roots) == 1, "expected exactly one root cluster"
lo = roots[0]["lo"]
for point in front:
    assert point["cost"] >= lo - 1e-9, (
        f"front point at cost {point['cost']} below analyzer bound {lo}")
if front:
    assert roots[0]["reachable"], "nonempty front but root declared dead"
PY
done
rm -f /tmp/sdf_analysis.$$ /tmp/sdf_front_default.$$ \
      /tmp/sdf_front_noanalysis.$$ /tmp/sdf_front_abound.$$

echo "ALL GATES PASSED"
