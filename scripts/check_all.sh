#!/usr/bin/env bash
# Single entry point for every local gate, in cheap-to-expensive order:
#
#   1. scripts/check.sh        build, ctest, benches, ASan+UBSan suite
#   2. scripts/check_tsan.sh   ThreadSanitizer over the concurrency tests
#   3. fault injection         SDF_FAULT_INJECTION=ON + TSan, armed-site tests
#   4. fuzz harnesses          front-door parsers under ASan+UBSan, ~60s each
#   5. scripts/check_tidy.sh   clang-tidy profile (skips if not installed)
#   6. bench_e2e               the benchmark's own CMake project and tests
#   7. sdf lint                zero-diagnostic gate over examples/specs/
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

echo "==================== bench_e2e: build and replay tests ===================="
# bench_e2e/ is a separate CMake project over src/ that no other stage
# builds, so an API change that breaks it would first show as a failed
# benchmark run.  run.py --test builds it into .bench_build/ (Release) and
# runs its e2e_test: the layer-timed replay must agree with explore(), the
# fronts committed in bench_e2e/expected_fronts.json must hold, and the
# printed metric names must match BENCHMARK.json.
python3 bench_e2e/run.py --test

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
# too does a spec that decomposes run the uncached kernel.  8 threads
# oversubscribe a 4-core host: the band pool's workers then share cores.
extract_front() {
  python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["front"], indent=1))'
}
for spec in examples/specs/*.json; do
  "$SDF" explore --json --no-stats --threads 1 "$spec" \
    | extract_front > /tmp/sdf_front_ref.$$
  for threads in 1 4 8; do
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

echo "============ binding kernel: search trees on the deep-solve anchors ============"
# baseband-dsp seeds 3, 47 and 213 and settop-box seeds 320 and 321 are
# bench_e2e's solve_presets anchors: 1-2M solver nodes each on the
# baseband seeds, 12-15k mostly cached queries on the settop-box seeds.  A
# kernel or cache change may make a node or a query cheaper, never change
# which nodes are searched or which queries a cache answers: each
# one-thread run must print its front and exactly these solver and cache
# counters.  About 1 s per baseband anchor in Release, too slow for ctest
# under the sanitizers.
for anchor in baseband-dsp:3 baseband-dsp:47 baseband-dsp:213 \
              settop-box:320 settop-box:321; do
  preset=${anchor%:*}
  seed=${anchor#*:}
  echo "kernel anchor $preset seed $seed"
  "$SDF" generate --preset="$preset" --seed="$seed" > /tmp/sdf_anchor.$$
  "$SDF" explore --threads 1 --json /tmp/sdf_anchor.$$ > /tmp/sdf_anchor_out.$$
  python3 - /tmp/sdf_anchor_out.$$ "$anchor" <<'PY'
import json, sys
FRONTS = {
    "baseband-dsp:3": [(222, 10), (344, 12), (385, 16), (469, 17), (507, 26),
                       (510, 28), (623, 31), (632, 33), (748, 35)],
    "baseband-dsp:47": [(146, 2), (487, 5), (552, 6), (630, 7), (633, 9),
                        (644, 11), (725, 13), (808, 14), (1013, 15)],
    "baseband-dsp:213": [(73, 23), (151, 24), (241, 25), (243, 29), (321, 30),
                         (354, 34), (426, 37), (586, 39), (641, 41)],
    "settop-box:320": [(101, 11)],
    "settop-box:321": [(150, 11), (296, 12), (437, 13), (439, 15), (755, 16),
                       (812, 17), (990, 18)],
}
KEYS = ("solver_calls", "solver_nodes", "cache_hits_feasible",
        "cache_hits_infeasible", "cache_revalidations", "hier_subsolves",
        "cache_entries", "flat_cache_entries")
COUNTERS = {
    "baseband-dsp:3": (48014, 2416964, 8578, 0, 8578, 0, 8570, 185),
    "baseband-dsp:47": (70307, 1167316, 5978, 0, 5978, 0, 5095, 42),
    "baseband-dsp:213": (100116, 1224150, 70431, 0, 70431, 0, 3221, 162),
    "settop-box:320": (14688, 2209, 14178, 0, 14178, 0, 72, 36),
    "settop-box:321": (12672, 25494, 10364, 0, 10364, 0, 300, 48),
}
doc = json.load(open(sys.argv[1]))
anchor = sys.argv[2]
front = [(p["cost"], p["flexibility"]) for p in doc["front"]]
assert front == FRONTS[anchor], f"front {front}"
stats = doc["stats"]
got = tuple(stats[k] for k in KEYS)
want = COUNTERS[anchor]
assert got == want, "counters differ: " + ", ".join(
    f"{k} {g} (expected {w})" for k, g, w in zip(KEYS, got, want) if g != w)
print(f"  {stats['solver_calls']} calls, {stats['solver_nodes']} nodes, "
      f"{stats['cache_hits_feasible']} feasible cache hits, "
      f"wall {stats['wall_seconds']:.2f} s")
PY
done
rm -f /tmp/sdf_anchor.$$ /tmp/sdf_anchor_out.$$

echo "============ deadline gate: nested presets return at their deadline ============"
# EXPLORE cannot finish nested-s or nested-m, so a --deadline-ms run must
# stop itself: the deadline, not the frontier it leaves behind, decides when
# it returns.  Asserted per preset and seed: it stops for the deadline,
# explore()'s own wall time ends within max(100 ms, 10%) of it, the partial
# front lies strictly below its certificate, and the process's peak RSS
# stays under a fixed cap.  nested-xl (23 MB) returns after 0.252-0.256 s
# at 41-49 MiB, within both limits only while the spec index keeps each
# decomposition group's subtree as intervals (bitsets as wide as the
# problem graph took loading to 117 MiB) and the stop path reuses the spec
# digest that `sdf explore` takes before a budgeted run: hashing the 23 MB
# at the stop returned after 0.28-0.35 s on a loaded 4-core host.
for preset_seed in nested-s:1 nested-s:2 nested-m:1 nested-m:2 nested-xl:1; do
  preset=${preset_seed%:*}
  seed=${preset_seed#*:}
  echo "deadline gate $preset seed $seed"
  "$SDF" generate --preset="$preset" --seed="$seed" > /tmp/sdf_nested.$$
  python3 - "$SDF" /tmp/sdf_nested.$$ "$preset" <<'PY'
import json, resource, subprocess, sys
DEADLINE_S = 0.25
# Measured 18-21 MiB for nested-s seeds 1 and 2 and 25-28 MiB for nested-m
# seeds 1 and 2, 4 runs each (4-core x86-64 Xeon, GCC 12, Release), with
# the stream storing one chain head for a state's unexpanded siblings.
# Pushing every child at once peaked at 43-64 MiB on nested-s and
# 75-99 MiB on nested-m; a stop path that copies and sorts the frontier
# state by state peaked at 174-189 MiB on nested-s and returned after
# 0.8-1.0 s.  nested-xl seed 1 peaked at 41.4-48.5 MiB in 12 runs
# (RelWithDebInfo, same host); its cap is the highest plus 25 %.
RSS_CAP_MIB = 61 if sys.argv[3] == "nested-xl" else 64
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
# With --checkpoint the stop path also writes the file.  At 2 s nested-s
# seed 1 leaves a frontier that stands for about 10M states, past what a
# resume reads: the writer counts that from the chain heads and refuses
# before writing any out, so the process returns within the same slack,
# exits 1 naming the cap, and leaves no file.  It returned after 2.03 s
# (4-core x86-64 Xeon, GCC 12, RelWithDebInfo); writing the chains out
# first took 12.7 s and 319 MiB.
"$SDF" generate --preset=nested-s --seed=1 > /tmp/sdf_nested.$$
echo "deadline gate nested-s seed 1 with --checkpoint"
python3 - "$SDF" /tmp/sdf_nested.$$ /tmp/sdf_nested_ck.$$ <<'PY'
import os, subprocess, sys, time
sdf, spec, ck = sys.argv[1:4]
DEADLINE_S = 2.0
limit = DEADLINE_S + max(0.1, 0.1 * DEADLINE_S)
start = time.perf_counter()
run = subprocess.run([sdf, "explore", "--deadline-ms=2000", "--no-stats",
                      "--checkpoint=" + ck, spec], capture_output=True,
                     text=True)
wall = time.perf_counter() - start
assert run.returncode == 1, f"exit {run.returncode}, expected 1: {run.stderr}"
assert "max_nodes (8388608)" in run.stderr, run.stderr
assert not os.path.exists(ck), "a refused checkpoint was left behind"
assert wall <= limit, f"returned after {wall:.3f} s, limit {limit:.3f} s"
print(f"  returned after {wall:.3f} s: {run.stderr.strip()}")
PY
rm -f /tmp/sdf_nested.$$ /tmp/sdf_nested_ck.$$

echo "============ checkpoint round trip: written files resume, unreadable ones are refused ============"
# The checkpoint file is streamed through JsonWriter, so writing it needs
# memory for the frontier the run holds, not for the text.  At
# deterministic allocation caps, not deadlines:
#   1. nested-s seed 1 after 100,000 allocations writes an 85 MB file, and
#      a --resume from it for one more allocation must load it and stop for
#      its budget again (exit 3);
#   2. nested-m seed 1 after 70,000 allocations would write 236 MB holding
#      more values than a resume reads (JsonLimits::ingest_defaults()): the
#      run must exit 1 naming the limit and leave no file behind.
# Both writes stay under a fixed RSS cap.  Measured 28 and 59 MiB (4-core
# x86-64 Xeon, GCC 12, RelWithDebInfo); building the text as a DOM and one
# string took 433 and 1,061 MiB, and the second file was offered for a
# --resume that refused it.
"$SDF" generate --preset=nested-s --seed=1 > /tmp/sdf_ck_nested_s.$$
"$SDF" generate --preset=nested-m --seed=1 > /tmp/sdf_ck_nested_m.$$
python3 - "$SDF" /tmp/sdf_ck_nested_s.$$ /tmp/sdf_ck_nested_m.$$ \
    /tmp/sdf_ck_file.$$ <<'PY'
import os, resource, subprocess, sys
sdf, nested_s, nested_m, ck = sys.argv[1:5]
RSS_CAP_MIB = 128

def explore(spec, *flags):
    return subprocess.run([sdf, "explore", "--no-stats", "--checkpoint=" + ck,
                           *flags, spec], capture_output=True, text=True)

def peak_rss_mib():
    # The largest of the children waited for so far.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

run = explore(nested_s, "--max-allocations=100000")
assert run.returncode == 3, f"exit {run.returncode}, expected 3: {run.stderr}"
assert os.path.getsize(ck) > 0, "no checkpoint written"
rss_write = peak_rss_mib()
assert rss_write <= RSS_CAP_MIB, (
    f"write peak RSS {rss_write:.0f} MiB > {RSS_CAP_MIB}")
print(f"  nested-s: {os.path.getsize(ck) / 1e6:.0f} MB written at "
      f"{rss_write:.0f} MiB peak RSS")

os.rename(ck, ck + ".s")
run = explore(nested_m, "--max-allocations=70000")
assert run.returncode == 1, f"exit {run.returncode}, expected 1: {run.stderr}"
assert "max_nodes (8388608)" in run.stderr, run.stderr
assert "--resume" not in run.stderr, run.stderr
assert not os.path.exists(ck), "a refused checkpoint was left behind"
rss_refused = peak_rss_mib()
assert rss_refused <= RSS_CAP_MIB, (
    f"refused write peak RSS {rss_refused:.0f} MiB > {RSS_CAP_MIB}")
print(f"  nested-m: refused at {rss_refused:.0f} MiB peak RSS: "
      f"{run.stderr.strip()}")

os.rename(ck + ".s", ck)
run = explore(nested_s, "--max-allocations=1", "--resume")
assert run.returncode == 3, (
    f"resume exit {run.returncode}, expected 3: {run.stderr}")
os.remove(ck)
PY
rm -f /tmp/sdf_ck_nested_s.$$ /tmp/sdf_ck_nested_m.$$ /tmp/sdf_ck_file.$$ \
      /tmp/sdf_ck_file.$$.s

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

echo "============ activation limit: an allocation past it is refused at once ============"
# A construction enumerates at most 4,096 elementary cluster activations
# (kEcaLimit) and refuses an allocation that admits more, counting them
# arithmetically first.  nested-s seed 1's full allocation admits
# 1,048,576: `sdf sensitivity` must exit 1 within 1 s, naming the count and
# the limit.  Judging the first 4,096 instead printed f = 46 after 18.6 s,
# where 65,536 activations reach 61 (4-core host, Release).
"$SDF" generate --preset=nested-s --seed=1 > /tmp/sdf_limit.$$
python3 - "$SDF" /tmp/sdf_limit.$$ <<'PY'
import subprocess, sys, time
start = time.perf_counter()
run = subprocess.run([sys.argv[1], "sensitivity", sys.argv[2]],
                     capture_output=True, text=True)
wall = time.perf_counter() - start
assert run.returncode == 1, f"exit {run.returncode}, expected 1: {run.stderr}"
assert "1048576" in run.stderr and "4096" in run.stderr, run.stderr
assert wall <= 1.0, f"refused after {wall:.3f} s, limit 1 s"
print(f"  refused after {wall:.3f} s: {run.stderr.strip()}")
PY
rm -f /tmp/sdf_limit.$$

echo "============ front door: load time linear in the spec's bytes ============"
# nested-xl has 8.9x the bytes of nested-m.  `sdf validate` (load, compile,
# lint) on it may take at most 15x as long, best of 3 each: a ratio needs
# no host-specific threshold.  A quadratic name lookup in the reader gave
# 32.5-34.7, hashed names 9.3-14.1 (4-core x86-64 Xeon, GCC 12,
# RelWithDebInfo).  Then a budgeted
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

echo "============ static analyzer: sound bounds ============"
# Asserted per example spec: the solved front lies inside the analyzer's
# whole-spec cost interval (every front point costs at least the root lower
# bound — the bound is a theorem, so a violation is a bug, not noise).
for spec in examples/specs/*.json; do
  echo "analyze gate $spec"
  "$SDF" analyze --json "$spec" > /tmp/sdf_analysis.$$
  "$SDF" explore --json --no-stats "$spec" \
    | extract_front > /tmp/sdf_front_default.$$
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
rm -f /tmp/sdf_analysis.$$ /tmp/sdf_front_default.$$

echo "ALL GATES PASSED"
