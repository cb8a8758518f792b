#!/usr/bin/env bash
# Data-race check for multi-thread EXPLORE: builds the concurrency-
# relevant tests with ThreadSanitizer in a dedicated tree (sanitizers need
# whole-program instrumentation) and runs them.
#
#   scripts/check_tsan.sh            # -fsanitize=thread
#   SDF_SANITIZE=address scripts/check_tsan.sh   # AddressSanitizer instead
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZER="${SDF_SANITIZE:-thread}"
BUILD="build-${SANITIZER}san"
TESTS=(util_test dyn_bitset_test explore_test bind_test bind_cache_test
       explore_threads_test anytime_test fault_injection_test
       incremental_test)

cmake -B "$BUILD" -DSDF_SANITIZE="$SANITIZER"
cmake --build "$BUILD" --target "${TESTS[@]}" -j "$(nproc)"

# Run every test even after a failure, so one failing test cannot hide
# another; the exit status names them all.
failed=()
for t in "${TESTS[@]}"; do
  echo "==================== $t (${SANITIZER}san) ===================="
  "$BUILD/tests/$t" || failed+=("$t")
done
if [ "${#failed[@]}" -ne 0 ]; then
  echo "SANITIZER CHECKS FAILED (${SANITIZER}): ${failed[*]}" >&2
  exit 1
fi
echo "SANITIZER CHECKS PASSED (${SANITIZER})"
