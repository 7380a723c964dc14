#!/usr/bin/env bash
# Tier-1 verification: lint, warning-clean build (-Werror), full test suite,
# then the sanitizer matrix — ASan+UBSan over the whole ctest suite and a
# TSan pass over the concurrency-sensitive tests (QPP_SANITIZE instruments
# the whole tree; see CMakeLists.txt).
#
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan-ubsan] [--skip-lint]
#                         [--skip-concur]
#        scripts/tier1.sh --asan   # only the ASan+UBSan suite (for repro)
#        scripts/tier1.sh --ubsan  # alias for --asan (one combined build)
#        scripts/tier1.sh --tsan   # only the TSan pass
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
RUN_MAIN=1
RUN_LINT=1
RUN_CONCUR=1
RUN_ASAN_UBSAN=1
RUN_TSAN=1
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) RUN_TSAN=0 ;;
    --skip-asan-ubsan) RUN_ASAN_UBSAN=0 ;;
    --skip-lint) RUN_LINT=0 ;;
    --skip-concur) RUN_CONCUR=0 ;;
    --asan|--ubsan) RUN_MAIN=0; RUN_LINT=0; RUN_CONCUR=0; RUN_TSAN=0 ;;
    --tsan) RUN_MAIN=0; RUN_LINT=0; RUN_CONCUR=0; RUN_ASAN_UBSAN=0 ;;
    *) echo "tier1: unknown flag $arg" >&2; exit 2 ;;
  esac
done

# Repo-invariant linter first: it is fast and catches policy violations
# (atomic<shared_ptr>, submit-under-lock, unseeded RNG, lossy float
# serialization, naked new, unbounded member containers, blocking calls on
# the reactor thread) before a long compile. clang-tidy runs too when
# the binary exists; scripts/lint.sh degrades gracefully when it does not.
if [[ $RUN_LINT -eq 1 ]]; then
  scripts/lint.sh
fi

# Whole-program concurrency analyzer (scripts/qpp_concur): cross-function
# lock-order cycles, transitive blocking-calls-under-lock, atomic
# memory-order discipline / RCU publication pairing, and CMake-derived
# layering. Also fast (pure Python over stripped source, no compile).
if [[ $RUN_CONCUR -eq 1 ]]; then
  (cd scripts && python3 -m qpp_concur --root ..)
fi

if [[ $RUN_MAIN -eq 1 ]]; then
  # -Werror here, not in the default developer configure: tier-1 is the gate
  # that must be warning-clean; local incremental builds stay friendly.
  cmake -B build -S . -DQPP_WERROR=ON >/dev/null
  cmake --build build -j"$JOBS"
  (cd build && ctest --output-on-failure -j"$JOBS")
fi

# ASan+UBSan pass: the FULL suite. Address errors and UB abort the test
# (-fno-sanitize-recover=all), so a green run means no heap misuse, no
# signed overflow, no bad shifts/casts anywhere the tests reach.
if [[ $RUN_ASAN_UBSAN -eq 1 ]]; then
  cmake -B build-asan -S . -DQPP_SANITIZE=address+undefined >/dev/null
  cmake --build build-asan -j"$JOBS"
  (cd build-asan && ctest --output-on-failure -j"$JOBS")
fi

# TSan pass: the common suite (Published<T> readers racing publishers), the
# thread-pool/CV determinism tests, the ML suite that drives
# the parallel training paths, the serving suite (registry hot-swap under
# concurrent Predict load, feedback-loop retrains), the obs suite (the
# lock-free metrics registry under multi-threaded update load), and the net
# suite (the reactor, which predicts each batch itself, vs client threads,
# Stats() readers and Shutdown callers: eventfd wakeup, graceful drain),
# the card suite (the cardinality feedback loop: concurrent harvesting vs
# snapshot readers), and the kde suite (bandwidth updates and snapshot publishes racing lock-free
# estimate readers). QPP_THREADS>1 forces real concurrency even on small CI
# machines.
if [[ $RUN_TSAN -eq 1 ]]; then
  cmake -B build-tsan -S . -DQPP_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$JOBS" --target common_test concurrency_test ml_test serve_test obs_test net_test card_test kde_test
  QPP_THREADS=4 ./build-tsan/tests/common_test
  QPP_THREADS=4 ./build-tsan/tests/concurrency_test
  QPP_THREADS=4 ./build-tsan/tests/ml_test
  QPP_THREADS=4 ./build-tsan/tests/serve_test
  QPP_THREADS=4 ./build-tsan/tests/obs_test
  QPP_THREADS=4 ./build-tsan/tests/net_test
  QPP_THREADS=4 ./build-tsan/tests/card_test
  QPP_THREADS=4 ./build-tsan/tests/kde_test
fi

echo "tier1: OK"
