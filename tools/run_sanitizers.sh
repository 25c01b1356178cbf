#!/usr/bin/env bash
# Builds Orpheus with AddressSanitizer + UndefinedBehaviorSanitizer and
# runs the full test suite plus a fuzz smoke under instrumentation,
# then rebuilds with ThreadSanitizer (which cannot be combined with
# ASan) and runs the concurrency-sensitive suites. Any sanitizer report
# fails the run (-fno-sanitize-recover=all turns UBSan findings into
# aborts; halt_on_error does the same for ASan and TSan).
#
# Usage: tools/run_sanitizers.sh [build-dir] [fuzz-iterations] [tsan-build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-sanitize}"
FUZZ_ITERATIONS="${2:-10000}"
TSAN_BUILD_DIR="${3:-${REPO_ROOT}/build-tsan}"

# The suites that exercise threads: the pool itself, the serving layer,
# the registry's hot-swap and canary traffic through the service's
# dispatch loop, and the engine paths that drive parallel kernels.
TSAN_TESTS="test_threadpool|test_service|test_engine_pool|test_fault_injection|test_engine|test_model_registry"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:abort_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

echo "== configure (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DORPHEUS_SANITIZE=address,undefined \
    -DORPHEUS_BUILD_BENCHMARKS=OFF \
    -DORPHEUS_BUILD_EXAMPLES=OFF

echo "== build =="
cmake --build "${BUILD_DIR}" -j"$(nproc)"

echo "== ctest under ASan/UBSan =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"$(nproc)"

echo "== corpus replay under ASan/UBSan =="
"${BUILD_DIR}/tools/orpheus_fuzz" --corpus "${REPO_ROOT}/tests/corpus"

echo "== fuzz smoke (${FUZZ_ITERATIONS} iterations) under ASan/UBSan =="
"${BUILD_DIR}/tools/orpheus_fuzz" --iterations "${FUZZ_ITERATIONS}"

export TSAN_OPTIONS="halt_on_error=1:abort_on_error=1"

echo "== configure TSan (${TSAN_BUILD_DIR}) =="
cmake -B "${TSAN_BUILD_DIR}" -S "${REPO_ROOT}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DORPHEUS_SANITIZE=thread \
    -DORPHEUS_BUILD_BENCHMARKS=OFF \
    -DORPHEUS_BUILD_EXAMPLES=OFF

echo "== build TSan =="
cmake --build "${TSAN_BUILD_DIR}" -j"$(nproc)"

echo "== concurrency suites under TSan =="
ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure \
    -R "^(${TSAN_TESTS})\$"

echo "== sanitizer run clean =="
