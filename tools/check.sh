#!/usr/bin/env bash
# Multi-sanitizer gate: build everything under the selected sanitizer and
# run the full test suite, including the hostile-input fault campaigns
# (tests/test_faults.cpp) and the service chaos campaigns
# (tests/test_service.cpp). Intended for CI and for local use before
# merging ingest-path or concurrency changes:
#
#   tools/check.sh                         # ASan+UBSan (default)
#   tools/check.sh --sanitizer=thread      # TSan (data-race gate)
#   tools/check.sh --sanitizer=all         # both, sequentially
#   tools/check.sh --sanitizer=thread -R Service   # subset of tests
#   tools/check.sh --lint-only             # fast path: tamperlint gate only
#
# --lint-only skips the sanitizer builds entirely: it builds just the
# tamperlint binary (reusing an existing build tree when one is present)
# and lints the source tree — seconds, not minutes, so it works as a
# pre-commit hook:
#
#   ln -s ../../tools/precommit.sh .git/hooks/pre-commit
#
# Extra arguments are forwarded to ctest. Build trees are kept per
# sanitizer (build-sanitize-<mode>) so switching modes never causes a full
# rebuild of the other.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)}
SANITIZER=address
LINT_ONLY=0
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --sanitizer=*) SANITIZER="${arg#--sanitizer=}" ;;
    --lint-only) LINT_ONLY=1 ;;
    --help|-h)
      sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *) ARGS+=("$arg") ;;
  esac
done

if [ "$LINT_ONLY" = 1 ]; then
  # Reuse whichever configured tree already exists (its compile_commands.json
  # and object cache make the tamperlint build incremental); fall back to a
  # minimal dedicated tree so the fast path never triggers a full build.
  lint_build=""
  for candidate in "${BUILD_DIR:-}" build build-sanitize-address build-lint; do
    [ -n "$candidate" ] && [ -f "$candidate/CMakeCache.txt" ] || continue
    lint_build="$candidate"
    break
  done
  if [ -z "$lint_build" ]; then
    lint_build=build-lint
    cmake -B "$lint_build" -S . \
      -DCMAKE_BUILD_TYPE=Release \
      -DTAMPER_BUILD_TESTS=OFF \
      -DTAMPER_BUILD_BENCH=OFF \
      -DTAMPER_BUILD_EXAMPLES=OFF >/dev/null
  fi
  cmake --build "$lint_build" -j "$JOBS" --target tamperlint >/dev/null
  "$lint_build"/tools/tamperlint --root .
  echo "== lint gate passed (build dir: $lint_build) =="
  exit 0
fi

run_mode() {
  local mode="$1"
  shift
  local build_dir=${BUILD_DIR:-build-sanitize-$mode}
  echo "== sanitizer gate: $mode (build dir: $build_dir) =="
  cmake -B "$build_dir" -S . \
    -DTAMPER_SANITIZE="$mode" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTAMPER_BUILD_BENCH=OFF \
    -DTAMPER_BUILD_EXAMPLES=OFF
  cmake --build "$build_dir" -j "$JOBS"

  case "$mode" in
    address)
      export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=0:abort_on_error=1}
      export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}
      ;;
    thread)
      # second_deadlock_stack gives both sides of lock-order reports.
      export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}
      ;;
  esac
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" "$@"
  # End-to-end observability smoke under the same sanitizer: real watch
  # runs (clean + SIGTERM drain) with every emitted file re-parsed.
  tools/obs_smoke.sh "$build_dir"
  echo "== sanitizer gate passed: $mode =="
}

case "$SANITIZER" in
  address|thread)
    run_mode "$SANITIZER" "${ARGS[@]+"${ARGS[@]}"}"
    ;;
  all)
    run_mode address "${ARGS[@]+"${ARGS[@]}"}"
    run_mode thread "${ARGS[@]+"${ARGS[@]}"}"
    ;;
  *)
    echo "error: unknown --sanitizer=$SANITIZER (expected address, thread, or all)" >&2
    exit 2
    ;;
esac
