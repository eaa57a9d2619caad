#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
#
#   bash e2ebench/run.sh --workload apps|serve|ingest_mixed --seed N \
#       --seconds S --trace 0|1 [--size full|tiny]
#
# Run from the repository root. Build products and scratch data go under
# $CARGO_TARGET_DIR (default .bench_build); build output goes to stderr so
# the last stdout line is the result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
build="$out/e2ebench"

if [ ! -f "$root/src/CMakeLists.txt" ]; then
  echo "e2ebench: no st4ml sources at $root/src" >&2
  exit 2
fi

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2

# Host stamp inputs the binary cannot see for itself: the commit (when this
# is a git checkout) and a digest of the library sources it was built from.
ST4ML_BENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
ST4ML_BENCH_SRC_DIGEST="$(cd "$root" && find src -type f | LC_ALL=C sort \
  | xargs cat | sha256sum | cut -c1-16)"
export ST4ML_BENCH_GIT_SHA ST4ML_BENCH_SRC_DIGEST

mkdir -p "$out/e2ebench-data"
exec "$build/st4ml_e2ebench" --data-root "$out/e2ebench-data" "$@"
