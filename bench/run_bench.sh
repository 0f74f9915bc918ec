#!/usr/bin/env bash
# Runs the hot-path micro-benchmarks and emits their JSON results at the
# repo root (BENCH_channel.json / BENCH_kernels.json / BENCH_net.json /
# BENCH_telemetry.json). A change that touches a hot path re-runs this
# script and commits the refreshed JSON.
#
# Every recorded run is also appended, one line per binary, to
# .bench_results/bench_<name>.jsonl (name = channel, kernels, net,
# telemetry): the git sha, the machine context (host, cpu count and
# clock, build type, compiler) and each benchmark's real time in ns (the
# median when BENCH_REPETITIONS > 1). That file is the trajectory; the
# committed JSON is only the latest point.
#
# The committed JSON is only ever produced from a Release build: the script
# reads CMAKE_BUILD_TYPE out of the build directory's CMakeCache.txt and
# refuses to write BENCH_*.json from anything else. (The JSON's own
# "library_build_type" field reports the prebuilt benchmark library, not
# this repo's flags, so it cannot serve as the gate.)
#
# Usage:
#   bench/run_bench.sh [--smoke | --compare] [build-dir]
#
#   --smoke    run every benchmark with --benchmark_min_time=0.01 and no
#              JSON output — a CI-speed smoke that the binaries still run.
#              The Release gate is skipped since nothing is recorded.
#   --compare  record as usual, then compare each benchmark with the
#              previous trajectory entry from the same machine; exit 3 if
#              any real time regressed by more than 10%.
#
# Environment:
#   BENCH_FILTER       --benchmark_filter regex (default: all)
#   BENCH_REPETITIONS  --benchmark_repetitions (default: 1)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SMOKE=0
COMPARE=0
BUILD=""
usage() {
  echo "usage: bench/run_bench.sh [--smoke | --compare] [build-dir]" >&2
  exit 2
}
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    --compare) COMPARE=1 ;;
    -*) usage ;;
    *) BUILD="$arg" ;;
  esac
done
if [[ "$SMOKE" -eq 1 && "$COMPARE" -eq 1 ]]; then usage; fi
BUILD="${BUILD:-$ROOT/build}"
RESULTS="$ROOT/.bench_results"

BINARIES=(micro_channel micro_kernels net_throughput micro_telemetry)

missing=0
for bin in "${BINARIES[@]}"; do
  [[ -x "$BUILD/bench/$bin" ]] || missing=1
done
if [[ "$missing" -ne 0 ]]; then
  echo "building benchmarks in $BUILD..." >&2
  cmake -B "$BUILD" -S "$ROOT" >/dev/null
  cmake --build "$BUILD" -j --target "${BINARIES[@]}" >/dev/null
fi

if [[ "$SMOKE" -eq 0 ]]; then
  if ! grep -q '^CMAKE_BUILD_TYPE:STRING=Release$' "$BUILD/CMakeCache.txt" 2>/dev/null; then
    echo "run_bench.sh: $BUILD is not a Release build; refusing to write BENCH_*.json." >&2
    echo "  configure with: cmake --preset release   (or pass a release build dir)" >&2
    echo "  or run with --smoke to execute the benchmarks without recording." >&2
    exit 1
  fi
fi

common_args=(
  "--benchmark_filter=${BENCH_FILTER:-.}"
  "--benchmark_repetitions=${BENCH_REPETITIONS:-1}"
)

SHA="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
if [[ "$SHA" != unknown ]] && ! git -C "$ROOT" diff --quiet HEAD -- 2>/dev/null; then
  SHA="$SHA-dirty"
fi
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$BUILD/CMakeCache.txt" 2>/dev/null)"
COMPILER="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD/CMakeCache.txt" 2>/dev/null)"
if [[ -n "$COMPILER" ]]; then
  COMPILER="$("$COMPILER" --version 2>/dev/null | head -n 1 || echo "$COMPILER")"
fi

# Appends one trajectory line for a benchmark JSON file; with --compare,
# checks it against the previous line from the same machine and returns
# 3 on a >10% real-time regression.
record() {
  local name="$1" json="$2"
  mkdir -p "$RESULTS"
  python3 - "$json" "$RESULTS/bench_$name.jsonl" "$SHA" "$BUILD_TYPE" "$COMPILER" \
    "$COMPARE" <<'PY'
import json
import sys

src, out, sha, build_type, compiler, compare = sys.argv[1:7]
try:
    with open(src) as f:
        doc = json.load(f)
except (OSError, ValueError):
    doc = {}  # a filter that matched nothing leaves no JSON behind
ctx = doc.get("context", {})
to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
runs = doc.get("benchmarks", [])
aggregated = any(b.get("run_type") == "aggregate" for b in runs)
samples = {}
for b in runs:
    if aggregated != (b.get("run_type") == "aggregate"):
        continue
    if aggregated and b.get("aggregate_name") != "median":
        continue
    ns = b["real_time"] * to_ns[b.get("time_unit", "ns")]
    samples.setdefault(b.get("run_name", b["name"]), []).append(ns)
times = {k: sum(v) / len(v) for k, v in samples.items()}
if not times:
    sys.exit(0)
machine = {
    "host": ctx.get("host_name"),
    "nproc": ctx.get("num_cpus"),
    "mhz_per_cpu": ctx.get("mhz_per_cpu"),
    "build_type": build_type,
    "compiler": compiler,
}
prev = None
try:
    with open(out) as f:
        for line in f:
            entry = json.loads(line)
            if entry.get("machine") == machine:
                prev = entry
except FileNotFoundError:
    pass
with open(out, "a") as f:
    f.write(json.dumps({"sha": sha, "date": ctx.get("date"), "machine": machine,
                        "load_avg": ctx.get("load_avg"), "real_time_ns": times},
                       sort_keys=True) + "\n")
if compare != "1":
    sys.exit(0)
if prev is None:
    print(f"  {out}: no earlier entry from this machine, nothing to compare",
          file=sys.stderr)
    sys.exit(0)
worse = 0
for name, ns in sorted(times.items()):
    before = prev["real_time_ns"].get(name)
    if before and ns > 1.10 * before:
        worse += 1
        print(f"  REGRESSION {name}: {before:.0f} -> {ns:.0f} ns "
              f"(+{100.0 * (ns / before - 1.0):.1f}%, vs {prev['sha'][:12]})",
              file=sys.stderr)
sys.exit(3 if worse else 0)
PY
}

regressed=0
run() {
  local bin="$1" out="$2" name="$3"
  if [[ "$SMOKE" -eq 1 ]]; then
    echo "== $bin (smoke)" >&2
    # bare seconds, not "0.01s": the suffixed form only parses on
    # google/benchmark >= 1.8, the bare double parses everywhere
    "$BUILD/bench/$bin" "${common_args[@]}" --benchmark_min_time=0.01
  else
    echo "== $bin -> $out" >&2
    "$BUILD/bench/$bin" "${common_args[@]}" \
      --benchmark_out_format=json "--benchmark_out=$ROOT/$out"
    if ! record "$name" "$ROOT/$out"; then regressed=1; fi
  fi
}

run micro_channel BENCH_channel.json channel
run micro_kernels BENCH_kernels.json kernels
run net_throughput BENCH_net.json net
run micro_telemetry BENCH_telemetry.json telemetry

if [[ "$SMOKE" -eq 1 ]]; then
  echo "bench smoke passed (no JSON written)" >&2
else
  echo "wrote $ROOT/BENCH_channel.json, $ROOT/BENCH_kernels.json," \
       "$ROOT/BENCH_net.json and $ROOT/BENCH_telemetry.json;" \
       "appended to $RESULTS/bench_*.jsonl" >&2
  if [[ "$regressed" -ne 0 ]]; then
    echo "run_bench.sh: regression above 10% against the previous run (see above)" >&2
    exit 3
  fi
fi
