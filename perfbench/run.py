#!/usr/bin/env python3
"""End-to-end pipeline benchmark: tracker and relay, in-process and over loopback.

Run from the repository root:

    python3 perfbench/run.py --workload tracker --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --self-test

The first run builds perfbench/ (a CMake package that compiles src/ into
one static library) as a Release build under .bench_build/perfbench. Each
run deploys one workload in-process through the control plane and prints a
readable report followed, as the last stdout line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Every result is also appended, with its machine context
(nproc, build type, compiler, source sha, seed, cores used), to
.bench_results/<workload>.jsonl.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_results"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise SystemExit("run.py: configure failed (are the repository sources present?)")
    cmd = ["cmake", "--build", str(BUILD), "--target", target, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise SystemExit("run.py: build failed")
    return BUILD / target


def source_sha():
    """The git commit when run from a clone, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def context_from(lines):
    """Machine context from the report's '# key=value' header lines."""
    ctx = {}
    for line in lines:
        if not line.startswith("# "):
            continue
        for tok in line[2:].split():
            if "=" in tok:
                k, v = tok.split("=", 1)
                ctx.setdefault(k, v)
    return ctx


def report_from(lines):
    """Every '  name value unit' metric line of the report."""
    report = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            try:
                report[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
            except ValueError:
                pass
    return report


def run_one(exe, workload, seed, seconds, trace, sha):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PERFBENCH_SOURCE_SHA=sha)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"{workload}: exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not a JSON result")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: result has keys {sorted(result)}")
        return None
    for line in lines:
        print(line, flush=True)
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "context": context_from(lines), "report": report_from(lines),
              "result": result}
    with open(RESULTS / f"{workload}.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    return result


def self_test():
    """The benchmark's own unit tests, plus BENCHMARK.json against the binary."""
    tests = build("perfbench_tests")
    if subprocess.run([str(tests)]).returncode != 0:
        return 1
    exe = build("e2e_bench")
    listed = subprocess.run([str(exe), "--list-metrics"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    names = {"end_to_end": [], "per_layer": [], "workload": []}
    for line in filter(None, listed):
        kind, name, rest = line.split(" ", 2)
        names[kind].append((name, rest))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for kind in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[kind]]
        if want != names[kind]:
            problems.append(f"{kind} metrics differ from the binary's list")
    want = [(w["name"], w["why"]) for w in spec["workloads"]]
    if want != names["workload"]:
        problems.append("workloads differ from the binary's list")
    for p in problems:
        log(p)
    print("self-test:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")

    exe = build("e2e_bench")
    sha = source_sha()
    if args.workload != "all":
        result = run_one(exe, args.workload, args.seed, args.seconds, args.trace, sha)
        return 0 if result is not None else 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for w in spec["workloads"]:
        result = run_one(exe, w["name"], args.seed, args.seconds, args.trace, sha)
        if result is None:
            status = 1
            continue
        print(f"# {w['name']}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
