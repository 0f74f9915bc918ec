#!/usr/bin/env python3
"""Proves every aru-analyze fixture both ways.

Each directory under tests/analyze/fixtures/ holds one minimal source
file exercising exactly one analyzer rule. The fixture is run twice:

  1. as-is              -> the analyzer must exit 1 and print a finding
                           for the expected rule;
  2. -D ARU_FIXTURE_FIXED -> the violating branch is preprocessed away
                           (or the escape hatch appears) and the
                           analyzer must exit 0.

Registered as the `analyze_fixtures` ctest; also runnable directly:
    python3 tests/analyze/run_fixtures.py
"""
import os
import subprocess
import sys

# fixture directory -> rule tag that must appear in the violating run
FIXTURES = [
    ("hot_alloc", "hot-alloc"),
    ("hot_block", "hot-block"),
    ("rank_inversion", "rank-order"),
    ("throwing_decode", "nothrow-throw"),
    ("escape_hatch", "hot-alloc"),
    ("telemetry_register", "hot-alloc"),
    ("control_rank", "rank-order"),
    ("control_escape", "hot-block"),
    ("net_window", "hot-alloc"),
]

# fixtures whose fixed run must report a sanctioned escape edge
ESCAPE_FIXTURES = {"escape_hatch", "control_escape"}

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
ANALYZER = os.path.join(ROOT, "scripts", "analyze", "aru_analyze.py")
FIXDIR = os.path.join(ROOT, "tests", "analyze", "fixtures")


def run_analyzer(fixture_dir, defines, baseline="none", verbose=False):
    cmd = [sys.executable, ANALYZER,
           "--root", ROOT,
           "--sources", fixture_dir,
           "--baseline", baseline,
           "--rules", "hot,ranks,nothrow"]
    if verbose:
        cmd.append("-v")
    for d in defines:
        cmd += ["--define", d]
    p = subprocess.run(cmd, capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def check_stale_baseline():
    """A baseline entry that no longer fires must FAIL the run, not rot.

    Runs the fixed (clean) control_escape fixture against a baseline
    whose only entry never fires; the analyzer must exit 1 and name the
    stale entry.
    """
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("hot-block fixture::gone_function spawn_worker\n")
        path = f.name
    try:
        rc, out = run_analyzer(os.path.join(FIXDIR, "control_escape"),
                               ["ARU_FIXTURE_FIXED"], baseline=path)
    finally:
        os.unlink(path)
    if rc != 1:
        return (f"stale_baseline: expected exit 1 on a stale entry, "
                f"got {rc}\n{out}")
    if "stale" not in out:
        return f"stale_baseline: run did not name the stale entry\n{out}"
    return None


def check_edge_counts():
    """The -v header and the summary count sanctioned edges alike.

    The fixed escape_hatch fixture reaches its one escape edge from two
    call sites; both lines must say one edge.
    """
    import re
    rc, out = run_analyzer(os.path.join(FIXDIR, "escape_hatch"),
                           ["ARU_FIXTURE_FIXED"], verbose=True)
    header = re.search(r"^-- (\d+) sanctioned escape edge", out, re.M)
    summary = re.search(r"; .* (\d+) sanctioned escape edge", out)
    if rc != 0 or not header or not summary:
        return f"edge_counts: expected a clean -v run with both counts\n{out}"
    if header.group(1) != summary.group(1) or summary.group(1) != "1":
        return (f"edge_counts: header says {header.group(1)}, summary "
                f"{summary.group(1)}, for one edge from two call sites\n{out}")
    return None


def main():
    failures = []
    for name, rule in FIXTURES:
        d = os.path.join(FIXDIR, name)
        if not os.path.isdir(d):
            failures.append(f"{name}: fixture directory missing: {d}")
            continue

        rc, out = run_analyzer(d, [])
        if rc != 1:
            failures.append(f"{name}: violating run expected exit 1, "
                            f"got {rc}\n{out}")
        elif f"[{rule}]" not in out:
            failures.append(f"{name}: violating run did not report a "
                            f"{rule} finding\n{out}")

        rc, out = run_analyzer(d, ["ARU_FIXTURE_FIXED"])
        if rc != 0:
            failures.append(f"{name}: fixed run (-D ARU_FIXTURE_FIXED) "
                            f"expected exit 0, got {rc}\n{out}")
        elif name in ESCAPE_FIXTURES and "sanctioned escape" not in out:
            failures.append(f"{name}: fixed run did not report the "
                            f"sanctioned escape edge\n{out}")

        status = "FAIL" if any(f.startswith(name + ":") for f in failures) \
            else "ok"
        print(f"  {name:<16} [{rule}] ... {status}")

    stale_failure = check_stale_baseline()
    if stale_failure:
        failures.append(stale_failure)
    print(f"  {'stale_baseline':<16} [stale-baseline] ... "
          f"{'FAIL' if stale_failure else 'ok'}")

    count_failure = check_edge_counts()
    if count_failure:
        failures.append(count_failure)
    print(f"  {'edge_counts':<16} [-v header = summary] ... "
          f"{'FAIL' if count_failure else 'ok'}")

    if failures:
        print(f"\n{len(failures)} fixture check(s) failed:", file=sys.stderr)
        for f in failures:
            print("  " + f.replace("\n", "\n    "), file=sys.stderr)
        return 1
    print(f"all {len(FIXTURES)} fixtures proven both ways "
          f"(+ stale-baseline enforcement, edge counts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
