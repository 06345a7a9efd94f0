"""Benchmark entry point: timed passes over one workload, metrics as JSON.

Usage:
    python3 perfbench/run.py --workload {census,sweep,survey,bound}
        [--seed N] [--seconds S] [--trace 0|1]

Runs fresh worker processes (worker.py), one pass each, for about
``--seconds``: it starts no pass that would end after them, but always
runs at least one (with tracing, one of each kind).  It prints every metric
by name and unit; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, the metric names and
units as BENCHMARK.json gives them.  ``wall_ref`` is explained in
worker.py.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, medians over the passes.  With ``--trace 1`` passes
alternate between untraced and traced, and the metrics are the per-layer
ones, medians over the traced passes, plus the tracing overhead.  Exits 2
without a result when the package source is missing or a pass breaks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "integral_census"
PASS_TIMEOUT_S = 150


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: int) -> dict:
    """One worker process; adds ``setup_s``, the time from spawn to ready.

    Every pass runs with PYTHONHASHSEED=0.  Dict and set layouts alone move
    the time of a sweep pass by up to 10%, so with random layouts that
    spread would hide smaller changes.  A change can still move the time
    through the layout: confirm a small gain on sweep with other hash seeds.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("INTEGRAL_CENSUS_CACHE", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], PASS_TIMEOUT_S)
        line = proc.stdout.readline() if readable else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.kill()
            proc.communicate()
            raise PassError(f"worker failed before its jobs were ready (exit {proc.wait()})")
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise PassError(f"worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def source_digest() -> str:
    """sha256 over the package sources, a stand-in for the git sha."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    try:
        while True:
            # with tracing, alternate so both kinds of pass see the same load
            trace = int(args.trace and len(traced) < len(plain))
            p = run_pass(args.workload, args.seed, trace)
            (traced if trace else plain).append(p)
            label = "traced" if trace else "plain"
            print(f"pass {len(plain) + len(traced)} ({label}): setup {p['setup_s']:.3f} s, "
                  f"wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
                  f"reference loop {p['ref_ms']:.3f} ms, wall_ref {p['wall_ref']:.1f}, "
                  f"rss {p['peak_rss_mb']:.1f} MB, failed jobs {len(p['problems'])}/{p['jobs']}")
            for job, problems in p["problems"].items():
                for problem in problems:
                    print(f"  FAIL {job}: {problem}", file=sys.stderr)
            # stop before a pass that would end after --seconds
            elapsed = time.perf_counter() - start
            cycle = elapsed / (len(plain) + len(traced))
            if (traced or not args.trace) and elapsed + cycle > args.seconds:
                break
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = plain + traced
    env = dict(passes[0]["env"], git_sha=git_sha(), source_sha256=source_digest(),
               workload=args.workload, seed=args.seed, passes=len(passes))
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        names = traced[0]["layers"].keys()
        values = {k: statistics.median(p["layers"][k] for p in traced) for k in names}
        values["trace.overhead_frac"] = _median(traced, "wall_ref") / _median(plain, "wall_ref") - 1
        # the raw clock, from the untraced passes
        values.update({f"bench.{k}": _median(plain, k) for k in ("wall_s", "cpu_s", "ref_ms")})
    else:
        values = {k: _median(plain, k) for k in units}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(len(p["problems"]) for p in passes)
    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    print(f"raw wall_s {_median(plain, 'wall_s'):.4f} s, cpu_s {_median(plain, 'cpu_s'):.4f} s, "
          f"reference loop {_median(plain, 'ref_ms'):.4f} ms (medians of untraced passes)")
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
