"""One timed pass over a workload, in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

run.py starts one of these per pass, so every pass pays what a CLI user
pays: interpreter start, imports and cold in-process caches (divpoly's
psi cache among them).  The worker prints ``ready`` once its jobs are
built, runs them with the clock on, checks their outputs with the clock
off, and prints one JSON line with the pass's measurements.

The host's speed drifts: on a shared 2-core VM the same pass takes from
1.1 s to 2.4 s, minutes apart and from one pass to the next.  So the
worker also times a fixed pure-Python reference loop before the first job
and after each job, and reports ``wall_ref``: each job's wall time over
the mean of the reference times around it, summed over the jobs.  That
is what the pass costs in reference loops.  The reference does not depend
on the package, so only the code moves it; over ten runs its spread was
1-7% where that of raw seconds was 12-29% (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import integral_census

    where = Path(integral_census.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"integral_census imported from {where}, not from {SRC}")


def reference_loop() -> int:
    """Fixed pure-Python work, independent of the package: the yardstick
    for how fast this machine runs Python right now."""
    acc = 0
    table = {}
    for i in range(40000):
        acc += (i * i) % 7
        table[i & 255] = acc
    return acc


def reference_s(repeats: int = 5) -> float:
    """Median time of the reference loop."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _env() -> dict:
    import mpmath
    import numpy
    import scipy
    import sympy

    from integral_census import points

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "scan_backend": points.scan_backend_name(),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if os.environ.get("INTEGRAL_CENSUS_CACHE"):
        print("INTEGRAL_CENSUS_CACHE must be unset: it would keep psi_n warm", file=sys.stderr)
        return 2
    _import_package()
    import workloads
    from integral_census import optimizer

    jobs = workloads.build(args.workload, args.seed)
    print("ready", flush=True)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    outputs: dict[str, object] = {}
    errors: dict[str, list[str]] = {}
    wall = cpu = wall_ref = 0.0
    refs = [reference_s()]
    for job in jobs:
        span = tracer.begin("bench.job") if tracer else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outputs[job.name] = job.run()
        except Exception:  # a failed job is counted, the pass goes on
            errors[job.name] = [traceback.format_exc(limit=3)]
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        if tracer:
            tracer.end(span)
        refs.append(reference_s())
        wall, cpu = wall + dt, cpu + dc
        wall_ref += dt / ((refs[-2] + refs[-1]) / 2)
    if tracer:
        tracer.uninstall()

    problems = {**workloads.check_jobs(jobs, outputs), **errors}
    result = {
        "wall_ref": wall_ref,
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_ms": 1e3 * statistics.median(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": len(jobs),
        "problems": problems,
        "env": _env(),
    }
    if tracer:
        layers = tracing.layer_metrics(tracer, wall)
        layers["cli.output_bytes"] = sum(
            len(o.text) for o in outputs.values() if isinstance(o, workloads.CliOutput)
        )
        gap = 0.0
        for o in outputs.values():
            if isinstance(o, optimizer.BoundReport):
                gap = o.aggregate - optimizer.REPORTED_COMPARISON_BOUND
        layers["optimizer.bound_gap"] = gap
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
