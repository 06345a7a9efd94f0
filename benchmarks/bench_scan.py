"""Time the sieve x-scan against the naive reference scan; assert equal points.

Usage: python benchmarks/bench_scan.py [--x-bound N] [--curves K]
"""

from __future__ import annotations

import argparse
import time

from integral_census import _scan, _scan_py
from integral_census.points import scan_backend_name


def bench(fn, curves, x_bound: int) -> tuple[float, list]:
    t0 = time.perf_counter()
    found = [fn(a, b, -x_bound, x_bound) for a, b in curves]
    return time.perf_counter() - t0, found


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--x-bound", type=int, default=200000)
    ap.add_argument("--curves", type=int, default=40)
    args = ap.parse_args()

    curves = [(a, b) for a in range(-4, 4) for b in range(-3, 3)][: args.curves]
    x_values = len(curves) * (2 * args.x_bound + 1)
    print(f"backend: {scan_backend_name()}, {len(curves)} curves, |x| <= {args.x_bound}")
    t_ref, ref = bench(_scan_py.scan_range, curves, args.x_bound)
    t_sieve, got = bench(_scan.scan_range, curves, args.x_bound)
    for (a, b), want, have in zip(curves, ref, got):
        assert have == want, f"curve ({a}, {b}): sieve {have} != reference {want}"
    n_points = sum(map(len, ref))
    for name, t in (("reference", t_ref), ("sieve", t_sieve)):
        print(f"{name:>9}: {t:.3f} s  {1e9 * t / x_values:.1f} ns/x  ({n_points} points)")
    print(f"speedup: {t_ref / t_sieve:.1f}x, points identical")


if __name__ == "__main__":
    main()
