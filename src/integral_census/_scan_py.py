"""Naive integral-point x-scan: one exact big-int test per x-value.

The reference oracle for the sieve in ``_scan``: the tests and the benchmark
checks compare the two.  The package itself does not import it.
"""

import math


def scan_range(a: int, b: int, x_lo: int, x_hi: int) -> list[tuple[int, int]]:
    """Return [(x, y), ...] with y >= 0 and y^2 = x^3 + a*x + b, x in [x_lo, x_hi]."""
    out = []
    for x in range(x_lo, x_hi + 1):
        v = x * x * x + a * x + b
        if v < 0:
            continue
        r = math.isqrt(v)
        if r * r == v:
            out.append((x, r))
    return out
