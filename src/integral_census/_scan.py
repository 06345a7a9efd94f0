"""Exact integral-point x-scan: a quadratic-residue sieve, then big-int isqrt.

For each modulus m, a table built once at import marks the residues
(a, b, x) mod m for which x^3 + a x + b is a square mod m: the
residue-table square test of Cohen, *A Course in Computational Algebraic
Number Theory*, section 1.7.2.  A scan picks the row for (a mod m, b mod m)
of each table and ANDs the rows over the x-range in fixed-size numpy
chunks.  Only the surviving x, about 0.3% of them, are confirmed with
``math.isqrt`` on Python ints.  No float square root and no fixed-width
product touches x, a or b, so the scan is exact at any magnitude.
"""

import math

import numpy as np

_MODULI = (64, 63, 65, 11, 17, 19, 23)
# x-values sieved per numpy pass; bounds the scan's working memory
_CHUNK = 1 << 16
# below this many x-values the sieve's set-up costs more than it saves
_SMALL_SPAN = 256


def _square_table(m: int) -> np.ndarray:
    """t[a, b, x]: x^3 + a x + b is a square mod m, for residues a, b, x."""
    x = np.arange(m)
    is_square = np.isin(x, x * x % m)
    b = x[:, None]
    # one a at a time keeps the int64 intermediates at m^2, not m^3
    return np.array([is_square[(x * x * x + a * x + b) % m] for a in range(m)])


_TABLES = [_square_table(m) for m in _MODULI]


def _candidates(a: int, b: int, x_lo: int, n: int):
    """The x in [x_lo, x_lo + n) that pass every residue table, ascending."""
    # each table repeated to cover a chunk plus one period, so a chunk can start at any phase
    tiles = [
        t[a % m, b % m][None].repeat(min(n, _CHUNK) // m + 2, axis=0).ravel()
        for m, t in zip(_MODULI, _TABLES)
    ]
    for off in range(0, n, _CHUNK):
        k = min(_CHUNK, n - off)
        mask = np.logical_and.reduce([t[(x_lo + off) % m :][:k] for m, t in zip(_MODULI, tiles)])
        for i in np.flatnonzero(mask).tolist():
            yield x_lo + off + i


def scan_range(a: int, b: int, x_lo: int, x_hi: int) -> list[tuple[int, int]]:
    """Return [(x, y), ...] with y >= 0 and y^2 = x^3 + a*x + b, x in [x_lo, x_hi]."""
    # every real root has |x| < 1 + max(|a|, |b|) (Cauchy), so below that v < 0
    x_lo = max(x_lo, -max(abs(a), abs(b)))
    n = x_hi - x_lo + 1
    xs = range(x_lo, x_hi + 1) if n < _SMALL_SPAN else _candidates(a, b, x_lo, n)
    out = []
    for x in xs:
        v = x * x * x + a * x + b
        if v < 0:
            continue
        r = math.isqrt(v)
        if r * r == v:
            out.append((x, r))
    return out
