"""Exact integral-point x-scan: a quadratic-residue sieve, then big-int isqrt.

For each modulus m, a table built once at import marks the residues
(a, b, x) mod m for which x^3 + a x + b is a square mod m: the
residue-table square test of Cohen, *A Course in Computational Algebraic
Number Theory*, section 1.7.2.  The input picks one of two ways to apply
the tables:

- a lone curve, or a window of ``_SMALL_SPAN`` x-values or more, is sieved
  one curve at a time: the table row for (a mod m, b mod m) is tiled over
  the window, and the rows are ANDed in numpy slices of ``_CHUNK`` x-values;
- several curves on a shorter window are sieved at once: each curve's row
  is read at the window's x residues into a (curve, x) block of at most
  ``_CHUNK`` cells, and the blocks are ANDed over the moduli.

Both feed one confirm step: each surviving (curve, x), about 0.3% of a long
window, is tested with ``math.isqrt`` on Python ints.  Residues are taken
on Python ints and no x is formed in a fixed-width type, so the scan is
exact at any magnitude.
"""

import functools
import math

import numpy as np

_MODULI = (64, 63, 65, 11, 17, 19, 23)
# as an array, to take the residues of int64 arrays for every modulus at once
_M = np.array(_MODULI)
# the moduli are pairwise coprime: c % _MODULUS fits an int64 and keeps every c % m
_MODULUS = math.prod(_MODULI)
# cells (x-values, or curve-by-x pairs) sieved per numpy pass; bounds the scan's working memory
_CHUNK = 1 << 16
# several curves share a block only on a window shorter than this: a lone curve is
# cheaper tiled at any width, while over a family the blocks stay cheaper up to
# about 2000 x-values
_SMALL_SPAN = 256


def _square_rows(m: int) -> np.ndarray:
    """r[(a mod m) * m + (b mod m), x mod m]: x^3 + a x + b is a square mod m."""
    x = np.arange(m)
    is_square = np.isin(x, x * x % m)
    b = x[:, None]
    # one a at a time keeps the int64 intermediates at m^2, not m^3
    return np.array([is_square[(x * x * x + a * x + b) % m] for a in range(m)]).reshape(m * m, m)


_ROWS = [_square_rows(m) for m in _MODULI]


def _tiled_candidates(a_seq, b_seq, x_lo: int, x_hi: int):
    """The (i, x), x in [x_lo, x_hi], that pass every residue table for
    curve i, in (i, x) order."""
    for i, (a, b) in enumerate(zip(a_seq, b_seq)):
        # every real root has |x| < 1 + max(|a|, |b|) (Cauchy), so below that v < 0
        lo = max(x_lo, -max(abs(a), abs(b)))
        n = x_hi - lo + 1
        if n < 1:
            continue
        # each table row repeated to cover a chunk plus one period, so a chunk can start at any phase
        tiles = [
            rows[a % m * m + b % m][None].repeat(min(n, _CHUNK) // m + 2, axis=0).ravel()
            for m, rows in zip(_MODULI, _ROWS)
        ]
        for off in range(0, n, _CHUNK):
            k = min(_CHUNK, n - off)
            mask = functools.reduce(
                np.logical_and, (t[(lo + off) % m :][:k] for m, t in zip(_MODULI, tiles))
            )
            for j in np.flatnonzero(mask).tolist():
                yield i, lo + off + j


def _block_candidates(a_seq, b_seq, x_lo: int, x_hi: int):
    """The (i, x), x in [x_lo, x_hi], that pass every residue table for
    curve i, in (i, x) order."""
    count, n = len(a_seq), x_hi - x_lo + 1
    a = np.fromiter((c % _MODULUS for c in a_seq), np.int64, count)
    b = np.fromiter((c % _MODULUS for c in b_seq), np.int64, count)
    # cols[k]: the column of a table-k row that each x of the window reads
    cols = (np.array([x_lo % m for m in _MODULI])[:, None] + np.arange(n)) % _M[:, None]
    step = _CHUNK // n
    for s in range(0, count, step):
        # at[i, k]: the row of curve s + i in table k
        at = a[s : s + step, None] % _M * _M + b[s : s + step, None] % _M
        mask = functools.reduce(
            np.logical_and, (rows[at[:, k]][:, cols[k]] for k, rows in enumerate(_ROWS))
        )
        ci, xi = np.nonzero(mask)
        for i, j in zip(ci.tolist(), xi.tolist()):
            yield s + i, x_lo + j


def scan_curves(a_seq, b_seq, x_lo: int, x_hi: int):
    """Yield (i, x, y) with y >= 0 and y^2 = x^3 + a_seq[i] x + b_seq[i],
    for every curve i and x in [x_lo, x_hi], in (i, x) order."""
    n = x_hi - x_lo + 1
    if n < 1:
        return
    blocks = len(a_seq) > 1 and n < _SMALL_SPAN
    candidates = _block_candidates if blocks else _tiled_candidates
    for i, x in candidates(a_seq, b_seq, x_lo, x_hi):
        v = x * x * x + a_seq[i] * x + b_seq[i]
        if v < 0:
            continue
        r = math.isqrt(v)
        if r * r == v:
            yield i, x, r


def scan_range(a: int, b: int, x_lo: int, x_hi: int) -> list[tuple[int, int]]:
    """Return [(x, y), ...] with y >= 0 and y^2 = x^3 + a*x + b, x in [x_lo, x_hi]."""
    return [(x, y) for _, x, y in scan_curves([a], [b], x_lo, x_hi)]
