"""Exact integral-point x-scan: a quadratic-residue sieve, then big-int isqrt.

For each modulus m, a table built once at import marks the residues
(a, b, x) mod m for which x^3 + a x + b is a square mod m: the
residue-table square test of Cohen, *A Course in Computational Algebraic
Number Theory*, section 1.7.2.  Both ways of applying the tables sieve a
block of curves per numpy pass, at most ``_CHUNK`` (curve, x) cells, and
the window's width picks one:

- a lone curve, or a window of ``_SMALL_SPAN`` x-values or more, is tiled:
  each curve's table row is repeated along the window, sliced at the
  window's phase and ANDed over the moduli; the block starts at its own
  Cauchy floor, and a lone curve past ``_CHUNK`` x-values goes chunk by chunk;
- several curves on a shorter window are gathered: each curve's row is read
  at the window's x residues, and the blocks are ANDed over the moduli.

Both feed one confirm step: each surviving (curve, x), about 0.3% of a long
window, is tested with ``math.isqrt`` on Python ints.  Residues are taken
on Python ints and no x is formed in a fixed-width type, so the scan is
exact at any magnitude.
"""

import functools
import math

import numpy as np

_MODULI = (64, 63, 65, 11, 17, 19, 23)
# as a column, to take the residues of int64 arrays for every modulus at once
_M = np.array(_MODULI)[:, None]
# the moduli are pairwise coprime: c % _MODULUS fits an int64 and keeps every c % m
_MODULUS = math.prod(_MODULI)
# cells (x-values, or curve-by-x pairs) sieved per numpy pass; bounds the scan's working memory
_CHUNK = 1 << 16
# several curves are gathered only on a window shorter than this, and tiled from
# it on: over the 15,936 universal T = 8 curves gathering is faster up to about
# 150 x-values and tiling from 200 on.  A lone curve is tiled at any width.
_SMALL_SPAN = 200


def _square_rows(m: int) -> np.ndarray:
    """r[(a mod m) * m + (b mod m), x mod m]: x^3 + a x + b is a square mod m."""
    x = np.arange(m)
    is_square = np.isin(x, x * x % m)
    b = x[:, None]
    # one a at a time keeps the int64 intermediates at m^2, not m^3
    return np.array([is_square[(x * x * x + a * x + b) % m] for a in range(m)]).reshape(m * m, m)


_ROWS = [_square_rows(m) for m in _MODULI]


def _residues(seq) -> np.ndarray:
    """Each c of seq as c % _MODULUS, an int64 array."""
    return np.fromiter((c % _MODULUS for c in seq), np.int64, len(seq))


def _tiled_candidates(a_seq, b_seq, x_lo: int, x_hi: int):
    """The (i, x), x in [x_lo, x_hi], that pass every residue table for
    curve i, in (i, x) order."""
    a, b = _residues(a_seq), _residues(b_seq)
    step = max(1, _CHUNK // (x_hi - x_lo + 1))
    for s in range(0, len(a_seq), step):
        # every real root has |x| < 1 + max(|a|, |b|) (Cauchy), so below the
        # largest such bound of the block every curve of it has v < 0
        lo = max(x_lo, -max(map(abs, [*a_seq[s : s + step], *b_seq[s : s + step]])))
        n = x_hi - lo + 1
        if n < 1:
            continue
        # at[j, i]: the row of curve s + i in table j
        at = a[s : s + step] % _M * _M + b[s : s + step] % _M
        k = at.shape[1]
        # x-values per chunk: k * width <= _CHUNK, and a block of several curves is one chunk
        width = min(n, _CHUNK // k)
        # each curve's row repeated to cover a chunk plus one period, so a chunk can start at any phase
        tiles = [
            rows.take(i, axis=0).repeat(width // m + 2, axis=0).reshape(k, -1)
            for m, rows, i in zip(_MODULI, _ROWS, at)
        ]
        for x0 in range(lo, x_hi + 1, width):
            c = min(width, x_hi + 1 - x0)
            mask = functools.reduce(
                np.logical_and, (t[:, x0 % m : x0 % m + c] for m, t in zip(_MODULI, tiles))
            )
            # a 1-d nonzero is several times faster than a 2-d one
            ci, xi = np.divmod(np.flatnonzero(mask), c)
            for i, j in zip(ci.tolist(), xi.tolist()):
                yield s + i, x0 + j


def _block_candidates(a_seq, b_seq, x_lo: int, x_hi: int):
    """The (i, x), x in [x_lo, x_hi], that pass every residue table for
    curve i, in (i, x) order."""
    n = x_hi - x_lo + 1
    a, b = _residues(a_seq), _residues(b_seq)
    # cols[j]: the column of a table-j row that each x of the window reads
    cols = (np.array([x_lo % m for m in _MODULI])[:, None] + np.arange(n)) % _M
    step = _CHUNK // n
    for s in range(0, len(a_seq), step):
        # at[j, i]: the row of curve s + i in table j
        at = a[s : s + step] % _M * _M + b[s : s + step] % _M
        mask = functools.reduce(
            np.logical_and, (rows.take(i, axis=0)[:, col] for rows, i, col in zip(_ROWS, at, cols))
        )
        ci, xi = np.divmod(np.flatnonzero(mask), n)
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
