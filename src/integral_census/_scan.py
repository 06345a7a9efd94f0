"""Exact integral-point x-scan: a quadratic-residue sieve, then big-int isqrt.

For each modulus m, a table built once at import marks the residues
(a, b, x) mod m for which x^3 + a x + b is a square mod m: the
residue-table square test of Cohen, *A Course in Computational Algebraic
Number Theory*, section 1.7.2.  The tables are bit-packed: row
(a mod m) * m + (b mod m) holds eight periods of its m bits in m bytes, and
byte c holds x = 8c, ..., 8c + 7 mod m, most significant bit first.  So
the byte that holds x = 8q, ..., 8q + 7 of any window is byte q mod m of
the row, for every modulus, and the sieve ANDs whole bytes: eight x-values
per byte.

The sieve tiles a block of curves per numpy pass, at most ``_CHUNK``
(curve, x) cells: each curve's row bytes are repeated along the window,
sliced at the window's byte phase and ANDed over the moduli.  A block
starts at its own Cauchy floor, and a lone curve past ``_CHUNK`` x-values
goes chunk by chunk.  A tiled curve holds at least two periods of each of
its rows, about 524 bytes over the seven moduli, however short the window,
so a block takes its curves as if the window were at least ``_MIN_SPAN``
x-values wide: that caps a block's memory on a short window of many curves.

Each pass gives one byte mask to one confirm step.  It unpacks only the
nonzero bytes, skips the bits of the window's end bytes that lie outside
it, and tests each surviving (curve, x), about 0.1% of a long window, with
``math.isqrt`` on Python ints.  Residues are taken on Python ints and each
x is formed as the Python int 8 q + offset, never in a fixed-width type, so
the scan is exact at any magnitude.
"""

import functools
import math

import numpy as np

_MODULI = (64, 63, 65, 11, 17, 19, 23)
# as a column, to take the residues of int64 arrays for every modulus at once
_M = np.array(_MODULI)[:, None]
# the moduli are pairwise coprime: c % _MODULUS fits an int64 and keeps every c % m
_MODULUS = math.prod(_MODULI)
# cells (x-values, or curve-by-x pairs) sieved per numpy pass; with _MIN_SPAN it
# bounds the scan's working memory at every window width
_CHUNK = 1 << 17
# a block holds at most _CHUNK // _MIN_SPAN curves: a tiled curve keeps at least two
# periods of each row, about 524 bytes, however short its window, and a block of
# that many curves is already the worst case of a pass, the one on a 128-wide window
_MIN_SPAN = 128


def _packed_rows(m: int) -> np.ndarray:
    """The table for m: bit x of row (a mod m) * m + (b mod m), most
    significant bit of each byte first, is set when x^3 + a x + b is a
    square mod m.  A row holds x = 0, ..., 8m - 1, eight periods, in m bytes."""
    x = np.arange(m)
    is_square = np.isin(x, x * x % m)
    # x^3 + b and a x, each reduced mod m, add up to less than 2m
    twice = np.concatenate((is_square, is_square))
    cube_b = (x**3 + x[:, None]) % m
    out = np.empty((m, m, m), np.uint8)
    # one a at a time: m^2 cells of int64 intermediates and 8 m^2 of repeated bits
    for a, ax in enumerate(x[:, None] * x % m):
        out[a] = np.packbits(np.concatenate((twice[cube_b + ax],) * 8, axis=1), axis=1)
    return out.reshape(m * m, m)


_TABLES = [_packed_rows(m) for m in _MODULI]


def _rows(a_seq, b_seq) -> np.ndarray:
    """r[j, i]: the row of curve i in table j."""
    a, b = (np.fromiter((c % _MODULUS for c in seq), np.int64, len(seq)) for seq in (a_seq, b_seq))
    r = a % _M
    r *= _M
    r += b % _M
    return r


def _set_bits(mask: np.ndarray):
    """The (i, j) of every set bit of mask, a (curves, bytes) array of
    MSB-first bytes, in order: row i, bit j counted from the start of the row."""
    flat = mask.ravel()
    # unpack only the nonzero bytes, a few percent of a long window; a bool
    # nonzero is several times faster than a uint8 one
    nz = (flat != 0).nonzero()[0]
    if not nz.size:
        return ()
    bits = np.unpackbits(flat[nz]).nonzero()[0]
    ci, xi = np.divmod((nz << 3)[bits >> 3] + (bits & 7), 8 * mask.shape[1])
    return zip(ci.tolist(), xi.tolist())


def _tiled_candidates(a_seq, b_seq, x_lo: int, x_hi: int):
    """The sieve passes (s, lo, q, mask): bit j of row i of mask is set when
    x = 8 q + j passes every residue table for curve s + i; only x in
    [lo, x_hi] belong to the window."""
    step = max(1, _CHUNK // max(x_hi - x_lo + 1, _MIN_SPAN))
    for s in range(0, len(a_seq), step):
        a, b = a_seq[s : s + step], b_seq[s : s + step]
        # every real root has |x| < 1 + max(|a|, |b|) (Cauchy), so below the
        # largest such bound of the block every curve of it has v < 0
        lo = max(x_lo, -max(map(abs, [*a, *b])))
        if lo > x_hi:
            continue
        # the bytes that hold [lo, x_hi]: x in [8 q, 8 q + 7] for q in [q_lo, q_hi]
        q_lo, q_hi = lo // 8, x_hi // 8
        at = _rows(a, b)
        k = len(a)
        # bytes per chunk: as many as _CHUNK // k x-values at any phase touch,
        # so a block of several curves is one chunk
        width = min(q_hi - q_lo + 1, _CHUNK // k // 8 + 2)
        # each curve's row repeated to cover a chunk plus one period, so a chunk can start at any phase
        tiles = [
            table.take(i.repeat(width // m + 2), axis=0).reshape(k, -1)
            for m, table, i in zip(_MODULI, _TABLES, at)
        ]
        for q0 in range(q_lo, q_hi + 1, width):
            c = min(width, q_hi + 1 - q0)
            yield s, lo, q0, functools.reduce(
                np.bitwise_and, (t[:, q0 % m : q0 % m + c] for m, t in zip(_MODULI, tiles))
            )


def scan_curves(a_seq, b_seq, x_lo: int, x_hi: int):
    """Yield (i, x, y) with y >= 0 and y^2 = x^3 + a_seq[i] x + b_seq[i],
    for every curve i and x in [x_lo, x_hi], in (i, x) order."""
    for s, lo, q, mask in _tiled_candidates(a_seq, b_seq, x_lo, x_hi):
        base = 8 * q
        # the end bytes hold bits outside [lo, x_hi]
        head, stop = lo - base, x_hi + 1 - base
        for i, j in _set_bits(mask):
            if head <= j < stop:
                i += s
                x = base + j
                v = x * x * x + a_seq[i] * x + b_seq[i]
                if v < 0:
                    continue
                r = math.isqrt(v)
                if r * r == v:
                    yield i, x, r


def scan_range(a: int, b: int, x_lo: int, x_hi: int) -> list[tuple[int, int]]:
    """Return [(x, y), ...] with y >= 0 and y^2 = x^3 + a*x + b, x in [x_lo, x_hi]."""
    return [(x, y) for _, x, y in scan_curves([a], [b], x_lo, x_hi)]
