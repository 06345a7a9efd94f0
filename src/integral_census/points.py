"""Exact group law, integral-point censuses, and small-point statistics.

Every listed integral point comes from the exact x-scan of ``_scan``: a
numpy quadratic-residue sieve discards almost every x, and big-int
``math.isqrt`` confirms the rest, at any magnitude.  ``census`` scans its
whole curve list over |x| <= x_bound in one ``scan_curves`` call;
``integral_points`` is the same scan over a list of one curve.  The scan
reads bit-packed residue tables, eight x-values per byte, and sieves a
tiled block of curves per numpy pass at any window width.

``small_point_statistics`` only counts, over |x| <= T^exponent.  In a
family row (a, [b...]) a point at x fixes b = y^2 - x^3 - a x, so a wide
row is counted by walking the squares y^2 in the row's b-range, one
``isqrt`` per x-value; the narrow rows, where the sieve's cost per
x-value is small, go to one ``scan_curves`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import _scan
from .families import CurveModel, Family, _check_T, _member_rows, enumerate_family

__all__ = [
    "Identity",
    "CurvePoint",
    "CensusRow",
    "CensusSummary",
    "on_curve",
    "add",
    "negate",
    "integral_points",
    "mod3_obstruction",
    "census",
    "small_point_statistics",
    "scan_backend_name",
]

@dataclass(frozen=True)
class CurvePoint:
    """Affine point with exact rational coordinates, or the identity."""

    x: Fraction | None = None
    y: Fraction | None = None

    @property
    def is_identity(self) -> bool:
        return self.x is None

    @staticmethod
    def affine(x, y) -> "CurvePoint":
        return CurvePoint(Fraction(x), Fraction(y))


Identity = CurvePoint()


@dataclass
class CensusRow:
    curve: CurveModel
    integral_count: int
    points: list[tuple[int, int]]
    x_bound_used: int


@dataclass
class CensusSummary:
    total_points: int
    curve_count: int
    average: float
    rows: list[CensusRow] = field(default_factory=list)


def on_curve(curve: CurveModel, p: CurvePoint) -> bool:
    if p.is_identity:
        return True
    return p.y * p.y == p.x**3 + curve.a * p.x + curve.b


def negate(p: CurvePoint) -> CurvePoint:
    if p.is_identity:
        return p
    return CurvePoint(p.x, -p.y)


def add(curve: CurveModel, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-tangent group law, exact in rationals."""
    for pt in (p, q):
        if not on_curve(curve, pt):
            raise ValueError("point not on curve")
    if p.is_identity:
        return q
    if q.is_identity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return Identity
        # tangent: 2y != 0 here since y = -y was excluded
        slope = (3 * p.x * p.x + curve.a) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope * slope - p.x - q.x
    y3 = slope * (p.x - x3) - p.y
    return CurvePoint(x3, y3)


def scan_backend_name() -> str:
    return "sieve"


def integral_points(curve: CurveModel, x_bound: int) -> list[tuple[int, int]]:
    """All (x, y) in Z^2 on the curve with |x| <= x_bound, sorted by (x, y)."""
    return _points_per_curve([curve], x_bound)[0]


def _points_per_curve(curves: Sequence[CurveModel], x_bound: int) -> list[list[tuple[int, int]]]:
    """integral_points(c, x_bound) for each c of curves, from one scan."""
    if x_bound < 1:
        raise ValueError("x_bound must be >= 1")
    out: list[list[tuple[int, int]]] = [[] for _ in curves]
    a, b = [c.a for c in curves], [c.b for c in curves]
    # the scan gives each x once, ascending, with y >= 0: (x, -y) sorts before (x, y)
    for i, x, y in _scan.scan_curves(a, b, -x_bound, x_bound):
        out[i] += [(x, -y), (x, y)] if y else [(x, 0)]
    return out


def mod3_obstruction(curve: CurveModel) -> bool:
    """(a, b) = (2, 2) mod 3 forces x^3 + ax + b = 2 mod 3, a non-residue."""
    return curve.a % 3 == 2 and curve.b % 3 == 2


def census(
    family: Family,
    T: float,
    x_bound: int,
    curves: Sequence[CurveModel] | None = None,
) -> CensusSummary:
    """Integral-point counts per curve, in enumeration order, plus the
    family average."""
    _check_T(T)
    if x_bound < 1:
        raise ValueError("x_bound must be >= 1")
    if curves is None:
        curves = list(enumerate_family(family, T))
    if not curves:
        raise ValueError("empty family slice")
    rows = [
        CensusRow(curve, len(pts), pts, x_bound)
        for curve, pts in zip(curves, _points_per_curve(curves, x_bound))
    ]
    total = sum(r.integral_count for r in rows)
    return CensusSummary(total, len(rows), total / len(rows), rows)


# curves per a-row from which small_point_statistics counts the row rather
# than scanning it.  Over universal rows on |x| <= T^e, e <= 3, the count
# beat the sieve on every row of 33 curves or more, but the tiled sieve gets
# cheaper per cell as the window grows: rows of 83 curves counted in 37 ms
# against 21 ms scanned at e = 4 (T = 6, 2-core x86-64 VM).  128 lost nowhere
# on e <= 3.5.
_ROW_MIN = 128


def _row_triples(a: int, bs: list[int], x_cut: int) -> int:
    """The number of (x, y, b) with |x| <= x_cut, b in bs and
    y^2 = x^3 + a x + b; bs ascending.  Each x fixes v = x^3 + a x, and the b with a point at x
    are the y^2 - v in bs, so y walks down from isqrt(v + bs[-1]) while
    y^2 >= v + bs[0]: one step per square, in Python ints, exact at any size."""
    members = set(bs)
    b_lo, b_hi = bs[0], bs[-1]
    count = 0
    for x in range(-x_cut, x_cut + 1):
        v = x * (x * x + a)
        if v + b_hi < 0:
            continue
        y = math.isqrt(v + b_hi)
        while y >= 0 and y * y >= v + b_lo:
            if y * y - v in members:
                count += 2 if y else 1
            y -= 1
    return count


def small_point_statistics(family: Family, T: float, exponent: float) -> dict:
    """Count (x, y, curve) triples with |x| <= T^exponent over the family.

    A row (a, [b...]) of _ROW_MIN curves or more is counted by its squares
    (``_row_triples``): one Python step per x-value, not one sieve cell per
    (curve, x).  The narrower rows, such as the one-curve rows of the b0 and
    congruent families, cost the sieve few cells per x-value, so they are
    scanned together in one ``scan_curves`` call.
    """
    if not 0 <= exponent <= 6:
        raise ValueError("exponent must lie in [0, 6]")
    _check_T(T)
    x_cut = max(1, int(float(T) ** exponent))
    rows = list(_member_rows(family, T))
    size = sum(len(row_b) for _, row_b in rows)
    if not size:
        raise ValueError("empty family slice")
    triple_count = 0
    a: list[int] = []
    b: list[int] = []
    for row_a, row_b in rows:
        if len(row_b) >= _ROW_MIN:
            triple_count += _row_triples(row_a, row_b, x_cut)
        else:
            a += [row_a] * len(row_b)
            b += row_b
    # one scan for the narrow rows, even with none; (x, y) with y != 0 counts with (x, -y)
    triple_count += sum(2 if y else 1 for _, _, y in _scan.scan_curves(a, b, -x_cut, x_cut))
    return {"triple_count": triple_count, "family_size": size, "ratio": triple_count / size}
