import collections
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from integral_census import _scan, _scan_py
from integral_census.families import CurveModel, Family, enumerate_family
from integral_census.points import (
    CurvePoint,
    Identity,
    add,
    census,
    integral_points,
    mod3_obstruction,
    negate,
    on_curve,
    scan_backend_name,
    small_point_statistics,
)


def _point_on_random_curve(rng_x, rng_y, rng_a):
    # reverse-engineer b so (x, y) lies on y^2 = x^3 + ax + b
    b = rng_y**2 - rng_x**3 - rng_a * rng_x
    return CurveModel(rng_a, b), CurvePoint.affine(rng_x, rng_y)


def test_group_law_identities():
    curve, p = _point_on_random_curve(3, 6, 1)  # y^2 = x^3 + x + 6
    assert on_curve(curve, p)
    assert add(curve, p, Identity) == p
    assert add(curve, Identity, p) == p
    assert add(curve, p, negate(p)) == Identity


def test_add_rejects_off_curve_points():
    curve = CurveModel(1, 6)
    with pytest.raises(ValueError):
        add(curve, CurvePoint.affine(2, 5), CurvePoint.affine(3, 6))


def test_two_torsion_doubling():
    # (1, 0) on y^2 = x^3 - x is 2-torsion
    curve = CurveModel(-1, 0)
    p = CurvePoint.affine(1, 0)
    assert add(curve, p, p) == Identity


coords = st.tuples(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=1, max_value=8),
)


@given(coords)
@settings(max_examples=150, deadline=None)
def test_group_law_commutes_and_associates(args):
    x1, y1, a, x2, y2 = args
    b = y1 * y1 - x1**3 - a * x1
    curve = CurveModel(a, b)
    if curve.disc() == 0:
        return
    p = CurvePoint.affine(x1, y1)
    # build a second rational point from p itself so it is on the curve
    q = add(curve, p, p)
    r = add(curve, q, p)
    assert add(curve, p, q) == add(curve, q, p)
    assert add(curve, add(curve, p, q), r) == add(curve, p, add(curve, q, r))


def test_scan_backends_agree():
    # (-1, 0) has a point at x = -max(|a|, |b|), the lowest x the scan visits
    for a, b in [(0, -2), (-2, 5), (1, 6), (-7, 10), (0, 17), (-1, 0)]:
        pure = _scan_py.scan_range(a, b, -500, 500)
        assert _scan.scan_range(a, b, -500, 500) == pure
        # every reported pair is a genuine point with y >= 0
        for x, y in pure:
            assert y >= 0 and y * y == x**3 + a * x + b


@pytest.mark.parametrize("span", [1, 45, _scan._MIN_SPAN - 1, 199])
def test_lone_curve_is_tiled_on_a_short_window(span):
    for a, b in [(0, -2), (-2, 5), (1, 6), (-7, 10), (0, 17), (-1, 0), (-17, 10**20)]:
        for x_lo in (-span // 2, 3 - span, 10**19):
            x_hi = x_lo + span - 1
            assert _scan.scan_range(a, b, x_lo, x_hi) == _scan_py.scan_range(a, b, x_lo, x_hi)
    assert integral_points(CurveModel(0, -2), 100) == [(3, -5), (3, 5)]


def test_scan_big_integers():
    # far beyond int64: x near 10^8 makes x^3 about 10^24
    x = 10**8 + 7
    b = 123**2 - x**3
    assert _scan_py.scan_range(0, b, x - 5, x + 5) == [(x, 123)]
    # and the sieve finds it on a wider window
    assert _scan.scan_range(0, b, x - 500, x + 500) == [(x, 123)]


_SPANS = [
    1,
    _scan._MIN_SPAN - 1,
    _scan._MIN_SPAN,
    _scan._MIN_SPAN + 1,
    _scan._CHUNK - 1,
    _scan._CHUNK + 1,
]
_COEFF = st.integers(min_value=-(10**30), max_value=10**30)
# near 0 the Cauchy floor -max(|a|, |b|) of a curve lands inside the window, so
# blocks of a few curves, mixed with huge ones, each cut the window at their own floor
_SMALL_COEFF = st.one_of(st.integers(-12, 12), st.integers(-2000, 2000))


@st.composite
def _scan_cases(draw):
    """Curves that share one x-window, some with a planted point in it, and
    how many curves a block holds (None: as many as ``_CHUNK`` allows)."""
    if draw(st.booleans()):
        span = draw(st.sampled_from([s for s in _SPANS if s >= _scan._MIN_SPAN]))
        x_lo = draw(st.integers(-3000, 3000))
        coeff = st.one_of(_SMALL_COEFF, _COEFF)
        per_block = st.integers(1, 8)
    else:
        span = draw(st.sampled_from(_SPANS))
        x_lo = draw(
            st.one_of(
                st.integers(min_value=-(10**6), max_value=10**6),
                st.integers(min_value=10**19 - 10**6, max_value=10**19 + 10**6),
                st.integers(min_value=-(10**19) - 10**6, max_value=-(10**19) + 10**6),
            )
        )
        coeff = _COEFF
        per_block = st.one_of(st.none(), st.integers(1, 8))
    # the reference scan takes one Python step per x-value: few curves on long windows
    count = draw(st.integers(0, 40 if span < _scan._CHUNK // 2 else 2))
    a = draw(st.lists(coeff, min_size=count, max_size=count))
    b = draw(st.lists(coeff, min_size=count, max_size=count))
    for i in range(count):
        if draw(st.booleans()):
            # choose b so that (x0, y) lies on curve i: at least one point to find
            x0 = x_lo + draw(st.integers(0, span - 1))
            y = draw(st.integers(0, 10**40))
            b[i] = y * y - x0**3 - a[i] * x0
    return a, b, x_lo, span, draw(per_block)


# curves y^2 = x^3 + i x + 1, each through (0, 1), one more than a block holds on a short window
_SPAN_BELOW = _scan._MIN_SPAN - 1
_OVER_ONE_BLOCK = _scan._CHUNK // _scan._MIN_SPAN + 1


@given(_scan_cases())
@example(
    (list(range(_OVER_ONE_BLOCK)), [1] * _OVER_ONE_BLOCK, -(_SPAN_BELOW // 2), _SPAN_BELOW, None)
)
# (-2, 1) on y^2 = x^3 + 9 lies below the floor -1 of y^2 = x^3 + 1: one block
# takes the lower floor, and two blocks of one curve each take their own
@example(([0, 0], [1, 9], -100, _scan._MIN_SPAN, 2))
@example(([0, 0], [1, 9], -100, _scan._MIN_SPAN, 1))
# a lone curve's point alone in its second chunk, which starts at another phase
@example(([0], [25 - 70000**3], 70000 - _scan._CHUNK, _scan._CHUNK + 1, None))
@settings(max_examples=80, deadline=None)
def test_sieve_matches_reference_scan(case):
    a, b, x_lo, span, per_block = case
    x_hi = x_lo + span - 1
    want = [_scan_py.scan_range(a[i], b[i], x_lo, x_hi) for i in range(len(a))]
    # a block of per_block curves puts block boundaries among a few dozen curves;
    # a block is sized as if its window were at least _MIN_SPAN wide
    chunk = _scan._CHUNK if per_block is None else per_block * max(span, _scan._MIN_SPAN)
    with mock.patch.object(_scan, "_CHUNK", chunk):
        found = list(_scan.scan_curves(a, b, x_lo, x_hi))
    assert found == [(i, x, y) for i, pts in enumerate(want) for x, y in pts]
    if a:
        assert _scan.scan_range(a[0], b[0], x_lo, x_hi) == want[0]


def _square_rows(m):
    """r[(a mod m) * m + (b mod m), x mod m]: x^3 + a x + b is a square mod m."""
    a, b, x = np.ogrid[:m, :m, :m]
    return np.isin((x**3 + a * x + b) % m, np.arange(m) ** 2 % m).reshape(m * m, m)


@pytest.mark.parametrize("j, m", list(enumerate(_scan._MODULI)))
def test_packed_table_bits_match_square_rows(j, m):
    table = _scan._TABLES[j]
    assert table.dtype == np.uint8 and table.shape == (m * m, m)
    x = np.arange(8 * m)
    # bit x of a row is bit 7 - x % 8 of byte x // 8: most significant first
    bits = table[:, x // 8] >> (7 - x % 8) & 1
    rows = _square_rows(m)
    assert np.array_equal(bits, rows[:, x % m])
    # and the reference itself against the definition, on a sample
    rng = random.Random(m)
    for a, b, x0 in ([rng.randrange(m) for _ in range(3)] for _ in range(300)):
        square = any((y * y - (x0**3 + a * x0 + b)) % m == 0 for y in range(m))
        assert rows[a * m + b, x0] == square


def test_one_packed_table_per_modulus():
    assert len(_scan._TABLES) == len(_scan._MODULI)
    assert sum(t.nbytes for t in _scan._TABLES) == sum(m**3 for m in _scan._MODULI) == 812_086


def _planted_curves(xs, a=3, y=7):
    """One curve y^2 = x^3 + a x + b through (x0, y) for each x0 of xs."""
    return [a] * len(xs), [y * y - x0**3 - a * x0 for x0 in xs]


def _reference(a, b, x_lo, x_hi):
    return [(i, x, y) for i in range(len(a)) for x, y in _scan_py.scan_range(a[i], b[i], x_lo, x_hi)]


def _edge_windows():
    """Windows with each end at every residue mod 8, one-x windows, and
    windows at negative x and past int64, all shorter than _MIN_SPAN."""
    for base in (40, -104, -(10**19) - 8, 10**19 - 10**19 % 8):
        for r_lo in range(8):
            for r_hi in range(8):
                yield base + r_lo, base + 32 + r_hi
    for x in (0, 7, 8, -1, -8, -9, 10**19 + 3, -(10**19) + 5):
        yield x, x


def test_scan_window_edges_match_reference():
    for x_lo, x_hi in _edge_windows():
        # points just outside the window share its end bytes, except at a byte boundary
        a, b = _planted_curves([x_lo - 1, x_lo, x_hi, x_hi + 1, (x_lo + x_hi) // 2])
        want = _reference(a, b, x_lo, x_hi)
        assert {x for _, x, _ in want} >= {x_lo, x_hi}
        assert list(_scan.scan_curves(a, b, x_lo, x_hi)) == want, (x_lo, x_hi)
        for i in range(len(a)):
            want_i = [(x, y) for j, x, y in want if j == i]
            assert _scan.scan_range(a[i], b[i], x_lo, x_hi) == want_i, (x_lo, x_hi, i)


@pytest.mark.parametrize("chunk", [None, 201])
def test_scan_skips_a_block_whose_cauchy_floor_is_above_the_window(chunk):
    # y^2 = x^3 + 10^6 x + b has a point at -250; the other curves have no
    # real root below -2, so with one curve per block their blocks start above x_hi
    x_lo, x_hi = -300, -100
    a, b = [10**6, 0, 2, 1], [4 - (-250) ** 3 - 10**6 * -250, 1, -1, 2]
    want = _reference(a, b, x_lo, x_hi)
    assert want == [(0, -250, 2)]
    with mock.patch.object(_scan, "_CHUNK", chunk or _scan._CHUNK):
        assert list(_scan.scan_curves(a, b, x_lo, x_hi)) == want
        assert list(_scan.scan_curves(a[1:], b[1:], x_lo, x_hi)) == []
        # an empty window: every block's floor is above it
        assert list(_scan.scan_curves(a, b, x_hi, x_lo)) == []


_UNIVERSAL_T8 = list(enumerate_family(Family.UNIVERSAL, 8))


@pytest.mark.parametrize(
    "curves, x_bound, bytes_per_cell",
    [
        # seven tiles of a pass hold about an eighth of a byte per cell each
        (list(enumerate_family(Family.UNIVERSAL, 4)), 3000, 2),
        ([CurveModel(0, -2)], 2_000_000, 2),
        # on a short window each curve still tiles about 524 bytes of rows
        (_UNIVERSAL_T8, 3, 12),
        (_UNIVERSAL_T8, 22, 12),
    ],
    ids=["census-T4", "fermat", "T8-x3", "T8-x22"],
)
def test_scan_working_memory_is_bounded_by_chunk(curves, x_bound, bytes_per_cell):
    a, b = [c.a for c in curves], [c.b for c in curves]
    want = list(_scan.scan_curves(a, b, -x_bound, x_bound))
    # 2^15 cells a pass: blocks of 5 census curves, 62 chunks of the lone curve,
    # or blocks of 256 T = 8 curves, sized as if the window were _MIN_SPAN wide
    chunk = 1 << 15
    with mock.patch.object(_scan, "_CHUNK", chunk):
        assert list(_scan.scan_curves(a, b, -x_bound, x_bound)) == want
        tracemalloc.start()
        try:
            collections.deque(_scan.scan_curves(a, b, -x_bound, x_bound), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bytes_per_cell * chunk


@pytest.mark.parametrize(
    "family, T", [(Family.UNIVERSAL, 8), (Family.MORDELL, 20), (Family.B0, 20), (Family.CONGRUENT, 20)]
)
def test_small_point_statistics_scans_the_family_at_once(family, T, scan_calls):
    exponent = 1.5
    x_cut = int(T**exponent)
    curves = list(enumerate_family(family, T))
    want = sum(len(integral_points(c, x_cut)) for c in curves)
    # a quiet fall-back to one scan per curve would make one scan call per curve
    scan_calls.clear()
    stats = small_point_statistics(family, T, exponent)
    assert want > 0
    assert (stats["triple_count"], stats["family_size"]) == (want, len(curves))
    assert scan_calls == ["scan_curves"]


@pytest.mark.parametrize(
    "family, T, exponent",
    [
        # rows of 125 to 127 curves are scanned, rows of 130 to 133 counted
        (Family.UNIVERSAL, 6.9, 2),
        (Family.UNIVERSAL, 7, 2),
        (Family.UNIVERSAL, 7, 3),
        # exponent 0 is the window |x| <= 1
        (Family.UNIVERSAL, 8, 0),
        (Family.MORDELL, 20, 0),
        # one row of 3,026 curves over |x| <= 8000: v + b_lo < 0 and
        # v + b_hi < 0 at negative x, and y = 0 where -x^3 is a member b
        (Family.MORDELL, 20, 3),
        # rows of one curve: all scanned
        (Family.B0, 20, 3),
        (Family.CONGRUENT, 20, 3),
    ],
)
def test_small_point_statistics_matches_per_curve_points(family, T, exponent):
    x_cut = max(1, int(T**exponent))
    curves = list(enumerate_family(family, T))
    want = sum(len(integral_points(c, x_cut)) for c in curves)
    stats = small_point_statistics(family, T, exponent)
    assert (stats["triple_count"], stats["family_size"]) == (want, len(curves))


@pytest.mark.parametrize(
    "family, T, exponent, scanned",
    [
        # every universal T = 8 row holds 194 curves or more: the scan gets none
        (Family.UNIVERSAL, 8, 1.5, 0),
        # every T = 6.9 row holds 127 or fewer: the scan gets all 7,484 curves
        (Family.UNIVERSAL, 6.9, 2, 7484),
        (Family.B0, 20, 1.5, 466),
    ],
)
def test_small_point_statistics_scans_only_the_narrow_rows(family, T, exponent, scanned, monkeypatch):
    sent = []
    scan_curves = _scan.scan_curves

    def recording(a, b, lo, hi):
        sent.append(len(a))
        return scan_curves(a, b, lo, hi)

    monkeypatch.setattr(_scan, "scan_curves", recording)
    small_point_statistics(family, T, exponent)
    assert sent == [scanned]


@pytest.mark.parametrize("family, T", [(Family.CONGRUENT, 1), (Family.B0, 1), (Family.UNIVERSAL, 1)])
def test_small_point_statistics_rejects_an_empty_slice_before_scanning(family, T, scan_calls):
    with pytest.raises(ValueError, match="empty family slice"):
        small_point_statistics(family, T, 0)
    assert scan_calls == []


@pytest.mark.parametrize("T", [math.inf, math.nan, 0.5])
def test_small_point_statistics_rejects_bad_T(T):
    with pytest.raises(ValueError, match="T must be finite and >= 1"):
        small_point_statistics(Family.UNIVERSAL, T, 1.5)


def test_integral_points_fermat():
    pts = integral_points(CurveModel(0, -2), 10**4)
    assert pts == [(3, -5), (3, 5)]


def test_integral_points_fermat_past_int64_guard():
    # |x|^3 passes 2^62 from |x| ~ 1.66e6 on; the scan stays exact there
    assert integral_points(CurveModel(0, -2), 2_000_000) == [(3, -5), (3, 5)]


def test_integral_points_sorted_and_symmetric():
    pts = integral_points(CurveModel(-2, 5), 10**4)
    assert pts == sorted(pts)
    assert all((x, -y) in pts for x, y in pts)


def test_mod3_obstruction_flag():
    assert mod3_obstruction(CurveModel(2, 2))
    assert mod3_obstruction(CurveModel(-1, -4))
    assert not mod3_obstruction(CurveModel(1, 2))


def test_census_universal_T2():
    summary = census(Family.UNIVERSAL, 2, 1000)
    assert summary.curve_count == 14
    assert summary.total_points == sum(r.integral_count for r in summary.rows)
    assert summary.average == pytest.approx(summary.total_points / 14)


@pytest.mark.parametrize("x_bound", [40, 1000])
def test_census_scans_its_curves_at_once(x_bound, scan_calls):
    # at 1000 a block holds 65 curves, at 40 all 602; a curve may repeat
    family = list(enumerate_family(Family.UNIVERSAL, 4))
    curves = family + family[::7] + [CurveModel(0, -2)] * 2 + family[:3]
    want = [integral_points(c, x_bound) for c in curves]
    scan_calls.clear()
    summary = census(Family.UNIVERSAL, 4, x_bound, curves=curves)
    assert scan_calls == ["scan_curves"]
    assert [(r.curve, r.integral_count, r.points, r.x_bound_used) for r in summary.rows] == [
        (c, len(pts), pts, x_bound) for c, pts in zip(curves, want)
    ]
    assert summary.total_points == sum(map(len, want)) > 0


@pytest.mark.parametrize("T", [math.inf, math.nan, 0.5])
def test_census_rejects_bad_T_with_curves(T):
    with pytest.raises(ValueError, match="T must be finite and >= 1"):
        census(Family.UNIVERSAL, T, 100, curves=[CurveModel(0, -2)])


def test_census_rejects_empty_slice():
    with pytest.raises(ValueError):
        census(Family.CONGRUENT, 1, 100)


def test_backend_name_reports_build():
    assert scan_backend_name() == "sieve"
