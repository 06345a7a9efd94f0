import collections
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

import sympy

from integral_census import heights
from integral_census.divpoly import multiply_point
from integral_census.families import CurveModel, Family, enumerate_family
from integral_census.heights import (
    canonical_height,
    global_difference_bound,
    height_pairing,
    weil_height,
)
from integral_census.points import CurvePoint, add, integral_points, negate


def _random_curve_point(rng):
    while True:
        x, y, a = rng.randint(-9, 9), rng.randint(1, 9), rng.randint(-9, 9)
        b = y * y - x**3 - a * x
        curve = CurveModel(a, b)
        if curve.disc() != 0:
            return curve, CurvePoint.affine(x, y)


def test_weil_height_values():
    assert weil_height(CurvePoint.affine(3, 5)) == pytest.approx(math.log(3))
    assert weil_height(CurvePoint.affine(Fraction(2, 7), 1)) == pytest.approx(
        math.log(7)
    )
    assert weil_height(CurvePoint.affine(0, 1)) == 0.0


def test_canonical_height_limit_definition():
    """h_hat must match the quadratic limit h(2^n P) / 4^n within B_E / 4^n."""
    rng = random.Random(31)
    for _ in range(8):
        curve, p = _random_curve_point(rng)
        prof = canonical_height(curve, p, 1e-10)
        if prof.is_torsion:
            continue
        q = multiply_point(curve, p, 64)
        oracle = weil_height(q) / 4096
        assert abs(prof.canonical - oracle) <= global_difference_bound(curve) / 4096


def test_local_sum_equals_total():
    curve = CurveModel(1, 6)
    prof = canonical_height(curve, CurvePoint.affine(3, 6), 1e-10)
    assert sum(prof.local.values()) == pytest.approx(prof.canonical, abs=1e-9)
    assert "infinity" in prof.local


def test_torsion_height_is_zero():
    curve = CurveModel(0, 1)
    prof = canonical_height(curve, CurvePoint.affine(2, 3), 1e-10)
    assert prof.is_torsion and prof.canonical == 0.0
    two = canonical_height(curve, CurvePoint.affine(-1, 0), 1e-10)
    assert two.is_torsion and two.canonical == 0.0


@pytest.mark.parametrize(
    "a, b, point, order",
    [
        (0, 1, (2, 3), 6),
        (0, 1, (0, 1), 3),
        (0, 1, (-1, 0), 2),
        (0, 1, (0, -1), 3),
        (-43, 166, (3, 8), 7),
        # y^2 = 1600 divides 4a^3 + 27b^2 = 716800, and y^3 does not
        (37, -138, (11, 40), 4),
    ],
)
def test_torsion_points_are_flagged(a, b, point, order):
    assert heights._torsion_order(CurveModel(a, b), CurvePoint.affine(*point)) == order


def _counting_add(monkeypatch):
    calls = []

    def counted(curve, p, q):
        calls.append(1)
        return add(curve, p, q)

    monkeypatch.setattr(heights, "add", counted)
    return calls


def test_torsion_pretest_rejects_without_additions(monkeypatch):
    curve, p = CurveModel(0, -2), CurvePoint.affine(3, 5)
    twice = add(curve, p, p)  # x = 129/100
    calls = _counting_add(monkeypatch)
    # 5^2 does not divide 4*0 + 27*4 = 108, and 2P has a non-integral x
    assert heights._torsion_order(curve, p) is None
    assert heights._torsion_order(curve, twice) is None
    assert calls == []


def test_torsion_pretest_passes_nontorsion_point_to_the_loop(monkeypatch):
    # y^2 = x^3 - 6x at (3, 3): 3^2 divides 4(-6)^3 = -864, yet the point
    # has infinite order; 2P has x = 25/4, and a multiple of a torsion point
    # has an integral x, so the loop stops after one addition
    curve, p = CurveModel(-6, 0), CurvePoint.affine(3, 3)
    assert add(curve, p, p).x == Fraction(25, 4)
    calls = _counting_add(monkeypatch)
    assert heights._torsion_order(curve, p) is None
    assert len(calls) == 1
    assert canonical_height(curve, p).canonical > 0.1


# canonical heights as computed before the archimedean series was rewritten
# with one log and an exact ldexp per term; the last two points have
# |x| < 0.5 and go through _lambda_inf_backward
_FROZEN_CANONICAL = [
    ((0, -2), (3, 5), 1e-8, 1.349576835661059),
    ((0, -2), (3, 5), 1e-10, 1.349576835679619),
    ((-2, 5), (1, 2), 1e-8, 0.9906625519770608),
    ((-2, 5), (1, 2), 1e-10, 0.9906625519854129),
    ((0, 17), (8, 23), 1e-8, 1.8184674606661957),
    ((0, 17), (8, 23), 1e-10, 1.818467460736705),
    ((-3, 4), (0, 2), 1e-8, 0.8999585094543338),
    ((-3, 4), (0, 2), 1e-10, 0.899958509465108),
    ((0, 17), ("1/4", "33/8"), 1e-8, 2.2450205026337198),
    ((0, 17), ("1/4", "33/8"), 1e-10, 2.2450205026377135),
]


@pytest.mark.parametrize("ab, xy, goal, want", _FROZEN_CANONICAL)
def test_canonical_height_frozen_values(ab, xy, goal, want, monkeypatch):
    backward = []
    original = heights._lambda_inf_backward

    def counting(*args):
        backward.append(1)
        return original(*args)

    monkeypatch.setattr(heights, "_lambda_inf_backward", counting)
    pt = CurvePoint(Fraction(xy[0]), Fraction(xy[1]))
    assert canonical_height(CurveModel(*ab), pt, goal).canonical == want
    assert bool(backward) == (abs(pt.x) < Fraction(1, 2))


def _operator_lambda_inf(curve, x0, precision_goal, depth=0):
    """The archimedean series in mpf operator form, as heights._lambda_inf
    ran it before its loop moved to raw libmp calls: the oracle for its bits."""
    a, b = curve.a, curve.b
    if depth > 12:
        raise heights.PrecisionError("archimedean recursion depth exhausted")
    if x0 == 0 or abs(x0) < mp.mpf("0.5"):
        return _operator_lambda_inf_backward(curve, x0, precision_goal, depth)
    t = 1 / x0
    total = mp.log(abs(x0))
    acc = mp.mpf(0)
    recent = mp.mpf(1)
    for n in range(500):
        t3, t4 = t**3, t**4
        z = 1 - 2 * a * t * t - 8 * b * t3 + a * a * t4
        if z == 0:
            return _operator_lambda_inf_backward(curve, x0, precision_goal, depth)
        L = mp.log(abs(z))
        acc += mp.ldexp(L, -2 * n)
        recent = max(abs(L), mp.mpf(1))
        if mp.ldexp(recent, 2 - 2 * n) / 3 < precision_goal / 8:
            return total + acc / 4
        w = 4 * t + 4 * a * t3 + 4 * b * t4
        t = w / z
    raise heights.PrecisionError("archimedean series did not converge in 500 terms")


def _operator_lambda_inf_backward(curve, x0, precision_goal, depth):
    a, b = curve.a, curve.b
    y2 = x0**3 + a * x0 + b
    if y2 == 0:
        raise heights.PrecisionError("archimedean height at a branch point")
    x2 = (x0 * x0 - a) ** 2 - 8 * b * x0
    x2 /= 4 * y2
    lam2 = _operator_lambda_inf(curve, x2, precision_goal, depth + 1)
    return (lam2 + mp.log(abs(4 * y2))) / 4


def _survey_pool_points():
    """The non-torsion points whose heights a gap survey over the universal
    T = 3 curves at |x| <= 1000 and Weil height >= 0.5 computes: both points
    of every pair and their sum.  The benchmark's survey draws its pairs
    from this pool, and its T = 2.5 survey visits a part of it."""
    out = {}
    for curve in enumerate_family(Family.UNIVERSAL, 3):
        pts = [
            CurvePoint.affine(*pt)
            for pt in integral_points(curve, 1000)
            if weil_height(CurvePoint.affine(*pt)) >= 0.5
        ]
        for i, p in enumerate(pts):
            for r in pts[i + 1 :]:
                if p.x == r.x and p.y == -r.y:
                    continue
                for q in (p, r, add(curve, p, r)):
                    if not q.is_identity and heights._torsion_order(curve, q) is None:
                        out[curve, q.x] = None
    return list(out)


@pytest.mark.parametrize("goal", [1e-8, 1e-10])
def test_lambda_inf_matches_operator_oracle(goal, monkeypatch):
    backward = []
    original = heights._lambda_inf_backward

    def counting(*args):
        backward.append(1)
        return original(*args)

    monkeypatch.setattr(heights, "_lambda_inf_backward", counting)
    cases = [(CurveModel(*ab), Fraction(xy[0])) for ab, xy, _, _ in _FROZEN_CANONICAL]
    # two more |x| < 0.5 points, for the backward path: (0, 1) on
    # y^2 = x^3 + 2x + 1 and on y^2 = x^3 - x + 1
    cases += [(CurveModel(2, 1), Fraction(0)), (CurveModel(-1, 1), Fraction(0))]
    pool = _survey_pool_points()
    assert len(pool) >= 100
    cases += pool
    dps = int(-mp.log10(mp.mpf(goal))) + 35  # as canonical_height sets it
    with mp.workdps(dps):
        mp_goal = mp.mpf(goal)
        for curve, x in cases:
            x0 = mp.mpf(x.numerator) / mp.mpf(x.denominator)
            want = _operator_lambda_inf(curve, x0, mp_goal)
            assert heights._lambda_inf(curve, x0, mp_goal)._mpf_ == want._mpf_, (curve, x)
    assert len(backward) >= sum(abs(x) < Fraction(1, 2) for _, x in cases) >= 6


def _check_coefficients_against_ladder(curve, pt, kinds):
    """At every p | Delta e, the coefficient canonical_height uses (0 off the
    primes of e and g) equals the p-adic ladder's; kinds counts each case."""
    coeffs = heights._local_coefficients(curve, pt)
    e = math.isqrt(pt.x.denominator)
    primes = set(sympy.factorint(abs(curve.disc()))) | set(sympy.factorint(e))
    assert set(coeffs) <= primes and all(coeffs.values()), (curve, pt, coeffs)
    for p in primes:
        assert coeffs.get(p, 0) == heights._lambda_p_exact(curve, p, pt), (curve, pt, p)
        minimal = heights._vp(curve.disc(), p) < 12
        if e % p == 0:
            kinds["e"] += 1
        elif p not in coeffs:
            kinds["zero" if minimal else "zero, v_p(Delta) >= 12"] += 1
        else:
            kinds["g, formula" if minimal else "g, ladder"] += 1


def _points_and_sums(curve, x_bound, per_point=2):
    pts = [CurvePoint.affine(*q) for q in integral_points(curve, x_bound)]
    for i, p in enumerate(pts):
        for q in [p] + [add(curve, p, r) for r in pts[i + 1 : i + 1 + per_point]]:
            if not q.is_identity and heights._torsion_order(curve, q) is None:
                yield q


def test_local_height_formula_matches_ladder():
    """On the universal family at T <= 3, at integral points and at sums of
    them, the ladder gives 0 at every p | Delta off e and g, 2 v_p(e) at the
    primes of e and the closed form at the primes of g."""
    kinds = collections.Counter()
    checked = 0
    for curve in enumerate_family(Family.UNIVERSAL, 3):
        for q in _points_and_sums(curve, 300):
            _check_coefficients_against_ladder(curve, q, kinds)
            checked += 1
    assert checked > 300
    assert min(kinds[k] for k in ("e", "zero", "g, formula")) > 50, kinds


@pytest.mark.parametrize("u", [2, 3, 6])
def test_local_coefficients_match_ladder_on_rescaled_models(u):
    """The same oracle on the (u^4 a, u^6 b) models, which are not minimal
    at the primes of u; the ladder runs there whenever P is singular mod p."""
    kinds = collections.Counter()
    for curve in enumerate_family(Family.UNIVERSAL, 3):
        scaled = CurveModel(u**4 * curve.a, u**6 * curve.b)
        for q in _points_and_sums(curve, 100, per_point=1):
            sq = CurvePoint(u * u * q.x, u**3 * q.y)
            _check_coefficients_against_ladder(scaled, sq, kinds)
    assert min(kinds[k] for k in ("e", "zero, v_p(Delta) >= 12", "g, ladder")) > 0, kinds


def test_local_coefficients_when_3x2_plus_a_vanishes():
    """On y^2 = x^3 - 3x + 11 at (1, 3), 3m^2 + a e^4 = 0, so g = gcd(2n, 0)
    = 2|n| = 6.  The heights of P and its multiples are pinned to the values
    computed when every prime of Delta = -2^4 3^5 13 was visited."""
    curve, p = CurveModel(-3, 11), CurvePoint.affine(1, 3)
    assert 3 * p.x**2 + curve.a == 0
    assert heights._local_coefficients(curve, p) == {
        2: Fraction(-1, 2), 3: Fraction(-2, 3)
    }
    want = [0.16766821465486972, 0.6706728586194799, 1.5090139318938318,
            2.682691434477922, 4.191705366371734]
    kinds = collections.Counter()
    for k, h in enumerate(want, 1):
        q = multiply_point(curve, p, k)
        _check_coefficients_against_ladder(curve, q, kinds)
        assert canonical_height(curve, q).canonical == h
    assert kinds["zero"] >= 5  # 13 never contributes


def test_canonical_height_never_factors_the_discriminant(monkeypatch):
    """Delta = 2^10 5 7 p17 p21 (primes of 17 and 21 digits): factoring it
    took 97 s on a 2-core VM, and the height needs only e = 1 and g = 8."""
    curve = CurveModel(-885543525803, 25701395540311979882)
    p = CurvePoint.affine(813653, 5051686260)
    seen = []
    original = heights._factorint

    def recording(n):
        seen.append(n)
        return original(n)

    monkeypatch.setattr(heights, "_factorint", recording)
    prof = canonical_height(curve, p)
    assert prof.canonical == 14.328718000947145
    assert sorted(seen) == [1, 8]
    assert set(prof.local) == {"infinity", "2"}


# (a, b, point): the first two are curves where the formula, if it were
# applied at the non-minimal prime of the rescaled model (p = 2 and p = 3),
# would give -11/4 where the ladder gives -8/3
RESCALED = [(-8, 1, (-2, 3)), (-3, 7, (-1, 3)), (0, -2, (3, 5)), (-7, 10, (1, 2))]


@pytest.mark.parametrize("u", [2, 3, 6])
@pytest.mark.parametrize("a, b, point", RESCALED)
def test_canonical_height_invariant_under_rescaling(a, b, point, u):
    curve, p = CurveModel(a, b), CurvePoint.affine(*point)
    scaled = CurveModel(u**4 * a, u**6 * b)
    sp = CurvePoint.affine(u * u * point[0], u**3 * point[1])
    for q in sympy.factorint(u):
        # v_q(Delta) >= 12 on the rescaled model: the ladder must run
        assert heights._lambda_p_formula(scaled, q, sp) is None
    h = canonical_height(curve, p).canonical
    assert canonical_height(scaled, sp).canonical == pytest.approx(h, abs=1e-9)


def test_doubling_negation_parallelogram():
    rng = random.Random(77)
    checked = 0
    while checked < 10:
        curve, p = _random_curve_point(rng)
        prof = canonical_height(curve, p, 1e-10)
        if prof.is_torsion:
            continue
        checked += 1
        h1 = prof.canonical
        d = add(curve, p, p)
        h2 = canonical_height(curve, d, 1e-10).canonical
        assert abs(h2 - 4 * h1) < 1e-8
        hn = canonical_height(curve, negate(p), 1e-10).canonical
        assert abs(hn - h1) < 1e-9
        # parallelogram with q = 2p: h(p+q) + h(p-q) = 2h(p) + 2h(q)
        s = add(curve, p, d)
        t = add(curve, p, negate(d))
        hs = canonical_height(curve, s, 1e-10).canonical
        ht = (
            0.0
            if t.is_identity
            else canonical_height(curve, t, 1e-10).canonical
        )
        assert abs(hs + ht - 2 * h1 - 2 * h2) < 1e-7


def test_height_pairing_symmetry_and_norm():
    curve = CurveModel(-7, 10)
    p = CurvePoint.affine(1, 2)
    q = CurvePoint.affine(3, 4)
    pq = height_pairing(curve, p, q, 1e-10)
    qp = height_pairing(curve, q, p, 1e-10)
    assert pq["pairing"] == pytest.approx(qp["pairing"], abs=1e-9)
    self_pair = height_pairing(curve, p, p, 1e-10)
    hp = canonical_height(curve, p, 1e-10).canonical
    assert self_pair["pairing"] == pytest.approx(hp, abs=1e-8)
    assert self_pair["cos_angle"] == pytest.approx(1.0, abs=1e-6)


def test_height_pairing_undefined_for_torsion():
    curve = CurveModel(0, 1)
    res = height_pairing(curve, CurvePoint.affine(2, 3), CurvePoint.affine(0, 1))
    assert res["cos_angle"] is None


def test_gap_report_keys():
    curve, p = CurveModel(0, -2), CurvePoint.affine(3, 5)
    rep = heights._height_gap(curve, p, canonical_height(curve, p, 1e-10))
    assert set(rep) == {"lhs", "model", "residual"}
    assert rep["lhs"] == pytest.approx(rep["model"] + rep["residual"])


def test_precision_goal_validation():
    with pytest.raises(ValueError):
        canonical_height(CurveModel(0, -2), CurvePoint.affine(3, 5), 1.0)
    with pytest.raises(ValueError):
        canonical_height(CurveModel(0, -2), CurvePoint.affine(2, 2), 1e-10)
