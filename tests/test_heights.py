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


# The p-adic ladder: double P in capped-precision p-adic arithmetic, record
# c_j = v_p(2 y(2^j P)), detect the eventually affine-periodic pattern and
# sum the telescoping series in closed form.  It assumes no minimality: the
# bounded solution of the local duplication identity is unique, and the
# series computes it.  It is the oracle for heights' closed form on a
# minimal model.


class _PAdic:
    """p-adic number known modulo p^aprec, stored as p^val * unit."""

    __slots__ = ("p", "val", "unit", "aprec")

    def __init__(self, p, val, unit, aprec):
        self.p = p
        if unit == 0:
            self.val = aprec  # exact-zero-so-far marker
            self.unit = 0
        else:
            self.val = val
            self.unit = unit
        self.aprec = aprec

    @staticmethod
    def from_fraction(p: int, q: Fraction, digits: int) -> "_PAdic":
        num, den = q.numerator, q.denominator
        if num == 0:
            return _PAdic(p, digits, 0, digits)
        vn = heights._vp(num, p)
        vd = heights._vp(den, p)
        val = vn - vd
        k = digits
        mod = p ** k
        un = (num // p**vn) % mod
        ud = (den // p**vd) % mod
        unit = un * pow(ud, -1, mod) % mod
        return _PAdic(p, val, unit, val + k)

    def _norm(self):
        # re-extract extra valuation hiding in the unit after add/sub
        if self.unit == 0:
            self.val = self.aprec
            return self
        v = heights._vp(self.unit, self.p)
        if v:
            self.val += v
            self.unit //= self.p**v
        k = self.aprec - self.val
        if k <= 0:
            self.unit = 0
            self.val = self.aprec
        else:
            self.unit %= self.p**k
            if self.unit == 0:
                self.val = self.aprec
        return self

    def is_unknown_zero(self) -> bool:
        return self.unit == 0

    def mul(self, o: "_PAdic") -> "_PAdic":
        aprec = min(self.aprec + o.val, o.aprec + self.val)
        val = self.val + o.val
        if self.unit == 0 or o.unit == 0:
            return _PAdic(self.p, aprec, 0, aprec)
        k = aprec - val
        unit = (self.unit * o.unit) % self.p**k if k > 0 else 0
        return _PAdic(self.p, val, unit, aprec)._norm()

    def div(self, o: "_PAdic") -> "_PAdic":
        if o.unit == 0:
            raise heights.PrecisionError("p-adic division by unresolved zero")
        aprec = min(self.aprec - o.val, o.aprec + self.val - 2 * o.val)
        val = self.val - o.val
        if self.unit == 0:
            return _PAdic(self.p, aprec, 0, aprec)
        k = aprec - val
        if k <= 0:
            return _PAdic(self.p, aprec, 0, aprec)
        mod = self.p**k
        unit = self.unit % mod * pow(o.unit % mod, -1, mod) % mod
        return _PAdic(self.p, val, unit, aprec)._norm()

    def add(self, o: "_PAdic") -> "_PAdic":
        aprec = min(self.aprec, o.aprec)
        v = min(self.val, o.val)
        k = aprec - v
        if k <= 0:
            return _PAdic(self.p, aprec, 0, aprec)
        mod = self.p**k
        s = (self.unit * self.p ** (self.val - v) + o.unit * self.p ** (o.val - v)) % mod
        return _PAdic(self.p, v, s, aprec)._norm()

    def sub(self, o: "_PAdic") -> "_PAdic":
        return self.add(_PAdic(o.p, o.val, -o.unit % (o.p ** max(o.aprec - o.val, 1)) if o.unit else 0, o.aprec))


def _padic_valuation_sequence(
    curve: CurveModel, p: int, pt: CurvePoint, count: int, digits: int
) -> list[int]:
    """c_j = v_p(2 y(2^j P)) for j = 0..count-1."""
    a = _PAdic.from_fraction(p, Fraction(curve.a), digits)
    x = _PAdic.from_fraction(p, pt.x, digits)
    y = _PAdic.from_fraction(p, pt.y, digits)
    three = _PAdic.from_fraction(p, Fraction(3), digits)
    two = _PAdic.from_fraction(p, Fraction(2), digits)
    out = []
    for _ in range(count):
        ty = two.mul(y)
        if ty.is_unknown_zero():
            raise heights.PrecisionError("p-adic precision exhausted in doubling")
        out.append(ty.val)
        num = three.mul(x).mul(x).add(a)
        m = num.div(ty)
        x2 = m.mul(m).sub(x).sub(x)
        y2 = m.mul(x.sub(x2)).sub(y)
        x, y = x2, y2
    return out


def _affine_periodic_tail(c: list[int]) -> Fraction:
    """Sum_{j>=0} c_j / 4^(j+1) for an eventually affine-periodic sequence.

    Detects c_{j+T} = c_j + T*a for all j >= j0 and sums the tail exactly.
    """
    J = len(c)
    for T in range(1, 13):
        for j0 in range(0, J - 3 * T):
            diffs = {c[j + T] - c[j] for j in range(j0, J - T)}
            if len(diffs) == 1:
                step = diffs.pop()
                if step % T and T > 1:
                    continue
                head = sum(Fraction(c[j], 4 ** (j + 1)) for j in range(j0))
                tail = Fraction(0)
                r = Fraction(1, 4**T)
                geo = 1 / (1 - r)
                drift = r / (1 - r) ** 2
                for i in range(T):
                    q = Fraction(1, 4 ** (j0 + i + 1))
                    tail += c[j0 + i] * q * geo + step * q * drift
                return head + tail
    raise heights.PrecisionError("no affine-periodic pattern in valuation sequence")


def _lambda_p_exact(curve: CurveModel, p: int, pt: CurvePoint) -> Fraction:
    """Exact coefficient q with local height q * log p at the prime p."""
    for count, digits in ((40, 64), (64, 160), (96, 400)):
        try:
            c = _padic_valuation_sequence(curve, p, pt, count, digits)
            return -2 * _affine_periodic_tail(c)
        except heights.PrecisionError:
            continue
    raise heights.PrecisionError(f"local height at p = {p} did not stabilize")


def _check_coefficients_against_ladder(curve, pt, kinds):
    """At every p | Delta e, the coefficient canonical_height uses (0 off the
    primes of e and g) equals the p-adic ladder's; kinds counts each case."""
    coeffs = heights._local_coefficients(curve, pt)
    e = math.isqrt(pt.x.denominator)
    primes = set(sympy.factorint(abs(curve.disc()))) | set(sympy.factorint(e))
    assert set(coeffs) <= primes and all(coeffs.values()), (curve, pt, coeffs)
    for p in primes:
        assert coeffs.get(p, 0) == _lambda_p_exact(curve, p, pt), (curve, pt, p)
        small = heights._vp(curve.disc(), p) < 12
        if e % p == 0:
            kinds["e"] += 1
        elif p not in coeffs:
            kinds["zero" if small else "zero, v_p(Delta) >= 12"] += 1
        elif small:
            kinds["g, v_p(Delta) < 12"] += 1
        else:
            k = heights._change_of_model(curve, p)[0]
            kinds["g, reduced" if k else "g, minimal, v_p(Delta) >= 12"] += 1


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
    assert min(kinds[k] for k in ("e", "zero", "g, v_p(Delta) < 12")) > 50, kinds


@pytest.mark.parametrize("u", [2, 3, 4, 5, 6, 7, 9])
def test_local_coefficients_match_ladder_on_rescaled_models(u):
    """The same oracle on the (u^4 a, u^6 b) models, which are not minimal
    at the primes of u; the closed form runs on a reduced model there
    whenever P is singular mod p.  u = 5 and 7 take the p >= 5 branch, and
    u = 4 needs k = 2 changes at 2, and u = 9 at 3."""
    kinds = collections.Counter()
    for curve in enumerate_family(Family.UNIVERSAL, 3):
        scaled = CurveModel(u**4 * curve.a, u**6 * curve.b)
        for q in _points_and_sums(curve, 100, per_point=1):
            sq = CurvePoint(u * u * q.x, u**3 * q.y)
            _check_coefficients_against_ladder(scaled, sq, kinds)
    assert min(kinds[k] for k in ("e", "g, reduced")) > 0, kinds
    # at u = 9, 3 leaves g only at a point with 9 | e, and none of these has one
    assert (kinds["zero, v_p(Delta) >= 12"] > 0) == (u != 9), kinds


def test_local_coefficients_match_ladder_where_v_p_delta_is_large():
    """The oracle on every curve with |a|, |b| <= 24 and v_p(Delta) >= 12 at
    some p <= 7.  Most of these are minimal at p although v_p(c4) > 0, so
    the search for a change of model runs and finds none."""
    kinds = collections.Counter()
    for a in range(-24, 25):
        for b in range(-24, 25):
            curve = CurveModel(a, b)
            disc = curve.disc()
            if disc and any(heights._vp(disc, p) >= 12 for p in (2, 3, 5, 7)):
                for q in _points_and_sums(curve, 100, per_point=1):
                    _check_coefficients_against_ladder(curve, q, kinds)
    assert kinds["g, minimal, v_p(Delta) >= 12"] > 50, kinds
    assert kinds["g, reduced"] > 0, kinds


# short models y^2 = x^3 - 27 c4 x - 54 c6 of 37a1 (y^2 + y = x^3 - x), 53a1
# (y^2 + xy + y = x^3 - x^2) and 43a1 (y^2 + y = x^3 + x^2) at the image of
# (0, 0); the change (r, s, t) at 2 and at 3 that reaches a model minimal
# there; and the canonical height the ladder gave, kept to the bit.  The
# LMFDB regulator of 37.a1 is 0.0511114082399688.
SHORT_MODELS = [
    ((-1296, 11664), (0, 108), (0, 0, 4), (0, 0, 0), 0.05111140823991884),
    ((405, 16038), (-9, 108), (3, 1, 0), (0, 0, 0), 0.09298148463853623),
    ((-432, 15120), (12, 108), (0, 0, 4), (3, 0, 0), 0.06281650708675718),
]


@pytest.mark.parametrize("ab, point, at_2, at_3, h", SHORT_MODELS)
def test_local_coefficients_on_short_models(ab, point, at_2, at_3, h):
    """Each short model is quasiminimal at 2 (2^6 does not divide b) but not
    minimal there: its minimal model has a1 or a3 odd, so only a change with
    s or t nonzero reaches it.  At 3 the change is a rescaling for the first
    two and needs r != 0 for the third.  The models rescaled by 2 and 3 need
    k = 2, with that change second: its r and s enter times p^2 and p."""
    curve, p = CurveModel(*ab), CurvePoint.affine(*point)
    assert curve.b % 2**6
    multiples = [multiply_point(curve, p, n) for n in range(1, 7)]
    kinds, scaled_kinds = collections.Counter(), collections.Counter()
    for q, (r, s, t) in ((2, at_2), (3, at_3)):
        assert heights._reduce_once(curve, q, 0, 0, 0, 0) == (r, s, t)
        assert heights._change_of_model(curve, q) == (1, r, s)
        scaled = CurveModel(q**4 * curve.a, q**6 * curve.b)
        assert heights._change_of_model(scaled, q) == (2, q * q * r, q * s)
        for m in multiples:
            sm = CurvePoint(q * q * m.x, q**3 * m.y)
            _check_coefficients_against_ladder(scaled, sm, scaled_kinds)
    for m in multiples:
        _check_coefficients_against_ladder(curve, m, kinds)
    assert kinds["g, reduced"] >= 2, kinds
    assert scaled_kinds["g, reduced"] >= 4, scaled_kinds
    assert canonical_height(curve, p).canonical == h


def test_local_coefficients_at_multiplicative_reduction():
    """y^2 = x^3 - 2x - 21 has reduction I_4 at 5 (v_5(c4) = 0, v_5(Delta) =
    4), and P = (23, -110) lies on component 1 of 4: q = -M (N - M) / N with
    M = 1 gives -3/4, where the additive branch would give -2/3.  2P and 3P
    lie on components 2 and 3.  The universal family at T <= 3 reaches only
    I_2, where the two branches agree.  On the model rescaled by 5, v_5(c4)
    = 4 = 4k, and q is 2 lower."""
    curve, p = CurveModel(-2, -21), CurvePoint.affine(23, -110)
    scaled = CurveModel(5**4 * curve.a, 5**6 * curve.b)
    kinds = collections.Counter()
    for n, q5 in enumerate([Fraction(-3, 4), Fraction(-1), Fraction(-3, 4)], 1):
        q = multiply_point(curve, p, n)
        sq = CurvePoint(25 * q.x, 125 * q.y)
        assert heights._local_coefficients(curve, q)[5] == q5
        assert heights._local_coefficients(scaled, sq)[5] == q5 - 2
        _check_coefficients_against_ladder(curve, q, kinds)
        _check_coefficients_against_ladder(scaled, sq, kinds)
    assert kinds["g, v_p(Delta) < 12"] == 3 and kinds["g, reduced"] == 3, kinds


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


RESCALED = [(-8, 1, (-2, 3)), (-3, 7, (-1, 3)), (0, -2, (3, 5)), (-7, 10, (1, 2))]
# at this prime of u, the closed form on the rescaled model itself (no
# change of model) gives -11/4, where the reduced model (and the ladder)
# give -8/3
UNREDUCED_WRONG_AT = {(-8, 1): 2, (-3, 7): 3}


@pytest.mark.parametrize("u", [2, 3, 6])
@pytest.mark.parametrize("a, b, point", RESCALED)
def test_canonical_height_invariant_under_rescaling(a, b, point, u, monkeypatch):
    curve, p = CurveModel(a, b), CurvePoint.affine(*point)
    scaled = CurveModel(u**4 * a, u**6 * b)
    sp = CurvePoint.affine(u * u * point[0], u**3 * point[1])
    for q in sympy.factorint(u):
        assert heights._change_of_model(scaled, q)[0] == sympy.multiplicity(q, u)
        if q == UNREDUCED_WRONG_AT.get((a, b)):
            assert heights._local_coefficients(scaled, sp)[q] == Fraction(-8, 3)
            with monkeypatch.context() as m:
                m.setattr(heights, "_change_of_model", lambda curve, p: (0, 0, 0))
                assert heights._local_coefficients(scaled, sp)[q] == Fraction(-11, 4)
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
