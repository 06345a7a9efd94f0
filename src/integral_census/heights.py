"""Weil and canonical heights, local decomposition, pairings.

Normalization: the canonical height is the x-coordinate limit
h(x(2^n P)) / 4^n, so h_hat(2P) = 4 h_hat(P) and h_hat is about h(x(P))
for large points (twice the other common textbook normalization).

The archimedean local height comes from a telescoping series derived from
the duplication relation lambda(2P) = 4 lambda(P) - 2 log|2y(P)|.

Each non-archimedean local height is q log p with q an exact rational.
Write x = m/e^2, y = n/e^3 and g = gcd(2n, 3m^2 + a e^4).  At p | e,
q = 2 v_p(e).  At p dividing neither e nor g, P is p-integral and reduces
to a nonsingular point, so q = 0 on any integral model (Silverman, AEC II,
Thm VI.4.1); Delta is never factored.  At p | g, where v_p(Delta) < 12
the model is minimal at p, and q comes in closed form from v_p(2y),
v_p(c4), v_p(Delta) and v_p(psi_3) (Silverman, "Computing heights on
elliptic curves", Math. Comp. 51, 1988, Thm 5.2; Cohen, GTM 138,
Alg. 7.5.7).  Where v_p(Delta) >= 12 the model may not be minimal at p,
and the formula may be wrong there, so q is computed by the ladder
instead: double the point in capped-precision p-adic arithmetic, record
the valuations c_j = v_p(2 y_j), detect the eventually affine-periodic
pattern, and sum the telescoping series in closed form.  The ladder
assumes no minimality: the bounded solution of the local duplication
identity is unique, which is what the series computes.  It is also the
oracle the tests hold to the formula and to q = 0 off e and g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_shift,
    mpf_sub,
    round_nearest,
)

from .families import CurveModel, _factorint
from .points import CurvePoint, add, on_curve

__all__ = [
    "HeightProfile",
    "PrecisionError",
    "weil_height",
    "canonical_height",
    "height_pairing",
    "global_difference_bound",
]


class PrecisionError(ArithmeticError):
    """Requested precision could not be certified within iteration caps."""


@dataclass
class HeightProfile:
    weil: float
    canonical: float
    local: dict = field(default_factory=dict)
    is_torsion: bool = False


def weil_height(p: CurvePoint) -> float:
    """log max(|numerator|, |denominator|) of x(P); identity maps to 0."""
    if p.is_identity:
        return 0.0
    x = p.x
    return float(mp.log(max(abs(x.numerator), x.denominator, 1)))


def global_difference_bound(curve: CurveModel) -> float:
    """Conservative envelope for |h_hat - h| used by oracle tolerances."""
    disc = abs(curve.disc())
    m = max(4 * abs(curve.a) ** 3, 27 * curve.b**2, 1)
    return float(mp.log(disc) / 6 + mp.log(m) / 6 + 4)


# ---------------------------------------------------------------------------
# archimedean local height


def _lambda_inf(curve: CurveModel, x0, precision_goal, depth: int = 0):
    """Archimedean local height at a point with x-coordinate x0; x0 and
    precision_goal are mpf.

    The series runs on raw libmp values: each step is the libmp call that
    the mpf operator would make, at the context precision and rounding, in
    the same order, so the bits are those of the operator form."""
    a, b = curve.a, curve.b
    if depth > 12:
        raise PrecisionError("archimedean recursion depth exhausted")
    if x0 == 0 or abs(x0) < mp.mpf("0.5"):
        return _lambda_inf_backward(curve, x0, precision_goal, depth)
    prec, rnd = mp.mp.prec, round_nearest
    three, four = from_int(3), from_int(4)
    a2, b8, aa, a4, b4 = 2 * a, 8 * b, a * a, 4 * a, 4 * b
    t = mpf_rdiv_int(1, x0._mpf_, prec, rnd)
    total = mpf_log(mpf_abs(x0._mpf_, prec, rnd), prec, rnd)
    acc = fzero
    goal = mpf_div(precision_goal._mpf_, from_int(8), prec, rnd)
    for n in range(500):
        t3 = mpf_pow_int(t, 3, prec, rnd)
        t4 = mpf_pow_int(t, 4, prec, rnd)
        # z = 1 - 2 a t t - 8 b t^3 + a^2 t^4
        z = mpf_sub(fone, mpf_mul(mpf_mul_int(t, a2, prec, rnd), t, prec, rnd), prec, rnd)
        z = mpf_sub(z, mpf_mul_int(t3, b8, prec, rnd), prec, rnd)
        z = mpf_add(z, mpf_mul_int(t4, aa, prec, rnd), prec, rnd)
        if z == fzero:
            return _lambda_inf_backward(curve, x0, precision_goal, depth)
        L = mpf_log(mpf_abs(z, prec, rnd), prec, rnd)
        # a shift by -2n divides by 4^n exactly, so the bits match L / 4^n
        acc = mpf_add(acc, mpf_shift(L, -2 * n), prec, rnd)
        recent = mpf_abs(L, prec, rnd)
        if mpf_gt(fone, recent):
            recent = fone
        # geometric tail certificate: remaining mass <= recent * 4^-n * 4/3
        if mpf_lt(mpf_div(mpf_shift(recent, 2 - 2 * n), three, prec, rnd), goal):
            return mp.make_mpf(mpf_add(total, mpf_div(acc, four, prec, rnd), prec, rnd))
        # w = 4 t + 4 a t^3 + 4 b t^4
        w = mpf_add(mpf_mul_int(t, 4, prec, rnd), mpf_mul_int(t3, a4, prec, rnd), prec, rnd)
        w = mpf_add(w, mpf_mul_int(t4, b4, prec, rnd), prec, rnd)
        t = mpf_div(w, z, prec, rnd)
    raise PrecisionError("archimedean series did not converge in 500 terms")


def _lambda_inf_backward(curve: CurveModel, x0, precision_goal: float, depth: int):
    # lambda(P) = (lambda(2P) + 2 log|2y(P)|) / 4, with y^2 from the curve
    a, b = curve.a, curve.b
    y2 = x0**3 + a * x0 + b
    if y2 == 0:
        # 2-torsion x-coordinate: 2P is the identity and log|2y| diverges.
        # canonical_height returns 0 for torsion points before the series
        # runs, so only a direct caller can get here.
        raise PrecisionError("archimedean height at a branch point")
    x2 = (x0 * x0 - a) ** 2 - 8 * b * x0
    x2 /= 4 * y2
    lam2 = _lambda_inf(curve, x2, precision_goal, depth + 1)
    return (lam2 + mp.log(abs(4 * y2))) / 4


# ---------------------------------------------------------------------------
# capped-precision p-adic arithmetic


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
        vn = _vp(num, p)
        vd = _vp(den, p)
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
        v = _vp(self.unit, self.p)
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
            raise PrecisionError("p-adic division by unresolved zero")
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


def _vp(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


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
            raise PrecisionError("p-adic precision exhausted in doubling")
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
    raise PrecisionError("no affine-periodic pattern in valuation sequence")


def _lambda_p_exact(curve: CurveModel, p: int, pt: CurvePoint) -> Fraction:
    """Exact coefficient q with local height q * log p at the prime p."""
    for count, digits in ((40, 64), (64, 160), (96, 400)):
        try:
            c = _padic_valuation_sequence(curve, p, pt, count, digits)
            return -2 * _affine_periodic_tail(c)
        except PrecisionError:
            continue
    raise PrecisionError(f"local height at p = {p} did not stabilize")


def _v(q: Fraction, p: int) -> float:
    """v_p of a rational; +inf at zero."""
    if q == 0:
        return math.inf
    return _vp(q.numerator, p) - _vp(q.denominator, p)


def _lambda_p_formula(curve: CurveModel, p: int, pt: CurvePoint) -> Fraction | None:
    """The coefficient q of _lambda_p_exact at a prime p of g in closed form,
    or None where v_p(Delta) >= 12 and the model may not be minimal at p.

    Silverman's z (normalized as half of this module's heights) is q / 2.
    """
    a, b = curve.a, curve.b
    N = _vp(curve.disc(), p)
    if N >= 12:
        return None
    x, y = pt.x, pt.y
    B = _v(2 * y, p)
    if a != 0 and (48 * a) % p:
        # v_p(c4) = 0 with c4 = -48a: multiplicative reduction
        M = min(Fraction(B), Fraction(N, 2))
        return -M * (N - M) / N
    C = _v(3 * x**4 + 6 * a * x**2 + 12 * b * x - a * a, p)
    return Fraction(-2 * B, 3) if C >= 3 * B else Fraction(-C, 4)


def _local_coefficients(curve: CurveModel, pt: CurvePoint) -> dict[int, Fraction]:
    """{p: q} with local height q log p, over the primes of e and g only;
    q is 0 at every other prime."""
    e = math.isqrt(pt.x.denominator)
    m, n = pt.x.numerator, pt.y.numerator
    g = math.gcd(2 * n, 3 * m * m + curve.a * e**4)
    out = {p: Fraction(2 * k) for p, k in _factorint(e).items()}
    for p in _factorint(g):
        q = _lambda_p_formula(curve, p, pt)
        out[p] = _lambda_p_exact(curve, p, pt) if q is None else q
    return out


# ---------------------------------------------------------------------------
# canonical height and derived quantities


def _torsion_order(curve: CurveModel, p: CurvePoint) -> int | None:
    # Nagell-Lutz: a torsion point has x in Z, and y = 0 or y^2 | 4a^3 + 27b^2;
    # every multiple of a torsion point is torsion, so it has x in Z too
    if p.x.denominator != 1 or (
        p.y and (4 * curve.a**3 + 27 * curve.b**2) % p.y.numerator**2
    ):
        return None
    q = p
    for n in range(1, 13):
        if q.is_identity:
            return n
        if q.x.denominator != 1:
            return None
        q = add(curve, q, p)
    return None


def canonical_height(
    curve: CurveModel, p: CurvePoint, precision_goal: float = 1e-10
) -> HeightProfile:
    """Canonical height with per-place local contributions."""
    if p.is_identity:
        raise ValueError("affine point required")
    if not on_curve(curve, p):
        raise ValueError("point not on curve")
    if not 1e-14 <= precision_goal <= 1e-2:
        raise ValueError("precision_goal out of range")
    if (n := _torsion_order(curve, p)) is not None and n > 1:
        return HeightProfile(weil_height(p), 0.0, is_torsion=True)
    dps = int(-mp.log10(mp.mpf(precision_goal))) + 35
    with mp.workdps(dps):
        x_real = mp.mpf(p.x.numerator) / mp.mpf(p.x.denominator)
        lam_inf = _lambda_inf(curve, x_real, mp.mpf(precision_goal))
        locals_out = {"infinity": float(lam_inf)}
        total = lam_inf
        for q, coeff in sorted(_local_coefficients(curve, p).items()):
            val = coeff.numerator * mp.log(q) / coeff.denominator
            locals_out[str(q)] = float(val)
            total += val
        return HeightProfile(weil_height(p), float(total), locals_out)


def height_pairing(
    curve: CurveModel,
    p: CurvePoint,
    q: CurvePoint,
    precision_goal: float = 1e-10,
    *,
    memo: dict | None = None,
) -> dict:
    """Bilinear pairing (h_hat(P+Q) - h_hat(P) - h_hat(Q)) / 2 and its angle.

    The three canonical heights are returned as h_p, h_q and h_sum.

    ``memo``, if given, maps ``(x, |y|)`` to the canonical height of the
    points +-(x, y); a height found there is not computed again, and one
    computed is stored.  h_hat(-P) = h_hat(P), so P and -P share an entry.
    The entries hold for one curve and one ``precision_goal``: the caller
    keeps a separate memo for each."""
    if memo is None:
        memo = {}
    hp = _memo_height(curve, p, precision_goal, memo)
    hq = _memo_height(curve, q, precision_goal, memo)
    s = add(curve, p, q)
    hs = 0.0 if s.is_identity else _memo_height(curve, s, precision_goal, memo)
    pairing = (hs - hp - hq) / 2
    cos_angle = None
    if hp > 10 * precision_goal and hq > 10 * precision_goal:
        cos_angle = pairing / math.sqrt(hp * hq)
    return {"pairing": pairing, "cos_angle": cos_angle, "h_p": hp, "h_q": hq, "h_sum": hs}


def _memo_height(
    curve: CurveModel, p: CurvePoint, precision_goal: float, memo: dict
) -> float:
    key = (p.x, abs(p.y))
    if key not in memo:
        memo[key] = canonical_height(curve, p, precision_goal).canonical
    return memo[key]


def _height_gap(curve: CurveModel, p: CurvePoint, prof: HeightProfile) -> dict:
    """Difference h_hat - h at p against its main-term model, from the
    already computed profile of p."""
    h = prof.weil
    disc = abs(curve.disc())
    x_abs = abs(p.x)
    with mp.workdps(30):
        x_f = mp.mpf(x_abs.numerator) / mp.mpf(x_abs.denominator)
        model = (
            max(mp.log(x_f * mp.mpf(disc) ** (mp.mpf(-1) / 6)), 0)
            + mp.log(disc) / 6
            - max(mp.log(x_f), 0)
        )
    lhs = prof.canonical - h
    return {"lhs": lhs, "model": float(model), "residual": lhs - float(model)}

