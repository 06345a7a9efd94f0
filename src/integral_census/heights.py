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
Thm VI.4.1); Delta is never factored.  At p | g, q comes in closed form
(Silverman, "Computing heights on elliptic curves", Math. Comp. 51, 1988,
Thm 5.2; Cohen, GTM 138, Alg. 7.5.7) on a model minimal at p, less 2k.
That model is reached by k changes x = p^2 x' + r, y = p^3 y' + p^2 s x' + t:
at p >= 5 each divides out p^4 | a and p^6 | b, and at p = 2 and 3 a
search over r, s and t finds them.  The tests hold q to a p-adic doubling
ladder, which assumes no minimality.
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
# non-archimedean local heights


def _vp(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _v(q: Fraction, p: int) -> float:
    """v_p of a rational; +inf at zero."""
    if q == 0:
        return math.inf
    return _vp(q.numerator, p) - _vp(q.denominator, p)


def _b_invariants(ainv: tuple) -> tuple:
    """b2, b4, b6, b8, c4 and Delta of the model [a1, a2, a3, a4, a6]."""
    a1, a2, a3, a4, a6 = ainv
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, b2 * b2 - 24 * b4, disc


def _reduce_once(ainv: tuple, p: int) -> tuple | None:
    """An integral model reached by x = p^2 x' + r, y = p^3 y' + p^2 s x' + t,
    with (r, s, t); None where [a1, a2, a3, a4, a6] is minimal at p.

    The a-invariants change as in Silverman, AEC, Table 3.1.  r, s and t
    matter only modulo p^2, p and p^3 (Cremona, Algorithms for Modular
    Elliptic Curves, 3.2).  At p >= 5 the model stays short, and it is
    minimal unless p^4 | a4 and p^6 | a6, that is unless r = s = t = 0
    works."""
    a1, a2, a3, a4, a6 = ainv
    *_, c4, disc = _b_invariants(ainv)
    if c4 % p or _vp(disc, p) < 12:
        return None
    m = p if p < 5 else 1
    for s in range(m):
        if (a1 + 2 * s) % p:
            continue
        for r in range(m * m):
            n2 = a2 - s * a1 + 3 * r - s * s
            if n2 % p**2:
                continue
            for t in range(m**3):
                n3 = a3 + r * a1 + 2 * t
                if n3 % p**3:
                    continue
                n4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
                n6 = a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1
                if n4 % p**4 == 0 and n6 % p**6 == 0:
                    reduced = ((a1 + 2 * s) // p, n2 // p**2, n3 // p**3, n4 // p**4, n6 // p**6)
                    return reduced, (r, s, t)
    return None


def _minimal_model(curve: CurveModel, p: int, pt: CurvePoint) -> tuple:
    """([a1, a2, a3, a4, a6], x, y, k): a model minimal at p, P on it, and
    the number k of changes of model by p that reach it from the curve."""
    ainv, x, y, k = (0, 0, 0, curve.a, curve.b), pt.x, pt.y, 0
    while (step := _reduce_once(ainv, p)) is not None:
        ainv, (r, s, t) = step
        x, y = (x - r) / p**2, (y - s * (x - r) - t) / p**3
        k += 1
    return ainv, x, y, k


def _closed_form(ainv: tuple, p: int, x: Fraction, y: Fraction) -> Fraction:
    """The coefficient q of the local height q log p at (x, y) on a model
    minimal at p (Silverman, Math. Comp. 51, 1988, Thm 5.2; Cohen, GTM 138,
    Alg. 7.5.7).  Silverman's z (normalized as half of this module's
    heights) is q / 2."""
    a1, a2, a3, a4, _ = ainv
    b2, b4, b6, b8, c4, disc = _b_invariants(ainv)
    A = _v((3 * x + 2 * a2) * x + a4 - a1 * y, p)
    B = _v(2 * y + a1 * x + a3, p)
    if A <= 0 or B <= 0:
        # nonsingular reduction
        return Fraction(max(0, -_v(x, p)))
    if c4 % p:
        # multiplicative reduction
        N = _vp(disc, p)
        M = min(Fraction(B), Fraction(N, 2))
        return -M * (N - M) / N
    C = _v((((3 * x + b2) * x + 3 * b4) * x + 3 * b6) * x + b8, p)
    return Fraction(-2 * B, 3) if C >= 3 * B else Fraction(-C, 4)


def _local_coefficients(curve: CurveModel, pt: CurvePoint) -> dict[int, Fraction]:
    """{p: q} with local height q log p, over the primes of e and g only;
    q is 0 at every other prime.

    At a prime of g, q is the closed form on a model minimal at p, less 2k.
    The height with Silverman's v_p(Delta) / 12 term does not depend on the
    model; this module's omits the term, so on a model whose v_p(Delta) is
    12k higher it is 2k lower."""
    e = math.isqrt(pt.x.denominator)
    m, n = pt.x.numerator, pt.y.numerator
    g = math.gcd(2 * n, 3 * m * m + curve.a * e**4)
    out = {p: Fraction(2 * k) for p, k in _factorint(e).items()}
    for p in _factorint(g):
        ainv, x, y, k = _minimal_model(curve, p, pt)
        out[p] = _closed_form(ainv, p, x, y) - 2 * k
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

