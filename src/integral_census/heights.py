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
Thm 5.2; Cohen, GTM 138, Alg. 7.5.7; his z is q / 2) on a model minimal at
p, less 2k.  That model is reached by one change x = p^2k x' + r,
y = p^3k y' + p^2k s x' + t, found once per prime: at p >= 5 it divides
out p^4k | a and p^6k | b, and at p = 2 and 3 a search over r, s and t
finds it one p at a time.  The closed form is read off the curve's own
short model, each valuation that of an integer less a fixed offset.  The
height with Silverman's v_p(Delta) / 12 term does not depend on the
model; this module's omits the term, so on a model whose v_p(Delta) is
12k higher it is 2k lower.  The tests hold q to a p-adic doubling ladder,
which assumes no minimality.
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


def _vp(n: int, p: int) -> int | float:
    """v_p(n); +inf at n = 0."""
    if n == 0:
        return math.inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _reduce_once(curve: CurveModel, p: int, k: int, r: int, s: int, t: int) -> tuple | None:
    """(r', s', t') with r' = r (mod p^2k), s' = s (mod p^k) and
    t' = t + s (r' - r) (mod p^3k), such that x = p^(2k+2) x' + r',
    y = p^(3k+3) y' + p^(2k+2) s' x' + t' takes the curve to an integral
    model; None if there is none.

    That model's [a1, a2, a3, a4, a6], times [u, u^2, u^3, u^4, u^6] with
    u = p^(k+1), are [2s', 3r' - s'^2, 2t', a + 3r'^2 - 2s't', b + r'a + r'^3
    - t'^2] (Silverman, AEC, Table 3.1).  Each step's r, s and t matter only
    modulo p^2, p and p^3 (Cremona, Algorithms for Modular Elliptic Curves,
    3.2), and at p >= 5 only 0 can work."""
    a, b = curve.a, curve.b
    u, w, m = p**k, p ** (k + 1), p if p < 5 else 1
    for s2 in range(s, s + m * u, u):
        if 2 * s2 % w:
            continue
        for r2 in range(r, r + m * m * u * u, u * u):
            if (3 * r2 - s2 * s2) % w**2:
                continue
            t0 = t + s * (r2 - r)
            for t2 in range(t0, t0 + m**3 * u**3, u**3):
                if (
                    2 * t2 % w**3 == 0
                    and (a + 3 * r2 * r2 - 2 * s2 * t2) % w**4 == 0
                    and (b + r2 * a + r2**3 - t2 * t2) % w**6 == 0
                ):
                    return r2, s2, t2
    return None


def _change_of_model(curve: CurveModel, p: int) -> tuple[int, int, int]:
    """(k, r, s): x = p^(2k) x' + r, y = p^(3k) y' + p^(2k) s x' + t takes
    the curve to a model minimal at p; t never enters a height.

    A model is minimal where v_p(c4) = 0 or v_p(Delta) < 12; c4 = -48a and
    Delta are the curve's, divided by p^(4k) and p^(12k)."""
    k = r = s = t = 0
    v_disc = _vp(curve.disc(), p)
    while (48 * curve.a) % p ** (4 * k + 1) == 0 and v_disc >= 12 * k + 12:
        if (step := _reduce_once(curve, p, k, r, s, t)) is None:
            break
        (r, s, t), k = step, k + 1
    return k, r, s


def _local_coefficients(curve: CurveModel, pt: CurvePoint) -> dict[int, Fraction]:
    """{p: q} with local height q log p, over the primes of e and g only;
    q is 0 at every other prime.

    At a prime of g, p does not divide e, and each valuation of the closed
    form is an integer's: with u = p^k, the change of model divides
    3x^2 + a - 2sy by u^4, 2y by u^3, psi_3 by u^8, c4 = -48a by u^4 and
    Delta by u^12, and takes x to (x - r) / u^2 (Silverman, AEC, Table 3.1)."""
    a, b = curve.a, curve.b
    e = math.isqrt(pt.x.denominator)
    m, n = pt.x.numerator, pt.y.numerator
    e2 = e * e
    g = math.gcd(2 * n, 3 * m * m + a * e2 * e2)
    out = {p: Fraction(2 * k) for p, k in _factorint(e).items()}
    for p in _factorint(g):
        k, r, s = _change_of_model(curve, p)
        # e^6 (3x^2 + a - 2sy) = e^2 (3m^2 + a e^4 - 2s n e)
        A = _vp(3 * m * m + a * e2 * e2 - 2 * s * n * e, p) - 4 * k
        B = _vp(2 * n, p) - 3 * k
        if A <= 0 or B <= 0:
            # nonsingular reduction
            q = Fraction(max(0, 2 * k - _vp(m - r * e2, p)))
        elif (48 * a) % p ** (4 * k + 1):
            # multiplicative reduction
            N = _vp(curve.disc(), p) - 12 * k
            M = min(Fraction(B), Fraction(N, 2))
            q = -M * (N - M) / N
        else:
            # additive reduction; C from e^8 psi_3
            C = _vp(3 * m**4 + 6 * a * m * m * e2**2 + 12 * b * m * e2**3 - a * a * e2**4, p) - 8 * k
            q = Fraction(-2 * B, 3) if C >= 3 * B else Fraction(-C, 4)
        out[p] = q - 2 * k
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

