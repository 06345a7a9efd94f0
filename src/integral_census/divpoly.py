"""Division polynomials, multiplication-by-n, and identity verification.

Symbolic psi_n live in Z[x, A, B] with at most one explicit factor of y
(y^2 always eliminated via the curve equation).  Weighted homogeneity
(x:1, A:2, B:3, y:3/2) makes the x-exponent of every monomial implicit,
so terms are stored keyed by (f_A, f_B) alone.

``psi`` builds psi_n only for n <= PSI_N_MAX = 32, the range measured to
run: past n = 24 each step of 4 in n costs about four times the step
before, and psi_36 takes several times as long as psi_32 (README gives the
times).  Each psi_n is built once per process, by the recursion, and kept
in memory.  Point multiplication never builds symbolic polynomials; it runs
the same recursion on exact rational values, for n <= 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .families import CurveModel
from .points import CurvePoint, Identity, on_curve

__all__ = [
    "DivPoly",
    "PSI_N_MAX",
    "psi",
    "multiply_point",
    "verify_coeff_growth",
    "triple_root_identity_check",
]

PSI_N_MAX = 32
_MULTIPLY_N_MAX = 64


@dataclass(frozen=True)
class DivPoly:
    """y^y_factor times a weighted-homogeneous element of Z[x, A, B].

    xpart_weight is the weight of the x-part; a term keyed (f_A, f_B) has
    f_x = xpart_weight - 2 f_A - 3 f_B.
    """

    n: int
    y_factor: int
    xpart_weight: int
    xterms: dict

    @property
    def terms(self) -> dict:
        """Mapping (f_x, f_A, f_B) -> coefficient."""
        out = {}
        for (fa, fb), c in self.xterms.items():
            out[(self.xpart_weight - 2 * fa - 3 * fb, fa, fb)] = c
        return out

    def _fx(self, fa: int, fb: int) -> int:
        return self.xpart_weight - 2 * fa - 3 * fb

    def x_degree(self) -> int:
        return max((self._fx(fa, fb) for fa, fb in self.xterms), default=0)

    def x_leading_coeff(self) -> int:
        d = self.x_degree()
        return sum(c for (fa, fb), c in self.xterms.items() if self._fx(fa, fb) == d)

    def x_coeff(self, fx_target: int) -> dict:
        """Coefficient of x^fx_target as a map (f_A, f_B) -> int."""
        return {
            (fa, fb): c
            for (fa, fb), c in self.xterms.items()
            if self._fx(fa, fb) == fx_target
        }


# ---------------------------------------------------------------------------
# internal weighted-polynomial arithmetic on (weight, {(fA,fB): int}) pairs


def _wmul(w1: int, t1: dict, w2: int, t2: dict) -> tuple[int, dict]:
    """Product by Kronecker substitution: (f_A, f_B) goes to the slot
    f_A * stride + f_B of one big int, the two ints are multiplied once,
    and the product's slots are read back as the product's coefficients.

    A slot is wide enough for any product coefficient plus a sign bit.
    Adding a bias of half a slot to every slot, empty ones included, makes
    every slot non-negative, so it unpacks without borrows.  The unpack goes
    through bytes: peeling slots off with shifts would be quadratic.  Row
    f_A of the product is read only up to the largest f_B a term of it can
    have, the most over i + j = f_A of the factors' row-i and row-j ends.
    """
    if not t1 or not t2:
        return w1 + w2, {}
    ends1, ends2 = _row_ends(t1), _row_ends(t2)
    ends: dict[int, int] = {}
    for i, e1 in ends1.items():
        for j, e2 in ends2.items():
            if ends.get(i + j, -1) < e1 + e2:
                ends[i + j] = e1 + e2
    stride = max(ends.values()) + 1
    bound = max(map(abs, t1.values())) * max(map(abs, t2.values())) * min(len(t1), len(t2))
    width = (bound.bit_length() + 8) // 8  # bytes for |c| <= bound and a sign bit
    prod = _pack(t1, stride, width)
    prod *= prod if t2 is t1 else _pack(t2, stride, width)
    slots = (max(ends) + 1) * stride
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    buf = (prod + bias).to_bytes(slots * width, "little")
    out = {}
    for fa in sorted(ends):
        k = fa * stride * width
        for fb in range(ends[fa] + 1):
            c = int.from_bytes(buf[k : k + width], "little") - half
            k += width
            if c:
                out[fa, fb] = c
    return w1 + w2, out


def _row_ends(terms: dict) -> dict[int, int]:
    """{f_A: the largest f_B of a term in row f_A}."""
    ends: dict[int, int] = {}
    for fa, fb in terms:
        if ends.get(fa, -1) < fb:
            ends[fa] = fb
    return ends


def _pack(terms: dict, stride: int, width: int) -> int:
    """sum c * 256^(width * (f_A * stride + f_B)), built through bytes."""
    size = (max(fa * stride + fb for fa, fb in terms) + 1) * width
    pos, neg = bytearray(size), bytearray(size)
    for (fa, fb), c in terms.items():
        i = (fa * stride + fb) * width
        if c > 0:
            pos[i : i + width] = c.to_bytes(width, "little")
        else:
            neg[i : i + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _wsub(w1: int, t1: dict, w2: int, t2: dict) -> tuple[int, dict]:
    if t1 and t2 and w1 != w2:
        raise ValueError("weight mismatch in subtraction")
    out = dict(t1)
    for k, c in t2.items():
        out[k] = out.get(k, 0) - c
    return (w1 if t1 else w2), {k: c for k, c in out.items() if c}


def _wscale_div(terms: dict, d: int) -> dict:
    out = {}
    for k, c in terms.items():
        q, r = divmod(c, d)
        if r:
            raise ArithmeticError("non-integral coefficient in psi recursion")
        out[k] = q
    return out


# (x^3 + A x + B)^2 = y^4 (weight 6), used to eliminate y^4
_CURVE2 = (6, {(0, 0): 1, (0, 1): 2, (0, 2): 1, (1, 0): 2, (1, 1): 2, (2, 0): 1})

_BASE = {
    0: (0, -1, {}),  # zero polynomial (weight unused)
    1: (0, 0, {(0, 0): 1}),
    2: (1, 0, {(0, 0): 2}),
    3: (0, 4, {(0, 0): 3, (1, 0): 6, (0, 1): 12, (2, 0): -1}),
    4: (
        1,
        6,
        {
            (0, 0): 4,
            (1, 0): 20,
            (0, 1): 80,
            (2, 0): -20,
            (1, 1): -16,
            (0, 2): -32,
            (3, 0): -4,
        },
    ),
}

_psi_cache: dict[int, DivPoly] = {}


def psi(n: int) -> DivPoly:
    """Symbolic n-th division polynomial, canonical form; 1 <= n <= PSI_N_MAX."""
    if n < 1:
        raise ValueError("psi requires n >= 1")
    if n > PSI_N_MAX:
        raise ValueError(f"n = {n} exceeds PSI_N_MAX = {PSI_N_MAX}")
    return _psi(n)


def _psi(n: int) -> DivPoly:
    if n in _psi_cache:
        return _psi_cache[n]
    if n in _BASE:
        yf, w, t = _BASE[n]
        poly = DivPoly(n, yf, w, t)
    elif n % 2 == 1:
        m = (n - 1) // 2
        pm2, pm, pm1_, pp1 = _psi(m + 2), _psi(m), _psi(m - 1), _psi(m + 1)
        lin_a = (pm2.xpart_weight, pm2.xterms)
        lin_b = (pm1_.xpart_weight, pm1_.xterms)
        # odd result is y-free; whichever side carries y^4 picks up curve^2,
        # multiplied into its linear factor, the small one
        if m % 2 == 0:
            lin_a = _wmul(*_CURVE2, *lin_a)
        else:
            lin_b = _wmul(*_CURVE2, *lin_b)
        w, t = _wsub(*_wpow3_mul(lin_a, pm), *_wpow3_mul(lin_b, pp1))
        poly = DivPoly(n, 0, w, t)
    else:
        m = n // 2
        pm2, pm1_, pm, pp1, pp2 = (
            _psi(m - 2),
            _psi(m - 1),
            _psi(m),
            _psi(m + 1),
            _psi(m + 2),
        )
        # t = Px(m+2) Px(m-1)^2 - Px(m-2) Px(m+1)^2 on y-stripped parts
        sq1 = _wmul(pm1_.xpart_weight, pm1_.xterms, pm1_.xpart_weight, pm1_.xterms)
        sq2 = _wmul(pp1.xpart_weight, pp1.xterms, pp1.xpart_weight, pp1.xterms)
        ta = _wmul(pp2.xpart_weight, pp2.xterms, *sq1)
        tb = _wmul(pm2.xpart_weight, pm2.xterms, *sq2)
        w, t = _wsub(*ta, *tb)
        w, t = _wmul(pm.xpart_weight, pm.xterms, w, t)
        poly = DivPoly(n, 1, w, _wscale_div(t, 2))
    _psi_cache[n] = poly
    return poly


def _wpow3_mul(lin: tuple[int, dict], p_cub: DivPoly) -> tuple[int, dict]:
    # lin times the x-part of p_cub, cubed
    sq = _wmul(p_cub.xpart_weight, p_cub.xterms, p_cub.xpart_weight, p_cub.xterms)
    cu = _wmul(*sq, p_cub.xpart_weight, p_cub.xterms)
    return _wmul(*lin, *cu)


# ---------------------------------------------------------------------------
# numeric psi values at a point (y^2 eliminated through the actual y value)


def _psi_val(n, x, y, a, b, memo) -> Fraction:
    if n in memo:
        return memo[n]
    if n in _BASE:
        yf, w, terms = _BASE[n]
        v = y**yf * sum(
            c * x ** (w - 2 * fa - 3 * fb) * a**fa * b**fb for (fa, fb), c in terms.items()
        )
    elif n % 2 == 1:
        m = (n - 1) // 2
        v = (
            _psi_val(m + 2, x, y, a, b, memo) * _psi_val(m, x, y, a, b, memo) ** 3
            - _psi_val(m - 1, x, y, a, b, memo)
            * _psi_val(m + 1, x, y, a, b, memo) ** 3
        )
    else:
        m = n // 2
        if y == 0:
            raise ZeroDivisionError("two-torsion point in even psi recursion")
        v = (
            _psi_val(m, x, y, a, b, memo)
            * (
                _psi_val(m + 2, x, y, a, b, memo)
                * _psi_val(m - 1, x, y, a, b, memo) ** 2
                - _psi_val(m - 2, x, y, a, b, memo)
                * _psi_val(m + 1, x, y, a, b, memo) ** 2
            )
            / (2 * y)
        )
    memo[n] = v
    return v


def multiply_point(curve: CurveModel, p: CurvePoint, n: int) -> CurvePoint:
    """n P via the division-polynomial formulas, exact in rationals; n <= 64."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _MULTIPLY_N_MAX:
        raise ValueError(f"n = {n} exceeds {_MULTIPLY_N_MAX}")
    if not on_curve(curve, p):
        raise ValueError("point not on curve")
    if p.is_identity:
        return Identity
    if n == 1:
        return p
    if p.y == 0:
        # 2-torsion: the even-psi recursion divides by 2y, handle directly
        return p if n % 2 == 1 else Identity
    memo: dict[int, Fraction] = {}
    a, b = curve.a, curve.b
    pn = _psi_val(n, p.x, p.y, a, b, memo)
    if pn == 0:
        return Identity
    pnm = _psi_val(n - 1, p.x, p.y, a, b, memo)
    pnp = _psi_val(n + 1, p.x, p.y, a, b, memo)
    p2n = _psi_val(2 * n, p.x, p.y, a, b, memo)
    x_n = p.x - pnm * pnp / (pn * pn)
    y_n = p2n / (2 * pn**4)
    return CurvePoint(x_n, y_n)


def verify_coeff_growth(
    n_max: int, K1: float, K2: float, K3: float
) -> dict:
    """Check |C_f| <= K1 n^K2 K3^((log n)^2 (w_n - f_x)) over y-stripped psi_n.

    Returns the worst ratio |C_f| / bound and its witness.
    """
    if not 2 <= n_max <= PSI_N_MAX:
        raise ValueError(f"n_max must lie in [2, {PSI_N_MAX}]")
    if not (1 < K1 < math.inf and 0 <= K2 < math.inf and 1 < K3 < math.inf):
        raise ValueError(f"require finite K1 > 1, K2 >= 0, K3 > 1; got K1={K1}, K2={K2}, K3={K3}")
    worst = 0.0
    witness = None
    log_k1, log_k3 = math.log(K1), math.log(K3)
    for n in range(2, n_max + 1):
        poly = psi(n)
        logn = math.log(n)
        for (fa, fb), c in poly.xterms.items():
            fx = poly.xpart_weight - 2 * fa - 3 * fb
            # weight of the stripped part minus f_x equals 2 f_A + 3 f_B
            expo = logn * logn * (2 * fa + 3 * fb)
            log_bound = log_k1 + K2 * logn + expo * log_k3
            ratio = math.exp(math.log(abs(c)) - log_bound)
            if ratio > worst:
                worst = ratio
                witness = {"n": n, "f_x": fx, "f_A": fa, "f_B": fb, "coeff": str(c)}
    return {"worst_ratio": worst, "witness": witness, "all_within": worst <= 1.0}


def triple_root_identity_check(
    curve: CurveModel, r_point: CurvePoint, sample_count: int
) -> bool:
    """Cross-check the two routes to psi3^2 (x(3Q) - x(R)) at sample_count
    random rational arguments (a fixed seed, so the check is repeatable).

    Route one evaluates x(3Q) = x - psi2 psi4 / psi3^2 from closed forms
    of psi3 and psi2 psi4 written out here, with y^2 eliminated via the
    curve equation; route two evaluates the degree-9 polynomial assembled
    from the symbolic psi_n.  The polynomial is monic of x-degree 9.
    """
    import random

    if r_point.is_identity:
        raise ValueError("affine r_point required")
    if not on_curve(curve, r_point):
        raise ValueError("r_point not on curve")
    a, b = Fraction(curve.a), Fraction(curve.b)
    xr = r_point.x
    coeffs = _triple_root_poly_coeffs(curve, xr)
    if len(coeffs) - 1 != 9 or coeffs[9] != 1:
        return False
    rng = random.Random(0)
    for _ in range(sample_count):
        x0 = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
        y2 = x0**3 + a * x0 + b
        psi3 = 3 * x0**4 + 6 * a * x0**2 + 12 * b * x0 - a * a
        if psi3 == 0 or y2 == 0:
            continue  # pole of x(3Q) or branch point; resample implicitly
        # psi2 psi4 = 8 y^2 (x^6 + 5Ax^4 + 20Bx^3 - 5A^2x^2 - 4ABx - 8B^2 - A^3)
        psi24 = 8 * y2 * (
            x0**6
            + 5 * a * x0**4
            + 20 * b * x0**3
            - 5 * a * a * x0**2
            - 4 * a * b * x0
            - 8 * b * b
            - a**3
        )
        x3q = x0 - psi24 / (psi3 * psi3)
        lhs = psi3 * psi3 * (x3q - xr)
        rhs = sum(c * x0**k for k, c in enumerate(coeffs))
        if lhs != rhs:
            return False
    return True


def _triple_root_poly_coeffs(curve: CurveModel, xr: Fraction) -> list[Fraction]:
    """Coefficients of psi3^2 x - psi2 psi4 - psi3^2 x(R) from symbolic psi."""
    a, b = Fraction(curve.a), Fraction(curve.b)

    def specialize(poly: DivPoly) -> list[Fraction]:
        deg = poly.x_degree()
        out = [Fraction(0)] * (deg + 1)
        for (fx, fa, fb), c in poly.terms.items():
            out[fx] += c * a**fa * b**fb
        return out

    def pmul(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * (len(u) + len(v) - 1)
        for i, cu in enumerate(u):
            for j, cv in enumerate(v):
                out[i + j] += cu * cv
        return out

    p3 = specialize(psi(3))
    p4x = specialize(psi(4))  # y-stripped part; psi2*psi4 = 2y * y * p4x = 2 y^2 p4x
    curve_poly = [b, a, Fraction(0), Fraction(1)]
    p24 = pmul([Fraction(2)], pmul(curve_poly, p4x))
    p3sq = pmul(p3, p3)
    out = [Fraction(0)] * 10
    for i, c in enumerate(p3sq):
        out[i + 1] += c  # psi3^2 * x
        out[i] -= c * xr  # - psi3^2 x(R)
    for i, c in enumerate(p24):
        out[i] -= c
    return out

