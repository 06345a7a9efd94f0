"""Division polynomials, multiplication-by-n, and identity verification.

Symbolic psi_n live in Z[x, A, B] with at most one explicit factor of y
(y^2 always eliminated via the curve equation).  The y-free part is held
as the rows its recurrence builds: rows[m] maps (f_A, f_B) to the
coefficient of A^f_A B^f_B x^m.  Weighted homogeneity (x:1, A:2, B:3,
y:3/2) puts every term of rows[m] at m + 2 f_A + 3 f_B = d, the top row.

psi_n is built from its heat equation (McKee, "Computing division
polynomials", Math. Comp. 63, 1994), with no polynomial product.  Let P be
psi_n for n odd and psi_n / y for n even (the y-free part ``rows``
holds), N = n^2, f = x^3 + A x + B, and k = 0 for n odd, 3 for n even:

    12 f P_xx - 6(2N - 3 - 2k) x^2 P_x - 2(4N - 3 - 2k) A P_x
        - 36N B P_A + 8N A^2 P_B + 3(N - 1 - k)(N - k) x P = 0

(README derives it from the heat equation of Weierstrass's sigma).  With
P = sum over m of c_m(A, B) x^m, its coefficient of x^(m+1) gives c_m from
the three coefficients above it, for m from d - 1 down to 0:

    s_m c_m = -[(8N A^2 d/dB - 36N B d/dA) c_(m+1)
                + (m + 2)(12(m + 1) - 2(4N - 3 - 2k)) A c_(m+2)
                + 12(m + 3)(m + 2) B c_(m+3)],
    s_m = 6(m - d)(2m - N + k) > 0,   d = (N - 1 - k) / 2,   c_d = n.

Each division is exact; an inexact one raises ArithmeticError.  The tests
hold the result to the product recursion that ``_psi_val`` runs.

``psi`` builds psi_n only for n <= PSI_N_MAX = 32: the recurrence runs
further, but nothing reads psi_n past 32, and the tests pin the limit.
Each psi_n is built on its own, once per process, and kept in memory.
Point multiplication builds no symbolic polynomial; it runs the product
recursion on exact rational values, for n <= 64.
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
    """y^y_factor times the weighted-homogeneous polynomial whose x^m
    coefficient is rows[m], a map (f_A, f_B) -> int; the top row is x^d."""

    n: int
    y_factor: int
    rows: tuple

    def value(self, a: int, b: int, x: int, y: int) -> int:
        """The value at the point (x, y) of y^2 = x^3 + a x + b."""
        pa, pb = ([v**i for i in range(len(self.rows))] for v in (a, b))
        acc = 0
        for row in reversed(self.rows):
            acc = acc * x + sum(c * pa[fa] * pb[fb] for (fa, fb), c in row.items())
        return y**self.y_factor * acc


_psi_cache: dict[int, DivPoly] = {}


def psi(n: int) -> DivPoly:
    """Symbolic n-th division polynomial, canonical form; 1 <= n <= PSI_N_MAX."""
    if n < 1:
        raise ValueError("psi requires n >= 1")
    if n > PSI_N_MAX:
        raise ValueError(f"n = {n} exceeds PSI_N_MAX = {PSI_N_MAX}")
    # the heat-equation recurrence of the module docstring
    if n in _psi_cache:
        return _psi_cache[n]
    N = n * n
    k = 3 * (1 - n % 2)  # twice the weight of the factor y of an even psi_n
    d, beta = (N - 1 - k) // 2, 4 * N - 3 - 2 * k
    c = [{} for _ in range(d + 3)]  # c[m] = {(f_A, f_B): int}, zero above x^d
    c[d] = {(0, 0): n}
    for m in range(d - 1, -1, -1):
        acc: dict[tuple[int, int], int] = {}
        for (fa, fb), v in c[m + 1].items():  # (8N A^2 d/dB - 36N B d/dA) c_{m+1}
            if fb:
                acc[fa + 2, fb - 1] = acc.get((fa + 2, fb - 1), 0) + 8 * N * fb * v
            if fa:
                acc[fa - 1, fb + 1] = acc.get((fa - 1, fb + 1), 0) - 36 * N * fa * v
        t = (m + 2) * (12 * (m + 1) - 2 * beta)
        for (fa, fb), v in c[m + 2].items():  # A c_{m+2}
            acc[fa + 1, fb] = acc.get((fa + 1, fb), 0) + t * v
        t = 12 * (m + 3) * (m + 2)
        for (fa, fb), v in c[m + 3].items():  # B c_{m+3}
            acc[fa, fb + 1] = acc.get((fa, fb + 1), 0) + t * v
        s = 6 * (m - d) * (2 * m - N + k)  # > 0 for every m < d
        row = c[m]
        for key, v in acc.items():
            q, r = divmod(-v, s)
            if r:
                raise ArithmeticError(f"psi_{n}: the coefficient of x^{m} is not integral")
            if q:
                row[key] = q
    _psi_cache[n] = DivPoly(n, k // 3, tuple(c[: d + 1]))
    return _psi_cache[n]


def _wmul(r1: tuple, r2: tuple) -> tuple:
    """The product of two polynomials held as rows, by the double loop
    over their terms; the triple-root check reads it."""
    out = [{} for _ in range(len(r1) + len(r2) - 1)]
    for i, row1 in enumerate(r1):
        for j, row2 in enumerate(r2):
            acc = out[i + j]
            for (a1, b1), c1 in row1.items():
                for (a2, b2), c2 in row2.items():
                    k = (a1 + a2, b1 + b2)
                    acc[k] = acc.get(k, 0) + c1 * c2
    return tuple({k: c for k, c in row.items() if c} for row in out)


# ---------------------------------------------------------------------------
# numeric psi values at a point (y^2 eliminated through the actual y value)


# psi_0 ... psi_4 as (y_factor, rows), the recursion's base cases
_BASE = {
    0: (0, ()),  # zero polynomial
    1: (0, ({(0, 0): 1},)),
    2: (1, ({(0, 0): 2},)),
    3: (0, ({(2, 0): -1}, {(0, 1): 12}, {(1, 0): 6}, {}, {(0, 0): 3})),
    4: (
        1,
        (
            {(0, 2): -32, (3, 0): -4},
            {(1, 1): -16},
            {(2, 0): -20},
            {(0, 1): 80},
            {(1, 0): 20},
            {},
            {(0, 0): 4},
        ),
    ),
}


def _psi_val(n, x, y, a, b, memo) -> Fraction:
    if n in memo:
        return memo[n]
    if n in _BASE:
        yf, rows = _BASE[n]
        v = y**yf * sum(
            c * x**m * a**fa * b**fb for m, row in enumerate(rows) for (fa, fb), c in row.items()
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
        for fx, row in enumerate(poly.rows):
            for (fa, fb), c in row.items():
                # weight of the stripped part minus f_x equals 2 f_A + 3 f_B
                expo = logn * logn * (2 * fa + 3 * fb)
                log_bound = log_k1 + K2 * logn + expo * log_k3
                ratio = math.exp(math.log(abs(c)) - log_bound)
                # no psi_n, n <= 32, has two terms of one weight and one |C_f|
                # (the tests check it), so the witness does not hang on term order
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

    def specialize(rows: tuple) -> list[Fraction]:
        return [sum(c * a**fa * b**fb for (fa, fb), c in row.items()) for row in rows]

    p3, p4 = psi(3).rows, psi(4).rows
    p3sq = specialize(_wmul(p3, p3))
    # psi2 psi4 = 2y * y * (y-stripped psi4) = 2 (x^3 + A x + B) (y-stripped psi4)
    curve_p4 = specialize(_wmul(({(0, 1): 1}, {(1, 0): 1}, {}, {(0, 0): 1}), p4))
    out = [Fraction(0)] * 10
    for i, c in enumerate(p3sq):
        out[i + 1] += c  # psi3^2 * x
        out[i] -= c * xr  # - psi3^2 x(R)
    for i, c in enumerate(curve_p4):
        out[i] -= 2 * c
    return out
