"""Upper bounds for point sets with bounded pairwise inner products.

Four methods: a spherical-cap volume bound (with a projective variant),
the exact circle bound for lines in the plane, the Kabatiansky-Levenshtein
exponential rate, and a Delsarte-type linear-programming bound for
projective codes in small dimension.

``best_code_bound`` takes the smallest certified bound and memoizes it by
(r, theta), and the projective cap is computed once per (r, theta) as
well.  Every LP runs on the calling thread; the optimizer solves only the
ranks its worst case reads and starts the others at their cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import mpmath as mp
import numpy as np
from scipy.optimize import linprog

__all__ = [
    "CodeBoundResult",
    "cap_bound",
    "rp1_bound",
    "kl_exponent",
    "kl_base",
    "kl_invert",
    "lp_bound",
    "best_code_bound",
]

_THETA_EDGE = 1e-6
_LP_R_MAX = 16  # the largest rank lp_bound solves


@dataclass(frozen=True)
class CodeBoundResult:
    r: int
    theta: float
    method: str
    bound: float
    certified: bool = True
    detail: Mapping | None = None

    def __post_init__(self):
        # memoized results are shared by every caller: keep detail read-only
        if self.detail is not None:
            object.__setattr__(self, "detail", MappingProxyType(dict(self.detail)))


def cap_bound(r: int, theta: float, projective: bool = False) -> float:
    """Cap-packing bound 2 sqrt(3r) sin(theta/2)^(1-r) / cos(theta/2).

    The projective flag selects the halved variant
    sqrt(3r) (1/2 - J/4)^((1-r)/2) (1/2 + J/4)^(-1/2) with J = 2 cos theta.
    """
    if r < 3:
        raise ValueError("cap_bound requires r >= 3 (use rp1_bound or lp_bound)")
    if not 0 < theta < math.pi - _THETA_EDGE:
        raise ValueError("theta out of domain")
    with mp.workdps(50):
        if projective:
            root, tail = _projective_cap_terms(theta)
            val = mp.sqrt(3 * r) * root ** (r - 1) * tail
        else:
            th = mp.mpf(theta)
            val = (
                2
                * mp.sqrt(3 * r)
                * mp.sin(th / 2) ** (1 - r)
                / mp.cos(th / 2)
            )
        return float(val)


@functools.lru_cache(maxsize=None)
def _projective_cap_terms(theta: float):
    """((1/2 - J/4)^(-1/2), (1/2 + J/4)^(-1/2)), J = 2 cos theta, at 50 digits.

    Every r at one theta shares them; cap_bound takes the first to the power r - 1.
    """
    with mp.workdps(50):
        j = 2 * mp.cos(mp.mpf(theta))
        return 1 / mp.sqrt(mp.mpf(1) / 2 - j / 4), (mp.mpf(1) / 2 + j / 4) ** (mp.mpf(-1) / 2)


def cap_gamma_ratio_gap(r: int) -> float:
    """Gamma((r-1)/2)/Gamma(r/2) - 2 sqrt(3) / sqrt(pi r); zero at r = 3."""
    with mp.workdps(60):
        lhs = mp.gamma(mp.mpf(r - 1) / 2) / mp.gamma(mp.mpf(r) / 2)
        rhs = 2 * mp.sqrt(3) / mp.sqrt(mp.pi * r)
        return float(lhs - rhs)


def rp1_bound(theta: float) -> int:
    """Max lines in the plane with pairwise angle >= theta: floor(pi/theta)."""
    if not 0 < theta <= math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2]")
    return int(mp.floor(mp.pi / mp.mpf(theta)))


def kl_exponent(theta: float):
    """Per-dimension exponential rate of the sphere-code bound, at 50 digits."""
    if not 0 < theta <= math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2]")
    with mp.workdps(50):
        st = mp.sin(mp.mpf(theta))
        a = (1 + st) / (2 * st)
        b = (1 - st) / (2 * st)
        rate = a * mp.log(a) - (b * mp.log(b) if b > 0 else mp.mpf(0))
        return rate


def kl_base(theta: float) -> float:
    return float(mp.e ** kl_exponent(theta))


def kl_invert(base: float) -> dict:
    """Solve kl_base(theta) = base by bisection; rate decreases in theta."""
    if not 1 < base <= 10:
        raise ValueError("base must lie in (1, 10]")
    with mp.workdps(50):
        target = mp.log(mp.mpf(base))
        lo, hi = mp.mpf("1e-8"), mp.pi / 2
        if kl_exponent(float(hi)) > target or kl_exponent(float(lo)) < target:
            raise ValueError("no root in (0, pi/2]")
        while hi - lo > mp.mpf("1e-12"):
            mid = (lo + hi) / 2
            if kl_exponent(float(mid)) > target:
                lo = mid
            else:
                hi = mid
        theta = (lo + hi) / 2
        return {"theta": float(theta), "cos_theta": float(mp.cos(theta))}


# ---------------------------------------------------------------------------
# Delsarte-type LP bound for projective codes


def _basis_eval(r: int, degrees: list[int], t: np.ndarray) -> np.ndarray:
    """Rows: evaluation of the normalized positive-definite basis at t."""
    from scipy.special import eval_chebyt, eval_gegenbauer

    rows = []
    for k in degrees:
        if r == 2:
            vals = eval_chebyt(k, t)
            norm = 1.0
        else:
            lam = (r - 2) / 2.0
            vals = eval_gegenbauer(k, lam, t)
            norm = eval_gegenbauer(k, lam, 1.0)
        rows.append(vals / norm)
    return np.array(rows)


def _gegenbauer_series(r: int, coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """f(t) = 1 + sum_i coeffs[i] G_{2i+2}(t) in one pass over the degrees.

    G_k = C_k^lam / C_k^lam(1), lam = (r - 2)/2, follows the normalized
    recurrence (k + 2 lam) G_{k+1} = 2 (k + lam) t G_k - k G_{k-1} from
    G_0 = 1, G_1 = t; at r = 2 that is Chebyshev's T_k. Only the last two
    rows are kept.
    """
    lam = (r - 2) / 2.0
    prev, cur = np.ones_like(t), t
    f = np.ones_like(t)
    for k in range(1, 2 * len(coeffs)):
        prev, cur = cur, (2 * (k + lam) * t * cur - k * prev) / (k + 2 * lam)
        if k % 2:  # cur is G_{k+1}, an even degree
            f += coeffs[k // 2] * cur
    return f


def _fine_grid_check(
    r: int, coeffs: np.ndarray, ct: float, size: int
) -> tuple[float, bool]:
    """Max of f on `size` even nodes of [0, ct], and whether f <= 1e-9 there
    with coefficients >= -1e-12."""
    margin = float(np.max(_gegenbauer_series(r, coeffs, np.linspace(0.0, ct, size))))
    return margin, margin <= 1e-9 and bool(np.all(coeffs >= -1e-12))


def lp_bound(
    r: int, theta: float, degree: int = 20, grid_size: int = 400
) -> CodeBoundResult:
    """LP bound for projective codes with |<v, w>| <= cos theta.

    Finds f = 1 + sum_k f_k G_k (even degrees, nonnegative coefficients)
    with f <= 0 on [0, cos theta]; then the code size is at most f(1).
    The LP matrix comes from scipy's Gegenbauer values on grid_size nodes.
    Certification re-checks the sign condition on a 10x finer grid, where
    f is summed in one pass of the three-term recurrence
    (``_gegenbauer_series``); the two evaluations differ by about 1e-15.
    Presolve is off: it removes nothing from this dense LP, at 0.7 ms a solve.
    """
    if not 2 <= r <= _LP_R_MAX:
        raise ValueError(f"lp_bound supports 2 <= r <= {_LP_R_MAX}")
    # f has even degrees only: an odd degree would solve the LP one below it
    if not 2 <= degree <= 40 or degree % 2:
        raise ValueError(f"lp_bound supports an even degree, 2 <= degree <= 40, got {degree}")
    # 100,000 nodes took 1.5 s and 365 MB peak RSS at r = 5 (2-core x86-64 VM)
    if not 200 <= grid_size <= 100_000:
        raise ValueError(f"grid_size must lie in [200, 100000], got {grid_size}")
    if not 0 < theta < math.pi / 2 + _THETA_EDGE:
        raise ValueError("theta out of domain")
    ct = math.cos(theta)
    degrees = list(range(2, degree + 1, 2))
    t_grid = np.linspace(0.0, ct, grid_size)
    basis_grid = _basis_eval(r, degrees, t_grid)
    # variables f_k >= 0; minimize f(1) = 1 + sum f_k; constraint f(t) <= 0,
    # tightened by a small slack so the optimum stays negative between nodes
    slack = 1e-4
    c = np.ones(len(degrees))
    a_ub = basis_grid.T
    b_ub = -(1.0 + slack) * np.ones(grid_size)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), options={"presolve": False})
    if not res.success:
        return CodeBoundResult(r, theta, "lp", math.inf, False, {"status": res.message})
    coeffs = res.x
    bound = 1.0 + float(np.sum(coeffs))
    margin, certified = _fine_grid_check(r, coeffs, ct, 10 * grid_size)
    return CodeBoundResult(
        r,
        theta,
        "lp",
        bound,
        certified,
        {"degree": degree, "grid_size": grid_size, "fine_grid_max": margin},
    )


# (r, theta) -> best_code_bound result; callers share the frozen results
_BEST: dict[tuple[int, float], CodeBoundResult] = {}
# (r, theta) -> the projective cap_bound, which the optimizer's start vectors
# and best_code_bound's cap candidate share
_CAPS: dict[tuple[int, float], float] = {}


def _projective_cap(r: int, theta: float) -> float:
    cap = _CAPS.get((r, theta))
    if cap is None:
        cap = _CAPS[(r, theta)] = cap_bound(r, theta, projective=True)
    return cap


def best_code_bound(r: int, theta: float) -> CodeBoundResult:
    """Minimum over the applicable certified methods for lines in R^r.

    Memoized by (r, theta): the optimizer asks for the same bound for every
    parameter vector that shares a J = 2 cos theta.
    """
    result = _BEST.get((r, theta))
    if result is None:
        result = _BEST[(r, theta)] = _best_code_bound(r, theta)
    return result


def _best_code_bound(r: int, theta: float) -> CodeBoundResult:
    """The best bound at (r, theta): the projective cap, or below it a
    certified LP bound for 3 <= r <= _LP_R_MAX, or rp1 at r = 2."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if r == 2:
        return CodeBoundResult(2, theta, "rp1", float(rp1_bound(theta)))
    candidates = [CodeBoundResult(r, theta, "cap", _projective_cap(r, theta))]
    if r <= _LP_R_MAX:
        lp = lp_bound(r, theta)
        if lp.certified and math.isfinite(lp.bound):
            candidates.append(lp)
    return min(candidates, key=lambda c: c.bound)
