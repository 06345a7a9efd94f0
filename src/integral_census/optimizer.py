"""Constraint system in (c, D, s), per-rank bounds, and aggregation.

Pipeline: derive Dtilde and C = 5 Dtilde^2 from D, evaluate the two
feasibility inequalities at 50 digits (the second holds by ~3e-8 at the
reference parameters, so precision is not optional), convert feasible
parameters into per-rank integral-point bounds through the code-bound
module, then aggregate over a rank distribution: either an explicit
distribution or a worst-case linear program constrained by moment caps
and proportion floors, with a geometric tail envelope above r_max.

``aggregate_bound`` and ``optimize`` check the constraints once per
parameter vector, not once per rank, and the code bounds are memoized by (r, theta) in
``codes.best_code_bound``, so parameter vectors that share a J share
their LP solves.

``optimize`` prunes: the worst-case LP's feasible set depends on the model
alone, so the incumbent's optimal distribution p* is feasible for every
trial, and density * sum_r p*_r b_r(trial) is at most the trial's
aggregate.  A trial whose bound exceeds the incumbent's aggregate by more
than 1e-6 (1 + |aggregate|) could never be accepted, and is skipped after
its constraint check and the code bounds of the ranks with p*_r > 0 (0..3
at the reference point), before its other LPs.  A trial evaluated in full
solves the LPs of each theta = acos(J/2) in one concurrent batch
(``codes._fill_best``).  Within one search the worst-case LP is also
memoized on its input vector (b_0 .. b_20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.optimize import linprog

from .codes import _fill_best, best_code_bound

__all__ = [
    "OptimizerParams",
    "RankModel",
    "BoundReport",
    "d_tilde",
    "kappa",
    "check_constraints",
    "per_rank_bound",
    "aggregate_bound",
    "optimize",
    "REFERENCE_PARAMS",
    "REPORTED_COMPARISON_BOUND",
    "DEFAULT_MOMENT_CAPS",
    "DEFAULT_FLOORS",
    "DEFAULT_DENSITY",
]

_DPS = 50
_R_MAX = 40  # per_rank holds the bounds for ranks 0.._R_MAX
_R_LP = 20  # the worst-case LP spans ranks 0.._R_LP, the tail envelope the rest

# published comparison value for the unconditional average bound
REPORTED_COMPARISON_BOUND = 65.8457

DEFAULT_MOMENT_CAPS = [(3, 4.0), (5, 6.0)]
DEFAULT_FLOORS = {"rank0": 0.2275, "rank1": 0.22821, "rank01": 0.8422}
# each floor bounds from below the probability of these ranks together
_FLOOR_RANKS = {"rank0": (0,), "rank1": (1,), "rank01": (0, 1)}
DEFAULT_DENSITY = Fraction(8, 9)


def _real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass
class OptimizerParams:
    """A parameter vector (c, D, s, J), checked against the domain of the
    constraint formulas when built: c in (0, 1), D finite and > 1, s an
    integer >= 1 and every J in (1, 2)."""

    c: float
    D: float
    s: int
    J_by_rank: dict[int, float] = field(default_factory=dict)
    J_default: float = 1.2

    def __post_init__(self):
        if not (_real(self.c) and 0 < self.c < 1):
            raise ValueError(f"c must lie in (0, 1), got {self.c!r}")
        if not (_real(self.D) and 1 < self.D < math.inf):
            raise ValueError(f"D must be finite and > 1, got {self.D!r}")
        if not (_real(self.s) and isinstance(self.s, int) and self.s >= 1):
            raise ValueError(f"s must be an integer >= 1, got {self.s!r}")
        for j in (self.J_default, *self.J_by_rank.values()):
            if not (_real(j) and 1 < j < 2):
                raise ValueError(f"J must lie in (1, 2), got {j!r}")

    def J(self, r: int) -> float:
        return self.J_by_rank.get(r, self.J_default)

    def C(self):
        dt = d_tilde(self.D)
        return 5 * dt * dt


REFERENCE_PARAMS = OptimizerParams(c=0.998114, D=612.117, s=3)


@dataclass
class RankModel:
    kind: str  # "explicit" | "moments"
    probabilities: dict[int, float] | None = None
    moment_caps: list[tuple[float, float]] = field(
        default_factory=lambda: list(DEFAULT_MOMENT_CAPS)
    )
    floors: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_FLOORS))
    density: Fraction = DEFAULT_DENSITY

    @staticmethod
    def minimalist() -> "RankModel":
        return RankModel(
            kind="explicit",
            probabilities={0: 0.5, 1: 0.5},
            density=DEFAULT_DENSITY,
        )

    @staticmethod
    def moments() -> "RankModel":
        return RankModel(kind="moments")


@dataclass
class BoundReport:
    per_rank: dict[int, float]
    aggregate: float
    constraints: dict
    params: OptimizerParams
    tail_bound: float
    r_max: int
    comparison: float = REPORTED_COMPARISON_BOUND
    # (rank, p) with p > 0 for the distribution that attains the aggregate:
    # the worst-case LP optimum, or the explicit probabilities
    worst_case: tuple[tuple[int, float], ...] = ()


def d_tilde(D):
    """(D + sqrt(D^2 + 4)) / 2 at 50 digits."""
    with mp.workdps(_DPS):
        Dm = mp.mpf(D)
        if Dm <= 1:
            raise ValueError("D must exceed 1")
        return (Dm + mp.sqrt(Dm * Dm + 4)) / 2


def kappa(C, D):
    """(9/2 - max(171/C, 171/D^2) - 504/C - 63/D^2) (1 + 1/D)^-2."""
    with mp.workdps(_DPS):
        Cm, Dm = mp.mpf(C), mp.mpf(D)
        if Cm <= 0 or Dm <= 0:
            raise ValueError("C, D must be positive")
        core = (
            mp.mpf(9) / 2
            - max(171 / Cm, 171 / Dm**2)
            - 504 / Cm
            - 63 / Dm**2
        )
        return core * (1 + 1 / Dm) ** -2


def check_constraints(params: OptimizerParams) -> dict:
    """Evaluate both feasibility inequalities at 50 digits."""
    with mp.workdps(_DPS):
        D = mp.mpf(params.D)
        c = mp.mpf(params.c)
        C = params.C()
        kap = kappa(C, D)
        iv_empty = bool(576 / C + 72 / D**2 + max(19 / C, 19 / D**2) < mp.mpf(1) / 2)
        if kap <= 1:
            return {
                "iv_empty": iv_empty,
                "roth_count": False,
                "kappa": float(kap),
                "reason": "kappa <= 1 makes (kappa-1)^s vanish or flip sign",
            }
        s = params.s
        lhs = (mp.sqrt(2) * c / 3 - 1 / (kap - 1) ** s) * kap - (
            1 + 1 / (kap - 1) ** s
        ) / (D - 1) ** 2 * (9 + (kap + 1) / (1 / c**2 - 1))
        return {
            "iv_empty": iv_empty,
            "roth_count": bool(lhs > 2),
            "kappa": float(kap),
            "roth_margin": float(lhs - 2),
        }


_INFEASIBLE = "parameters fail the feasibility constraints"


def _feasible_constraints(params: OptimizerParams) -> dict | None:
    """check_constraints if both inequalities hold, else None."""
    verdict = check_constraints(params)
    return verdict if verdict["iv_empty"] and verdict["roth_count"] else None


def per_rank_bound(r: int, params: OptimizerParams, code_fn=best_code_bound) -> float:
    """Integral-point bound for curves of rank r under feasible parameters."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if r < 2:
        return _rank_bound(r, params, None, code_fn)
    if _feasible_constraints(params) is None:
        raise ValueError(_INFEASIBLE)
    return _rank_bound(r, params, float(d_tilde(params.D)), code_fn)


def _rank_bound(
    r: int, params: OptimizerParams, dt: float | None, code_fn=best_code_bound
) -> float:
    """per_rank_bound without the feasibility check; dt = float(d_tilde(D))
    and is unused below rank 2."""
    if r == 0:
        return 0.0
    if r == 1:
        return 2.0
    j = params.J(r)
    shells = math.ceil(math.log(dt) / math.log(j))
    code = code_fn(r, math.acos(j / 2)).bound
    return 2 * r * shells * code + 9 * params.s * (3**r - 1)


def _tail_bound(params: OptimizerParams, dt: float, model: RankModel) -> float:
    """sum_{r > _R_LP} cap * b_r / base^r using the fastest-decaying cap."""
    if model.kind == "explicit" or not model.moment_caps:
        return 0.0
    base, cap = max(model.moment_caps, key=lambda bc: bc[0])
    total = 0.0
    for r in range(_R_LP + 1, _R_LP + 200):
        term = cap * _rank_bound(r, params, dt) / base**r
        total += term
        if term < 1e-16:
            break
    return total


def aggregate_bound(
    model: RankModel, params: OptimizerParams = REFERENCE_PARAMS
) -> BoundReport:
    """Average integral-point bound under a rank-distribution model.

    Raises ValueError if the parameters fail the feasibility constraints.
    """
    report = _feasible_aggregate(model, params)
    if report is None:
        raise ValueError(_INFEASIBLE)
    return report


def _feasible_aggregate(
    model: RankModel,
    params: OptimizerParams,
    incumbent: BoundReport | None = None,
    lp_memo: dict | None = None,
) -> BoundReport | None:
    """aggregate_bound, or None if the parameters fail the feasibility
    constraints or, given an incumbent, provably aggregate above it; checks
    the constraints once.  lp_memo maps (b_0 .. b_R_LP) to a worst-case LP
    result.  An unknown floor or an infeasible floor/cap combination still
    raises ValueError."""
    if unknown := sorted(set(model.floors) - set(_FLOOR_RANKS)):
        raise ValueError(f"unknown floors {unknown}, expected some of {list(_FLOOR_RANKS)}")
    constraints = _feasible_constraints(params)
    if constraints is None:
        return None
    dt = float(d_tilde(params.D))
    if incumbent is not None and _lower_bound(
        model, params, dt, incumbent.worst_case
    ) > incumbent.aggregate + _PRUNE_SLACK * (1 + abs(incumbent.aggregate)):
        return None
    thetas: dict[float, list[int]] = {}
    for r in range(2, _R_MAX + 1):
        thetas.setdefault(math.acos(params.J(r) / 2), []).append(r)
    for theta, ranks in thetas.items():
        _fill_best(ranks, theta)
    per_rank = {r: _rank_bound(r, params, dt) for r in range(0, _R_MAX + 1)}
    tail = _tail_bound(params, dt, model)
    if model.kind == "explicit":
        probs = model.probabilities or {}
        total = sum(probs.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError("explicit probabilities must sum to 1")
        worst_case = tuple((r, p) for r, p in sorted(probs.items()) if p > 0)
        agg = float(model.density) * sum(p * per_rank[r] for r, p in probs.items())
        return BoundReport(
            per_rank, agg, constraints, params, 0.0, _R_MAX, worst_case=worst_case
        )
    b = tuple(per_rank[r] for r in range(_R_LP + 1))
    memo = {} if lp_memo is None else lp_memo
    if b not in memo:
        memo[b] = _worst_case_lp(model, b)
    value, worst_case = memo[b]
    agg = float(model.density) * value + tail
    return BoundReport(per_rank, agg, constraints, params, tail, _R_MAX, worst_case=worst_case)


def _worst_case_lp(
    model: RankModel, b: tuple[float, ...]
) -> tuple[float, tuple[tuple[int, float], ...]]:
    """max b.p over the model's distributions p on {0.._R_LP}, and the
    (rank, p) pairs with p > 0 of the optimum.

    Ranks above _R_LP are covered by the tail envelope (their probabilities
    are forced below cap/base^r, and base^r overflows the LP solver's
    coefficient range).  The feasible set depends on the model alone.
    """
    n = len(b)
    a_ub, b_ub = [], []
    for base, cap in model.moment_caps:
        a_ub.append([float(base) ** r for r in range(n)])
        b_ub.append(cap)
    for key, ranks in _FLOOR_RANKS.items():
        if key in model.floors:
            row = [0.0] * n
            for r in ranks:
                row[r] = -1.0
            a_ub.append(row)
            b_ub.append(-model.floors[key])
    # maximize b.p  ==  minimize -b.p
    res = linprog(
        -np.array(b),
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        A_eq=np.ones((1, n)),
        b_eq=np.array([1.0]),
        bounds=[(0, None)] * n,
    )
    if not res.success:
        raise ValueError(f"infeasible floor/cap combination: {res.message}")
    return float(-res.fun), tuple((r, float(p)) for r, p in enumerate(res.x) if p > 0)


# p* meets the LP constraints only to the solver's tolerance, so its bound
# may pass a trial's computed optimum by about that much
_PRUNE_SLACK = 1e-6


def _lower_bound(
    model: RankModel,
    params: OptimizerParams,
    dt: float,
    worst_case: tuple[tuple[int, float], ...],
) -> float:
    """density * sum_r p_r b_r(params) over another vector's worst case p.

    p is feasible for every parameter vector, since the LP constraints
    depend on the model alone, and every b_r and the tail are >= 0; so
    this is at most the aggregate at params.  It needs the code bounds of
    the ranks in p alone.
    """
    return float(model.density) * sum(p * _rank_bound(r, params, dt) for r, p in worst_case)


def optimize(
    model: RankModel, grid: dict | None = None, refine_iters: int = 40
) -> BoundReport:
    """Grid search over (c, D, s, J) plus coordinate-descent refinement.

    Ties break toward the lexicographically smallest parameter vector, so
    results are deterministic for a fixed grid.
    """
    if grid is None:
        grid = {
            "c": [0.99, 0.998114, 0.9995],
            "D": [300.0, 612.117, 1200.0],
            "s": [3, 4],
            "J": [1.15, 1.2, 1.3],
        }
    candidates = []
    for c in grid.get("c", [REFERENCE_PARAMS.c]):
        for D in grid.get("D", [REFERENCE_PARAMS.D]):
            for s in grid.get("s", [REFERENCE_PARAMS.s]):
                for j in grid.get("J", [1.2]):
                    candidates.append(OptimizerParams(c=c, D=D, s=s, J_default=j))
    best = None
    best_key = None
    evaluated = []
    lp_memo: dict = {}
    for params in candidates:
        report = _feasible_aggregate(model, params, best, lp_memo)
        if report is None:
            continue
        evaluated.append(report.aggregate)
        key = (report.aggregate, params.c, params.D, params.s, params.J_default)
        if best_key is None or key < best_key:
            best, best_key = report, key
    if best is None:
        raise ValueError("no feasible point in grid")
    best = _refine(model, best, refine_iters, lp_memo)
    if evaluated and best.aggregate > min(evaluated) + 1e-12:
        raise AssertionError("refinement must not lose to an evaluated grid point")
    return best


def _refine(model: RankModel, report: BoundReport, iters: int, lp_memo: dict) -> BoundReport:
    steps = {"c": 0.0005, "D": 50.0, "J_default": 0.02}
    best = report
    for _ in range(iters):
        improved = False
        for attr, step in steps.items():
            for sign in (-1, 1):
                p = best.params
                try:
                    trial = replace(p, **{attr: getattr(p, attr) + sign * step})
                except ValueError:  # a step out of the parameter domain
                    continue
                cand = _feasible_aggregate(model, trial, best, lp_memo)
                if cand is not None and cand.aggregate < best.aggregate - 1e-12:
                    best = cand
                    improved = True
        if not improved:
            for k in steps:
                steps[k] /= 2
    return best
