"""Constraint system in (c, D, s), per-rank bounds, and aggregation.

Pipeline: derive Dtilde and C = 5 Dtilde^2 from D, evaluate the two
feasibility inequalities at 50 digits (the second holds by ~3e-8 at the
reference parameters, so precision is not optional), convert feasible
parameters into per-rank integral-point bounds through the code-bound
module, then aggregate over a rank distribution: either an explicit
distribution or a worst-case linear program constrained by moment caps
and proportion floors, with a geometric tail envelope above r_max.

Each invariant is computed once per process: the constraint verdict by
(c, D, s), the code bounds and the projective cap by (r, theta) in
``codes``, and the worst-case LP by the model's rows and its input vector
(b_0 .. b_20).  So parameter vectors that share a J share their code-bound
LPs, and ``aggregate_bound`` at a point and a search through it share
their worst-case LPs.

The worst case reads the LP code bounds lazily.  Every rank 3..16, where
``best_code_bound`` would solve an LP, starts at its closed-form cap,
which is never below the best bound.  The worst-case LP is solved, each
rank of its support still on cap takes its best bound, and the LP is
solved again, until every support rank holds its best bound.  A search
trial also starts the support ranks of its incumbent at their best bounds,
which its lower bound below has just read.  With b the
vector of best bounds, b' the final vector and p' its optimum, b' >= b
with equality on the support of p', so b.p' = b'.p' = V(b') >= V(b) >=
b.p': the aggregate is the one every best bound gives.  An explicit model
reads the best bounds of its own support.  The start never depends on
what the memo holds, so a cold and a warm memo give one report.

``optimize`` prunes: the worst-case LP's feasible set depends on the model
alone, so the incumbent's optimal distribution p* is feasible for every
trial, and density * sum_r p*_r b_r(trial) is at most the trial's
aggregate.  A trial whose bound exceeds the incumbent's aggregate by more
than 1e-6 (1 + |aggregate|) could never be accepted, and is skipped after
its constraint check and the code bounds of the ranks with p*_r > 0 (0..3
at the reference point), before its other LPs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.optimize import linprog

from .codes import _LP_R_MAX, CodeBoundResult, _projective_cap, best_code_bound

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
    integer >= 1, every J in (1, 2) and every J_by_rank key an int rank
    >= 2.  c, D and every J are then stored as floats, so D = 700 and
    D = 700.0 are one vector."""

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
        for r in self.J_by_rank:  # ranks 0 and 1 read no J
            if not (isinstance(r, int) and not isinstance(r, bool) and r >= 2):
                raise ValueError(f"J_by_rank must be keyed by int ranks >= 2, got key {r!r}")
        for j in (self.J_default, *self.J_by_rank.values()):
            if not (_real(j) and 1 < j < 2):
                raise ValueError(f"J must lie in (1, 2), got {j!r}")
        self.c, self.D, self.J_default = float(self.c), float(self.D), float(self.J_default)
        self.J_by_rank = {r: float(j) for r, j in self.J_by_rank.items()}

    def J(self, r: int) -> float:
        return self.J_by_rank.get(r, self.J_default)

    def C(self):
        dt = d_tilde(self.D)
        return 5 * dt * dt


REFERENCE_PARAMS = OptimizerParams(c=0.998114, D=612.117, s=3)


@dataclass(frozen=True)
class RankModel:
    """A rank distribution: the explicit probabilities when given, else the
    worst case under the moment caps and floors; density scales either.
    Every field is checked when the model is built."""

    probabilities: dict[int, float] | None = None
    moment_caps: list[tuple[float, float]] = field(
        default_factory=lambda: list(DEFAULT_MOMENT_CAPS)
    )
    floors: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_FLOORS))
    density: Fraction = DEFAULT_DENSITY

    def __post_init__(self):
        caps = self.moment_caps
        try:  # the tail's first term divides by base^(_R_LP + 1)
            ok = isinstance(caps, (list, tuple)) and len(caps) > 0 and all(
                isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_real, x))
                and x[0] > 1 and math.isfinite(float(x[0]) ** (_R_LP + 1))
                and x[1] > 0 and math.isfinite(x[1])
                for x in caps
            )
        except OverflowError:  # a power or an int past the float range
            ok = False
        if not ok:
            raise ValueError(f"moment_caps must be a non-empty list of [base, cap] pairs, base > 1 "
                             f"with base^{_R_LP + 1} a finite float, cap > 0 finite; got {caps!r}")
        floors = self.floors
        if not (isinstance(floors, dict) and all(_real(v) and 0 <= v <= 1 for v in floors.values())):
            raise ValueError(f"floors must map names to numbers in [0, 1], got {floors!r}")
        if unknown := sorted(set(floors) - set(_FLOOR_RANKS)):
            raise ValueError(f"unknown floors {unknown}, expected some of {list(_FLOOR_RANKS)}")
        # the search prunes on density * sum_r p_r b_r as a non-negative lower bound
        if not 0 < self.density <= 1:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        probs = self.probabilities
        if probs is not None and not (
            all(p >= 0 for p in probs.values()) and abs(sum(probs.values()) - 1.0) <= 1e-12
        ):
            raise ValueError(f"explicit probabilities must be >= 0 and sum to 1, got {probs!r}")
        # one value, one spelling, so one model has one hash: a base that is an integer
        # is held as an int, so the tail divides by the exact power base**r; caps and
        # floors are floats
        object.__setattr__(self, "moment_caps", [
            (int(b) if float(b).is_integer() else float(b), float(c)) for b, c in caps
        ])
        object.__setattr__(self, "floors", {k: float(v) for k, v in floors.items()})

    @staticmethod
    def minimalist() -> "RankModel":
        return RankModel(probabilities={0: 0.5, 1: 0.5})

    @staticmethod
    def moments() -> "RankModel":
        return RankModel()


@dataclass
class BoundReport:
    """An aggregate and what it was computed from.

    per_rank holds the per-rank bounds the aggregate used: a rank 3..16
    outside the worst case's support may stand at its cap code bound.  In
    the report that aggregate_bound or optimize returns, ranks 3..10,
    which the CLI prints, are replaced by their best bounds.
    """

    per_rank: dict[int, float]
    aggregate: float
    constraints: dict
    params: OptimizerParams
    tail_bound: float
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


def _feasible(verdict: dict) -> bool:
    return verdict["iv_empty"] and verdict["roth_count"]


# (c, D, s) -> check_constraints verdict
_VERDICTS: dict[tuple[float, float, int], dict] = {}


def _verdict(params: OptimizerParams) -> dict:
    """check_constraints, as a new dict each call."""
    key = (params.c, params.D, params.s)
    verdict = _VERDICTS.get(key)
    if verdict is None:
        verdict = _VERDICTS[key] = check_constraints(params)
    return dict(verdict)


def per_rank_bound(r: int, params: OptimizerParams, code_fn=best_code_bound) -> float:
    """Integral-point bound for curves of rank r under feasible parameters."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if r < 2:
        return _rank_bound(r, params, None, code_fn)
    if not _feasible(check_constraints(params)):
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


class _NoBound(ValueError):
    """There is no bound at these parameters: they fail the feasibility
    constraints, or the tail series is open.  A search skips them."""


def _tail_bound(params: OptimizerParams, dt: float, model: RankModel) -> float:
    """sum_{r > _R_LP} cap * b_r / base^r using the fastest-decaying cap, up to
    its first term below 1e-16.  Raises _NoBound if none of 199 terms is:
    b_r grows like 3^r, so the series may diverge, and a partial sum bounds nothing."""
    if model.probabilities is not None:
        return 0.0
    base, cap = max(model.moment_caps, key=lambda bc: bc[0])
    total = 0.0
    for r in range(_R_LP + 1, _R_LP + 200):
        term = cap * _rank_bound(r, params, dt) / base**r
        total += term
        if term < 1e-16:
            return total
    raise _NoBound(f"tail_bound: the term cap*b_r/base^r at r = {r} is {term:.3g}, not below "
                   f"1e-16 (base {base!r}, J {params.J(r)!r}); the series gives no bound")


def aggregate_bound(
    model: RankModel, params: OptimizerParams = REFERENCE_PARAMS
) -> BoundReport:
    """Average integral-point bound under a rank-distribution model.

    Raises ValueError if the parameters fail the feasibility constraints or
    the tail series does not converge at them.
    """
    return _shown(_feasible_aggregate(model, params))


def _shown(report: BoundReport) -> BoundReport:
    """report with ranks 3..10 of per_rank, which the CLI prints, at their best bounds."""
    dt = float(d_tilde(report.params.D))
    best = {r: _rank_bound(r, report.params, dt) for r in range(3, 11)}
    return replace(report, per_rank={**report.per_rank, **best})


def _start_code(r: int, theta: float) -> CodeBoundResult:
    """A rank's code bound before the worst case reads it: the cap candidate
    of best_code_bound where that would solve an LP, else the best bound."""
    if 3 <= r <= _LP_R_MAX:
        return CodeBoundResult(r, theta, "cap", _projective_cap(r, theta))
    return best_code_bound(r, theta)


def _feasible_aggregate(
    model: RankModel, params: OptimizerParams, incumbent: BoundReport | None = None
) -> BoundReport | None:
    """aggregate_bound, or None if, given an incumbent, the parameters
    provably aggregate above it.  Raises _NoBound where there is no bound,
    and ValueError for an infeasible floor/cap combination."""
    constraints = _verdict(params)
    if not _feasible(constraints):
        raise _NoBound(_INFEASIBLE)
    dt = float(d_tilde(params.D))
    best: dict[int, float] = {}  # the ranks that hold their best bound
    if incumbent is not None:
        best = {r: _rank_bound(r, params, dt) for r, _ in incumbent.worst_case}
        if _lower_bound(model, best, incumbent.worst_case) > (
            incumbent.aggregate + _PRUNE_SLACK * (1 + abs(incumbent.aggregate))
        ):
            return None
    tail = _tail_bound(params, dt, model)  # before the LPs, which an open tail makes moot
    per_rank = {r: _rank_bound(r, params, dt, _start_code) for r in range(0, _R_MAX + 1)}
    per_rank.update(best)
    if (probs := model.probabilities) is not None:  # tail is 0 here
        worst_case = tuple((r, p) for r, p in sorted(probs.items()) if p > 0)
        for r, _ in worst_case:
            per_rank[r] = _rank_bound(r, params, dt)
        agg = float(model.density) * sum(p * per_rank[r] for r, p in probs.items())
        return BoundReport(per_rank, agg, constraints, params, tail, worst_case=worst_case)
    while True:
        value, worst_case = _worst_case(model, tuple(per_rank[r] for r in range(_R_LP + 1)))
        unread = [r for r, _ in worst_case if r not in best]
        if not unread:
            break
        # ranks outside 3..16 start at their best bound, so b may not move
        for r in unread:
            per_rank[r] = best[r] = _rank_bound(r, params, dt)
    agg = float(model.density) * value + tail
    return BoundReport(per_rank, agg, constraints, params, tail, worst_case=worst_case)


# (moment caps, floors, b), the LP's rows and objective -> _worst_case_lp result
_WORST_CASES: dict[tuple, tuple] = {}


def _worst_case(model: RankModel, b: tuple[float, ...]) -> tuple:
    key = (tuple(model.moment_caps), tuple(sorted(model.floors.items())), b)
    result = _WORST_CASES.get(key)
    if result is None:
        result = _WORST_CASES[key] = _worst_case_lp(model, b)
    return result


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
        # scipy gives status 2 to an infeasible model and to a HiGHS model error alike
        if res.message.startswith("The problem is infeasible"):
            raise ValueError(f"infeasible floor/cap combination: {res.message}")
        top = max(float(base) ** (n - 1) for base, _ in model.moment_caps)
        raise ValueError(f"the worst-case LP could not be solved: {res.message}; its largest "
                         f"moment coefficient base^{n - 1} is {top:.3g}")
    return float(-res.fun), tuple((r, float(p)) for r, p in enumerate(res.x) if p > 0)


# p* meets the LP constraints only to the solver's tolerance, so its bound
# may pass a trial's computed optimum by about that much
_PRUNE_SLACK = 1e-6


def _lower_bound(
    model: RankModel, b: dict[int, float], worst_case: tuple[tuple[int, float], ...]
) -> float:
    """density * sum_r p_r b_r over another vector's worst case p, with b
    a trial's best bounds of the ranks in p.

    p is feasible for every parameter vector, since the LP constraints
    depend on the model alone, and every b_r and the tail are >= 0; so
    this is at most the trial's aggregate.
    """
    return float(model.density) * sum(p * b[r] for r, p in worst_case)


def _search_grid(grid: dict) -> dict:
    """grid checked and as the search runs it: keyed c, D, s and J in that
    order, a missing key at its REFERENCE_PARAMS value, and each value as
    OptimizerParams stores it, so {"D": [700]} and {"D": [700.0]} are one grid."""
    fields = {"c": "c", "D": "D", "s": "s", "J": "J_default"}
    if not (isinstance(grid, dict) and all(isinstance(v, list) for v in grid.values())):
        raise ValueError(f"grid must map parameter names to lists of numbers, got {grid!r}")
    if unknown := sorted(set(grid) - set(fields)):
        raise ValueError(f"unknown grid keys {unknown}, expected some of {sorted(fields)}")
    ref = REFERENCE_PARAMS
    return {key: [getattr(replace(ref, **{f: v}), f) for v in grid.get(key, [getattr(ref, f)])]
            for key, f in fields.items()}


def optimize(
    model: RankModel, grid: dict | None = None, refine_iters: int = 40
) -> BoundReport:
    """Grid search over (c, D, s, J) plus coordinate-descent refinement.

    Ties break toward the lexicographically smallest parameter vector, so
    results are deterministic for a fixed grid.
    """
    if grid is None:
        grid = {"c": [0.99, 0.998114, 0.9995], "D": [300.0, 612.117, 1200.0],
                "s": [3, 4], "J": [1.15, 1.2, 1.3]}
    candidates = [OptimizerParams(c, D, s, J_default=j)
                  for c, D, s, j in itertools.product(*_search_grid(grid).values())]
    best = None
    best_key = None
    evaluated = []
    for params in candidates:
        try:
            report = _feasible_aggregate(model, params, best)
        except _NoBound:
            continue
        if report is None:  # pruned
            continue
        evaluated.append(report.aggregate)
        key = (report.aggregate, params.c, params.D, params.s, params.J_default)
        if best_key is None or key < best_key:
            best, best_key = report, key
    if best is None:
        raise ValueError("no feasible point in grid")
    best = _refine(model, best, refine_iters)
    if evaluated and best.aggregate > min(evaluated) + 1e-12:
        raise AssertionError("refinement must not lose to an evaluated grid point")
    return _shown(best)


def _refine(model: RankModel, report: BoundReport, iters: int) -> BoundReport:
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
                try:
                    cand = _feasible_aggregate(model, trial, best)
                except _NoBound:
                    continue
                if cand is not None and cand.aggregate < best.aggregate - 1e-12:
                    best = cand
                    improved = True
        if not improved:
            for k in steps:
                steps[k] /= 2
    return best
