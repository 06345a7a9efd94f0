import dataclasses
import math
import re
import threading
from fractions import Fraction

import numpy as np
import pytest

from integral_census import codes, optimizer
from integral_census.optimizer import (
    REFERENCE_PARAMS,
    BoundReport,
    OptimizerParams,
    RankModel,
    aggregate_bound,
    check_constraints,
    d_tilde,
    kappa,
    optimize,
    per_rank_bound,
)


def test_d_tilde_frozen_value():
    # fixed point of x -> D + 1/x, evaluated at 50 digits
    dt = float(d_tilde(612.117))
    assert dt == pytest.approx(612.1186336702479, abs=1e-10)
    assert dt == pytest.approx(612.117 + 1 / dt, abs=1e-12)
    with pytest.raises(ValueError):
        d_tilde(0.5)


def test_kappa_frozen_value():
    params = REFERENCE_PARAMS
    k = float(kappa(params.C(), params.D))
    assert k == pytest.approx(4.4844422487910505, abs=1e-10)
    assert 4 < k < 4.5


def test_reference_constraints_hold():
    verdict = check_constraints(REFERENCE_PARAMS)
    assert verdict["iv_empty"]
    assert verdict["roth_count"]
    # the second inequality holds by a hair; freeze the 50-digit margin
    assert verdict["roth_margin"] == pytest.approx(2.6251428528916465e-08, rel=1e-4)


def test_infeasible_parameters_detected():
    verdict = check_constraints(OptimizerParams(c=0.998114, D=5.0, s=3))
    assert not (verdict["iv_empty"] and verdict["roth_count"])


@pytest.mark.parametrize(
    "given, named",
    [
        ({"c": 1.0}, "c"), ({"c": 0}, "c"), ({"c": True}, "c"), ({"c": "0.9"}, "c"),
        ({"D": 1.0}, "D"), ({"D": math.inf}, "D"), ({"D": math.nan}, "D"),
        ({"s": 3.0}, "s"), ({"s": 0}, "s"), ({"s": True}, "s"),
        ({"J_default": 2.0}, "J"), ({"J_by_rank": {5: 1.0}}, "J"),
        # keys no rank reads, and True, which would be read as rank 1
        ({"J_by_rank": {"3": 1.3}}, "J_by_rank"), ({"J_by_rank": {-1: 1.5}}, "J_by_rank"),
        ({"J_by_rank": {True: 1.4}}, "J_by_rank"),
    ],
)
def test_params_outside_the_domain_raise(given, named):
    with pytest.raises(ValueError, match=f"^{named} must"):
        OptimizerParams(**{"c": 0.998114, "D": 612.117, "s": 3, **given})


def test_per_rank_values():
    assert per_rank_bound(0, REFERENCE_PARAMS) == 0.0
    assert per_rank_bound(1, REFERENCE_PARAMS) == 2.0
    b2 = per_rank_bound(2, REFERENCE_PARAMS)
    # r = 2: 2 * 2 * ceil(log dtilde / log 1.2) * rp1(acos(0.6)) + 27 * (9 - 1)
    shells = math.ceil(math.log(612.1186336702479) / math.log(1.2))
    assert b2 == 4 * shells * 3 + 27 * 8
    assert per_rank_bound(3, REFERENCE_PARAMS) > b2
    with pytest.raises(ValueError):
        per_rank_bound(2, OptimizerParams(c=0.998114, D=5.0, s=3))


def test_minimalist_aggregate_exact():
    report = aggregate_bound(RankModel.minimalist())
    assert report.aggregate == float(Fraction(8, 9))


def test_moments_aggregate_frozen():
    report = aggregate_bound(RankModel.moments())
    assert math.isfinite(report.aggregate)
    assert report.aggregate < 100
    assert report.aggregate == pytest.approx(95.91844324770639, rel=1e-6)
    assert report.tail_bound > 0


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_aggregate_checks_constraints_once(monkeypatch, cold_memos):
    calls = _counting(monkeypatch, optimizer, "check_constraints")
    report = aggregate_bound(RankModel.moments())
    assert len(calls) == 1
    assert report.aggregate == pytest.approx(95.91844324770639, rel=1e-6)
    # the verdict is memoized by (c, D, s)
    other_j = dataclasses.replace(REFERENCE_PARAMS, J_default=1.3)
    assert aggregate_bound(RankModel.moments(), other_j).constraints == report.constraints
    assert len(calls) == 1


def test_a_changed_report_leaves_the_memoized_verdict_as_it_was(cold_memos):
    report = aggregate_bound(RankModel.moments())
    report.constraints["roth_count"] = False
    report.constraints["kappa"] = 0.0
    again = aggregate_bound(RankModel.moments())
    assert again.constraints == check_constraints(REFERENCE_PARAMS)
    assert again.constraints["roth_count"] and again.constraints["kappa"] > 4


@pytest.mark.parametrize(
    "other",
    [RankModel(floors={**optimizer.DEFAULT_FLOORS, "rank1": 0.25}),
     RankModel(moment_caps=[(3, 4.0), (5, 7.0)])],
    ids=["floors", "moment_caps"],
)
def test_models_that_differ_in_one_lp_row_share_no_worst_case(other, cold_memos):
    cold = aggregate_bound(other)
    cold_memos()
    moments = aggregate_bound(RankModel.moments())
    assert aggregate_bound(other) == cold
    assert (cold.aggregate, cold.worst_case) != (moments.aggregate, moments.worst_case)
    # the two models start at one vector b, and each solved its own LP there
    start = next(iter(optimizer._WORST_CASES))[2]
    assert {key[:2] for key in optimizer._WORST_CASES if key[2] == start} == {
        (tuple(m.moment_caps), tuple(sorted(m.floors.items())))
        for m in (RankModel.moments(), other)
    }


def test_each_projective_cap_is_computed_once(monkeypatch, cold_memos):
    caps = _counting(monkeypatch, codes, "cap_bound")
    aggregate_bound(RankModel.moments())
    optimize(RankModel.moments(), _SEARCH_GRIDS[0], refine_iters=2)
    assert len(caps) == len(set(caps)) == len(codes._CAPS)


def test_aggregate_reuses_code_bounds_across_d(monkeypatch):
    model = RankModel.moments()
    first = aggregate_bound(model, OptimizerParams(c=0.998114, D=612.117, s=3, J_default=1.25))
    solves = _counting(monkeypatch, codes, "lp_bound")
    second = aggregate_bound(model, OptimizerParams(c=0.998114, D=1200.0, s=3, J_default=1.25))
    assert solves == []
    assert second.per_rank != first.per_rank


def test_aggregate_solves_the_support_then_the_report_ranks_on_the_calling_thread(
    monkeypatch, cold_memos
):
    solved = []
    solve = codes.lp_bound

    def recording(r, theta):
        solved.append((r, theta, threading.current_thread() is threading.main_thread()))
        return solve(r, theta)

    monkeypatch.setattr(codes, "lp_bound", recording)
    params = OptimizerParams(c=0.998114, D=612.117, s=3, J_by_rank={5: 1.3}, J_default=1.25)
    report = aggregate_bound(RankModel.moments(), params)
    theta = {r: math.acos((1.3 if r == 5 else 1.25) / 2) for r in range(3, 11)}
    support = [r for r, _ in report.worst_case if r >= 3]
    assert support == [3]
    # the support while the aggregate is computed, then the report's other ranks 3..10
    assert solved == [(r, theta[r], True) for r in support + [4, 5, 6, 7, 8, 9, 10]]


def _best_everywhere(model, params):
    """(aggregate, worst_case) with the best code bound of every rank 3..16."""
    dt = float(d_tilde(params.D))
    b = tuple(optimizer._rank_bound(r, params, dt) for r in range(optimizer._R_LP + 1))
    value, worst_case = optimizer._worst_case_lp(model, b)
    return float(model.density) * value + optimizer._tail_bound(params, dt, model), worst_case


_LAZY_PARAMS = [
    *(OptimizerParams(c=0.998114, D=612.117, s=3, J_default=j) for j in (1.15, 1.2, 1.3, 1.428316)),
    OptimizerParams(c=0.998114, D=612.117, s=3, J_by_rank={2: 1.25, 3: 1.428316, 4: 1.3}),
]


@pytest.mark.parametrize("params", _LAZY_PARAMS)
def test_lazy_code_bounds_give_the_aggregate_of_every_best_bound(params):
    model = RankModel.moments()
    report = aggregate_bound(model, params)
    assert (report.aggregate, report.worst_case) == _best_everywhere(model, params)
    # the ranks past the report's hold what the aggregate used: cap off the support
    dt = float(d_tilde(params.D))
    support = {r for r, _ in report.worst_case}
    for r in range(11, codes._LP_R_MAX + 1):
        code = codes.best_code_bound if r in support else optimizer._start_code
        assert report.per_rank[r] == optimizer._rank_bound(r, params, dt, code)


def test_the_cap_start_alone_is_not_the_aggregate():
    # stopping after the first worst-case LP would report the cap-start value
    model, params = RankModel.moments(), REFERENCE_PARAMS
    dt = float(d_tilde(params.D))
    start = tuple(optimizer._rank_bound(r, params, dt, optimizer._start_code)
                  for r in range(optimizer._R_LP + 1))
    report = aggregate_bound(model, params)
    value = (report.aggregate - report.tail_bound) / float(model.density)
    assert optimizer._worst_case_lp(model, start)[0] == pytest.approx(142.9938, abs=1e-4)
    assert value == pytest.approx(107.8947, abs=1e-4)


@pytest.mark.parametrize("search", [False, True])
def test_a_cold_and_a_warm_memo_give_one_report(search, monkeypatch, cold_memos):
    model = RankModel.moments()
    grid = {"J": [1.2, 1.3]}

    def run():
        return optimize(model, grid, refine_iters=1) if search else aggregate_bound(model)

    cold = run()
    for j in (1.2, 1.3, 1.3 - 0.02, 1.3 + 0.02, 1.2 - 0.02, 1.2 + 0.02):
        for r in range(2, codes._LP_R_MAX + 1):
            codes.best_code_bound(r, math.acos(j / 2))
    optimize(model, grid, refine_iters=3)  # more verdicts and worst cases
    solves = _counting(monkeypatch, optimizer, "linprog")
    warm = run()
    assert warm == cold
    assert solves == []  # every worst case came from the memo
    # a start read from the memo would give rank 16 its LP bound
    lp16 = codes.best_code_bound(16, math.acos(cold.params.J(16) / 2))
    assert lp16.method == "lp" and cold.per_rank[16] > optimizer._rank_bound(
        16, cold.params, float(d_tilde(cold.params.D)))


def test_a_minimalist_search_solves_only_the_report_ranks(monkeypatch, cold_memos):
    lps = _counting(monkeypatch, codes, "lp_bound")
    grid = {"c": [0.998114], "D": [612.117], "s": [3], "J": [1.2]}
    best = optimize(RankModel.minimalist(), grid)
    assert best.aggregate == float(Fraction(8, 9))
    theta = math.acos(best.params.J_default / 2)
    assert sorted(lps) == [(r, theta) for r in range(3, 11)]
    for r in range(3, 11):
        assert best.per_rank[r] == per_rank_bound(r, best.params)


def test_optimize_starts_no_thread(monkeypatch, cold_memos):
    started = _counting(monkeypatch, threading.Thread, "start")
    optimize(RankModel.moments(), _SEARCH_GRIDS[0], refine_iters=2)
    assert started == []


def test_aggregate_rejects_infeasible_parameters():
    with pytest.raises(ValueError, match="feasibility constraints"):
        aggregate_bound(RankModel.moments(), OptimizerParams(c=0.998114, D=5.0, s=3))


def test_moments_infeasible_floors_raise():
    model = RankModel(floors={"rank0": 0.9, "rank1": 0.9})
    with pytest.raises(ValueError):
        aggregate_bound(model)


@pytest.mark.parametrize("kind", ["minimalist", "moments"])
def test_unknown_floor_raises(kind):
    model = getattr(RankModel, kind)()
    with pytest.raises(ValueError, match="unknown floors"):
        dataclasses.replace(model, floors={**model.floors, "rank2": 0.1})


@pytest.mark.parametrize(
    "given, named",
    [
        ({"moment_caps": [[0, 4.0]]}, "moment_caps"),
        ({"moment_caps": [[-3, 4.0]]}, "moment_caps"),
        ({"moment_caps": [[1, 4.0]]}, "moment_caps"),
        # 1e300 ** 21 raises OverflowError; it does not return inf
        ({"moment_caps": [[1e300, 4.0]]}, "moment_caps"),
        ({"moment_caps": [[10**400, 4.0]]}, "moment_caps"),
        ({"moment_caps": [[math.inf, 4.0]]}, "moment_caps"),
        ({"moment_caps": [[math.nan, 4.0]]}, "moment_caps"),
        ({"moment_caps": [[5, 0.0]]}, "moment_caps"),
        ({"moment_caps": [[5, math.inf]]}, "moment_caps"),
        ({"moment_caps": [[5, True]]}, "moment_caps"),
        ({"moment_caps": [[5]]}, "moment_caps"),
        ({"moment_caps": []}, "moment_caps"),
        ({"moment_caps": 5}, "moment_caps"),
        ({"floors": {"rank0": -5}}, "floors"),
        ({"floors": {"rank0": 1.5}}, "floors"),
        ({"floors": {"rank0": "high"}}, "floors"),
        ({"floors": [0.2]}, "floors"),
        ({"density": Fraction(0)}, "density"),
        ({"density": Fraction(-1, 2)}, "density"),
        ({"density": Fraction(3, 2)}, "density"),
        ({"probabilities": {0: -0.5, 1: 1.5}}, "explicit probabilities"),
        ({"probabilities": {0: 0.5, 1: 0.4}}, "explicit probabilities"),
        ({"probabilities": {0: 0.5, 1: 0.6}}, "explicit probabilities"),
    ],
)
def test_rank_model_outside_its_domain_raises_when_built(given, named):
    with pytest.raises(ValueError, match=f"^{named} must"):
        RankModel(**given)


def test_rank_model_is_frozen_and_explicit_by_its_probabilities():
    model = RankModel.minimalist()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.density = Fraction(1)
    assert model.probabilities is not None and RankModel.moments().probabilities is None
    # the edges of the domain are in it
    RankModel(moment_caps=[(1.0001, 1e-9)], floors={"rank0": 0, "rank1": 1}, density=Fraction(1))


def test_rank_model_holds_integer_bases_as_ints_and_caps_and_floors_as_floats():
    model = RankModel(moment_caps=[[5.0, 6], (3, 4.0), [2.5, 1]], floors={"rank0": 1})
    assert model.moment_caps == [(5, 6.0), (3, 4.0), (2.5, 1.0)]
    assert [[type(v) for v in pair] for pair in model.moment_caps] == [
        [int, float], [int, float], [float, float]
    ]
    assert model.floors == {"rank0": 1.0} and type(model.floors["rank0"]) is float
    assert RankModel.moments().moment_caps == list(optimizer.DEFAULT_MOMENT_CAPS)


def test_params_store_c_d_and_j_as_floats():
    params = OptimizerParams(c=0.5, D=700, s=3, J_by_rank={4: 1.25}, J_default=1.5)
    assert [type(v) for v in (params.c, params.D, params.J_default, params.J(4))] == [float] * 4
    assert type(params.s) is int
    assert type(dataclasses.replace(params, D=800).D) is float


# J = 1.8: the term at r = 219 is still 4.2e-6; J = 1.9: the series diverges;
# caps [[3, 4.0]]: cap * b_r / 3^r tends to a constant, since b_r grows like 3^r
@pytest.mark.parametrize(
    "model, J",
    [
        (RankModel.moments(), 1.8),
        (RankModel.moments(), 1.9),
        (RankModel(moment_caps=[[3, 4.0]]), 1.2),
    ],
)
def test_aggregate_refuses_an_open_tail(model, J, monkeypatch):
    lps = _counting(monkeypatch, codes, "lp_bound")
    params = OptimizerParams(c=0.998114, D=612.117, s=3, J_default=J)
    with pytest.raises(ValueError, match="^tail_bound: .* not below 1e-16"):
        aggregate_bound(model, params)
    assert lps == []  # refused before the code-bound LPs


def test_search_skips_a_trial_with_an_open_tail():
    model = RankModel.moments()
    best = optimize(model, {"J": [1.8, 1.2]}, refine_iters=0)
    assert best.params.J_default == 1.2
    assert best.aggregate == pytest.approx(95.91844324770639, rel=1e-6)
    with pytest.raises(ValueError, match="no feasible point in grid"):
        optimize(model, {"J": [1.8, 1.9]}, refine_iters=0)


def test_c_decides_feasibility_only():
    # c enters no per-rank bound and no tail term: feasible c give one aggregate
    model = RankModel.moments()
    for c in (0.995, 0.998114, 0.9995):
        report = aggregate_bound(model, OptimizerParams(c=c, D=1200, s=3, J_default=1.2))
        assert report.aggregate.hex() == "0x1.94fa2cec28767p+6", c


@pytest.mark.parametrize("D", [300, 612.117, 700, 1200, 1e4])
def test_s_2_fails_the_roth_count(D):
    for c in (0.5, 0.998114, 0.9999):
        assert not check_constraints(OptimizerParams(c=c, D=D, s=2))["roth_count"], c


def test_aggregate_does_not_decrease_along_d():
    # at s = 3 and a fixed J, the smallest feasible D gives the best vector
    model = RankModel.moments()
    ds = [612.117, 650, 700, 800, 1200, 5000]
    got = [aggregate_bound(model, OptimizerParams(c=0.998114, D=D, s=3)).aggregate for D in ds]
    assert got == sorted(got)
    assert got[0] == 95.91844324770639
    assert got == pytest.approx([95.9184, 95.9184, 95.9184, 97.6937, 101.2443, 115.4466], abs=1e-4)


def test_optimize_dominates_reference():
    model = RankModel.moments()
    reference = aggregate_bound(model, REFERENCE_PARAMS)
    best = optimize(model)
    assert best.aggregate <= reference.aggregate + 1e-9
    assert math.isfinite(best.aggregate)
    verdict = check_constraints(best.params)
    assert verdict["iv_empty"] and verdict["roth_count"]


def test_optimize_checks_each_vector_once(monkeypatch, cold_memos):
    checked = _counting(monkeypatch, optimizer, "check_constraints")
    best = optimize(RankModel.moments())
    assert best.aggregate == 68.51622423555939
    assert len(checked) > 18  # the 18 (c, D, s) of the default grid, then refinement
    assert len({(p.c, p.D, p.s) for p, in checked}) == len(checked)


# the bound workload's seed-0 grid, and two copies with the non-reference
# values moved by hand
_SEARCH_GRIDS = [
    {"c": [0.998114, 0.9995], "D": [612.117, 1200.0], "s": [3], "J": [1.2, 1.3]},
    {"c": [0.998114, 0.99932], "D": [612.117, 1164.3], "s": [3], "J": [1.2, 1.2871]},
    {"c": [0.998114, 0.99918], "D": [612.117, 1241.8], "s": [3], "J": [1.2, 1.3143]},
]


def _no_pruning(monkeypatch):
    monkeypatch.setattr(optimizer, "_lower_bound", lambda *args: -math.inf)


@pytest.mark.parametrize("grid", _SEARCH_GRIDS)
def test_pruning_keeps_the_search_result(grid, monkeypatch, cold_memos):
    model = RankModel.moments()
    solves = _counting(monkeypatch, optimizer, "linprog")
    pruned = optimize(model, grid, refine_iters=2)
    pruned_solves = len(solves)
    _no_pruning(monkeypatch)
    cold_memos()
    assert pruned == optimize(model, grid, refine_iters=2)
    assert 0 < pruned_solves < len(solves) - pruned_solves


def test_pruning_counts_on_the_bound_grid(monkeypatch, cold_memos):
    # the bound workload: the reference point, then the search, on cold memos
    def solves():
        cold_memos()
        lps = _counting(monkeypatch, codes, "lp_bound")
        aggregate_lps = _counting(monkeypatch, optimizer, "linprog")
        aggregate_bound(RankModel.moments())
        optimize(RankModel.moments(), _SEARCH_GRIDS[0], refine_iters=2)
        monkeypatch.undo()
        return len(lps), len(aggregate_lps)

    assert solves() == (21, 9)
    _no_pruning(monkeypatch)
    assert solves() == (22, 15)


def test_pruning_on_the_default_grid_is_sound(monkeypatch, cold_memos):
    model = RankModel.moments()
    solves = _counting(monkeypatch, optimizer, "linprog")
    pruned = optimize(model)
    pruned_solves = len(solves)
    assert pruned.aggregate == 68.51622423555939
    # every trial evaluated in full, with its bound against the incumbent
    lower_bound, feasible_aggregate = optimizer._lower_bound, optimizer._feasible_aggregate
    trials = []

    def recorded(model, params, incumbent=None):
        report = feasible_aggregate(model, params, incumbent)
        if incumbent is not None and report is not None:
            dt = float(d_tilde(params.D))
            best = {r: optimizer._rank_bound(r, params, dt) for r, _ in incumbent.worst_case}
            lb = lower_bound(model, best, incumbent.worst_case)
            trials.append((lb, report.aggregate, incumbent.aggregate))
        return report

    monkeypatch.setattr(optimizer, "_feasible_aggregate", recorded)
    _no_pruning(monkeypatch)
    cold_memos()
    assert pruned == optimize(model)
    assert 0 < pruned_solves < len(solves) - pruned_solves
    assert all(lb <= aggregate for lb, aggregate, _ in trials)
    slack = optimizer._PRUNE_SLACK
    pruned_trials = [lb > best + slack * (1 + abs(best)) for lb, _, best in trials]
    assert (sum(pruned_trials), len(trials)) == (69, 221)


def test_optimize_rejects_empty_grid():
    with pytest.raises(ValueError):
        optimize(RankModel.moments(), {"c": [0.5], "D": [2.0], "s": [3], "J": [1.2]})


@pytest.mark.parametrize(
    "grid, named",
    [
        ({"X": [1.0], "J": [1.25]}, "unknown grid keys ['X']"),
        ({"c": 0.99}, "grid must"),
        ([0.99], "grid must"),
    ],
)
def test_optimize_checks_its_grid(grid, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        optimize(RankModel.moments(), grid)


def _admissible_gram(rng, k):
    # random Gram matrix massaged into the admissible class: sort the
    # diagonal, then shrink off-diagonals toward a diagonal matrix (a
    # convex combination of PSD matrices stays PSD, diagonal unchanged)
    m = rng.normal(size=(k, 10))
    g = m @ m.T
    order = np.argsort(np.diag(g))
    g = g[np.ix_(order, order)]
    diag = np.diag(g).copy()
    t = 1.0
    for i in range(k):
        for j in range(i + 1, k):
            if g[i, j] != 0:
                t = min(t, 0.45 * diag[i] / abs(g[i, j]))
    return (1 - t) * np.diag(diag) + t * g


def verify_basis_inequality(gram: np.ndarray, signs) -> bool:
    """Check e^T G e <= sum_i (k - i + 1) G_ii for admissible Gram matrices,
    the paper's Gram lemma behind the per-rank bound.

    Preconditions: nondecreasing diagonal, |G_ij| <= G_min(i,j),min(i,j) / 2,
    positive semidefinite.
    """
    g = np.asarray(gram, dtype=float)
    k = g.shape[0]
    if g.shape != (k, k) or not np.allclose(g, g.T):
        raise ValueError("gram must be square symmetric")
    diag = np.diag(g)
    if np.any(np.diff(diag) < -1e-12):
        raise ValueError("diagonal must be nondecreasing")
    for i in range(k):
        for j in range(i + 1, k):
            if abs(g[i, j]) > diag[i] / 2 + 1e-12:
                raise ValueError("off-diagonal precondition violated")
    if np.linalg.eigvalsh(g).min() < -1e-9:
        raise ValueError("gram must be positive semidefinite")
    e = np.asarray(signs, dtype=float)
    if e.shape != (k,) or not np.all(np.abs(e) == 1):
        raise ValueError("signs must be a vector of +-1")
    lhs = float(e @ g @ e)
    rhs = float(sum((k - i) * diag[i] for i in range(k)))  # i 0-based: k-i = k-(i+1)+1
    return lhs <= rhs + 1e-9


def test_verify_basis_inequality_random_gram():
    rng = np.random.default_rng(5)
    for _ in range(25):
        k = int(rng.integers(2, 7))
        gram = _admissible_gram(rng, k)
        signs = rng.choice([-1.0, 1.0], size=k)
        assert verify_basis_inequality(gram, signs)


def test_verify_basis_inequality_preconditions():
    with pytest.raises(ValueError):
        verify_basis_inequality(np.array([[2.0, 0.0], [0.0, 1.0]]), [1, 1])
    with pytest.raises(ValueError):
        verify_basis_inequality(np.array([[1.0, 0.9], [0.9, 1.0]]), [1, 1])
    with pytest.raises(ValueError):
        verify_basis_inequality(np.eye(2), [1, 2])
