import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from integral_census import codes
from integral_census.codes import (
    best_code_bound,
    cap_bound,
    cap_gamma_ratio_gap,
    kl_base,
    kl_exponent,
    kl_invert,
    lp_bound,
    rp1_bound,
)

PI3 = math.pi / 3


def test_rp1_values():
    assert rp1_bound(PI3) == 3
    assert rp1_bound(math.pi / 2) == 2
    assert rp1_bound(math.pi / 5 + 1e-12) == 4
    with pytest.raises(ValueError):
        rp1_bound(0.0)
    with pytest.raises(ValueError):
        rp1_bound(2.0)


def test_cap_bound_monotone_in_theta_and_r():
    thetas = [0.4, 0.7, 1.0, 1.3]
    vals = [cap_bound(5, t) for t in thetas]
    assert vals == sorted(vals, reverse=True)
    # larger separation angle allows fewer points
    for r in (3, 4, 8, 16):
        assert cap_bound(r, 0.5) > cap_bound(r, 1.0)
    with pytest.raises(ValueError):
        cap_bound(2, 1.0)


def test_cap_gamma_ratio_vanishes_at_r3():
    # the constant sqrt(3 r) in the cap bound comes from a Gamma-ratio
    # inequality that is tight exactly in three dimensions
    assert abs(cap_gamma_ratio_gap(3)) < 1e-20
    assert cap_gamma_ratio_gap(4) != pytest.approx(0.0, abs=1e-6)


def test_kl_base_at_pi3():
    # frozen 50-digit evaluation of the rate formula at theta = pi/3
    assert kl_base(PI3) == pytest.approx(1.3208013922350280, abs=1e-8)
    assert kl_base(PI3) <= 1.33


def test_kl_exponent_decreasing():
    vals = [float(kl_exponent(t)) for t in (0.3, 0.6, 0.9, 1.2, 1.5)]
    assert vals == sorted(vals, reverse=True)


def test_kl_invert_roundtrip():
    res = kl_invert(3)
    assert 0.897 <= res["cos_theta"] <= 0.900
    assert kl_base(res["theta"]) == pytest.approx(3.0, abs=1e-9)
    assert res["cos_theta"] == pytest.approx(0.8990201230857, abs=1e-9)
    with pytest.raises(ValueError):
        kl_invert(0.5)


def test_lp_bound_r2_pi3():
    res = lp_bound(2, PI3)
    assert res.certified
    assert math.floor(res.bound) == 3  # matches the exact circle bound


@pytest.mark.parametrize("r", [3, 4, 6, 10])
def test_lp_certified_and_below_cap(r):
    lp = lp_bound(r, PI3)
    assert lp.certified
    assert lp.bound < cap_bound(r, PI3)
    assert lp.bound >= 1.0


def test_lp_input_validation():
    with pytest.raises(ValueError):
        lp_bound(17, 1.0)
    with pytest.raises(ValueError):
        lp_bound(4, 1.0, degree=50)
    with pytest.raises(ValueError):
        lp_bound(4, 1.0, degree=1)
    with pytest.raises(ValueError):
        lp_bound(4, 1.0, grid_size=10)
    with pytest.raises(ValueError, match="grid_size"):
        lp_bound(4, 1.0, grid_size=100_001)
    with pytest.raises(ValueError, match="even degree"):
        lp_bound(4, 1.0, degree=3)


def test_best_code_bound_picks_min():
    b2 = best_code_bound(2, PI3)
    assert b2.method == "rp1" and b2.bound == 3
    b4 = best_code_bound(4, PI3)
    assert b4.bound <= cap_bound(4, PI3)
    b20 = best_code_bound(20, PI3)
    assert b20.method == "cap"
    with pytest.raises(ValueError):
        best_code_bound(1, PI3)


@pytest.mark.parametrize("theta", [PI3, math.acos(0.6)])
def test_memoized_best_code_bound_matches_fresh_solve(theta):
    for r in (2, 3, 9, 16, 20):
        memo = best_code_bound(r, theta)
        assert best_code_bound(r, theta) is memo
        assert memo == codes._best_code_bound(r, theta)


def test_code_bound_result_is_frozen():
    res = best_code_bound(4, PI3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.bound = 0.0
    assert best_code_bound(4, PI3).bound == res.bound > 0


def test_memoized_code_bound_detail_is_read_only():
    res = best_code_bound(4, PI3)
    assert res.method == "lp" and res.detail["degree"] == 20
    with pytest.raises(TypeError):
        res.detail["degree"] = 0
    assert best_code_bound(4, PI3).detail["degree"] == 20


@pytest.mark.parametrize("r", range(2, 17))
def test_gegenbauer_series_matches_scipy_basis(r):
    rng = np.random.default_rng(r)
    degrees = list(range(2, 41, 2))
    for ct in (0.0, 0.3, 0.5, 0.65, math.cos(PI3 / 2)):
        t = np.concatenate(([0.0, ct], np.sort(rng.uniform(0.0, ct, 200))))
        for n in (1, 5, len(degrees)):
            coeffs = rng.exponential(10.0 ** rng.uniform(-2, 3), size=n)
            want = 1.0 + coeffs @ codes._basis_eval(r, degrees[:n], t)
            got = codes._gegenbauer_series(r, coeffs, t)
            assert np.max(np.abs(got - want)) <= 1e-12 * (1 + coeffs.sum())


# r = 15 at J = 2 cos(theta) = 1.3, a bound-workload case: the LP optimum is
# negative on its 400 nodes but not between them, so the fine grid rejects it
R15_THETA = math.acos(0.65)


def test_lp_certificate_fails_at_r15_j13():
    lp = lp_bound(15, R15_THETA)
    assert lp.bound == pytest.approx(32115.77, abs=0.01)
    assert not lp.certified
    assert lp.detail["fine_grid_max"] == pytest.approx(1.40e-5, rel=0.01)
    best = codes._best_code_bound(15, R15_THETA)
    assert best.method == "cap" and best.bound == cap_bound(15, R15_THETA)
    assert best.bound == pytest.approx(1.4693e6, rel=1e-4)


def _lp_coefficients(monkeypatch, r, theta):
    """The coefficient vector of lp_bound's LP optimum."""
    solved = []
    solve = codes.linprog

    def recording_linprog(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(codes, "linprog", recording_linprog)
    lp_bound(r, theta)
    (res,) = solved
    return res.x


def test_fine_grid_rejects_coefficients_positive_between_lp_nodes(monkeypatch):
    coeffs = _lp_coefficients(monkeypatch, 15, R15_THETA)
    assert np.all(coeffs >= 0)
    nodes = np.linspace(0.0, 0.65, 400)
    assert np.max(1.0 + coeffs @ codes._basis_eval(15, list(range(2, 21, 2)), nodes)) < 0
    margin, certified = codes._fine_grid_check(15, coeffs, 0.65, 4000)
    assert margin > 1e-6 and not certified


def test_fine_grid_check_passes_a_certified_optimum_only_with_nonnegative_coefficients(
    monkeypatch,
):
    coeffs = _lp_coefficients(monkeypatch, 4, PI3)
    margin, certified = codes._fine_grid_check(4, coeffs, 0.5, 4000)
    assert margin < 0 and certified
    coeffs[np.argmin(coeffs)] = -1e-9
    assert not codes._fine_grid_check(4, coeffs, 0.5, 4000)[1]


# J = 2 cos(theta) past the thetas below: the rest of the bound workload's
# grid (R15_THETA is J = 1.3), 1.428316, and a spread over (0, 2)
_CAP_JS = (
    0.1, 0.5, 1.1, 1.2, 1.25, 1.28, 1.32, 1.34, 1.36, 1.4,
    1.428316, 1.45, 1.5, 1.6, 1.7, 1.8, 1.99,
)


@pytest.mark.parametrize(
    "theta", [0.2, PI3, R15_THETA, math.acos(0.95), 1.5] + [math.acos(j / 2) for j in _CAP_JS]
)
def test_projective_cap_bound_matches_closed_form_bitwise(theta):
    # cap_bound takes a square root to the power r - 1; the closed form
    # takes 1/2 - J/4 to the power (1 - r)/2 through exp and log
    with mp.workdps(50):
        j = 2 * mp.cos(mp.mpf(theta))
        base, tail = mp.mpf(1) / 2 - j / 4, (mp.mpf(1) / 2 + j / 4) ** (mp.mpf(-1) / 2)
    for r in range(3, 221):
        with mp.workdps(50):
            want = float(mp.sqrt(3 * r) * base ** ((1 - r) / mp.mpf(2)) * tail)
        assert cap_bound(r, theta) == want


# J = 2 cos(theta) on the bound workload's grid, and the (r, J) whose LP
# fails its certificate there and falls back to cap
_BOUND_JS = (1.2, 1.3, 1.32, 1.34)
_CAP_FALLBACKS = {(15, 1.3), (16, 1.3), (15, 1.32), (14, 1.34), (16, 1.34)}


def test_code_bounds_fall_back_to_cap_where_the_lp_fails_its_certificate(monkeypatch):
    monkeypatch.setattr(codes, "_BEST", {})
    ranks = range(3, 17)
    fallbacks = set()
    for j in _BOUND_JS:
        theta = math.acos(j / 2)
        for r in ranks:
            result = best_code_bound(r, theta)
            assert result.bound <= cap_bound(r, theta)
            if result.method == "cap":
                fallbacks.add((r, j))
    assert len(codes._BEST) == len(_BOUND_JS) * len(ranks)
    assert fallbacks == _CAP_FALLBACKS


def _presolved_lp_bound(monkeypatch, r, theta, degree, grid_size):
    """lp_bound with HiGHS presolve on, the oracle for the solve without it."""
    solve = codes.linprog

    def presolving_linprog(*args, options, **kwargs):
        assert options == {"presolve": False}
        return solve(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(codes, "linprog", presolving_linprog)
        return lp_bound(r, theta, degree, grid_size)


# the bound workload's LP code bounds at seed 0, its cap fallbacks, and LPs
# that HiGHS finds infeasible
_BOUND_LPS = {
    (3, 1.2), (3, 1.28), (3, 1.3), (3, 1.32), (3, 1.34),
    (4, 1.2), (4, 1.3), (4, 1.32), (4, 1.34),
    *((r, j) for r in range(5, 11) for j in (1.2, 1.34)),
}
_INFEASIBLE_LPS = {(16, 1.9), (16, 1.95), (16, 1.99)}


@pytest.mark.parametrize(
    "r, j, degree, grid_size",
    [(r, j, 20, 400) for r, j in sorted(_BOUND_LPS | _CAP_FALLBACKS | _INFEASIBLE_LPS)]
    # degree 2 is feasible at (3, 1.0) and infeasible at (5, 1.3)
    + [(r, j, d, g) for r, j in ((3, 1.0), (5, 1.3)) for d in (2, 40) for g in (200, 4000)],
)
def test_lp_bound_without_presolve_gives_the_presolved_bits(monkeypatch, r, j, degree, grid_size):
    theta = math.acos(j / 2)
    got = lp_bound(r, theta, degree, grid_size)
    want = _presolved_lp_bound(monkeypatch, r, theta, degree, grid_size)
    assert got.bound == want.bound and got.certified == want.certified
    if math.isfinite(want.bound):
        assert got.detail["fine_grid_max"] == want.detail["fine_grid_max"]
    else:
        # presolve ends with primal_status None; without it HiGHS names the status
        assert "primal_status is Infeasible" in got.detail["status"]
        assert "model_status is Infeasible" in want.detail["status"]
    infeasible = (r, j) in _INFEASIBLE_LPS or (r, j, degree) == (5, 1.3, 2)
    assert math.isinf(got.bound) == infeasible
    assert got.certified == ((r, j) not in _CAP_FALLBACKS and not infeasible)
