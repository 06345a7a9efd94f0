import dataclasses
import math

import mpmath as mp
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


def test_projective_cap_variant():
    # at the same angle the projective (antipodal-identified) bound is smaller
    for r in (3, 5, 9):
        assert cap_bound(r, 1.0, projective=True) < cap_bound(r, 1.0)


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
    assert lp.bound < cap_bound(r, PI3, projective=True)
    assert lp.bound >= 1.0


def test_lp_input_validation():
    with pytest.raises(ValueError):
        lp_bound(17, 1.0)
    with pytest.raises(ValueError):
        lp_bound(4, 1.0, degree=50)
    with pytest.raises(ValueError):
        lp_bound(4, 1.0, grid_size=10)


def test_best_code_bound_picks_min():
    b2 = best_code_bound(2, PI3)
    assert b2.method == "rp1" and b2.bound == 3
    b4 = best_code_bound(4, PI3)
    assert b4.bound <= cap_bound(4, PI3, projective=True)
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
