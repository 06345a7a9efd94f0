import pytest

from integral_census.families import CurveModel, Family
from integral_census.repulsion import gap_excess, repulsion_survey


def test_gap_excess_rejects_degenerate_pairs():
    curve = CurveModel(0, -2)
    with pytest.raises(ValueError):
        gap_excess(curve, (3, 5), (3, 5))
    with pytest.raises(ValueError):
        gap_excess(curve, (3, 5), (3, -5))


def test_gap_excess_known_pair():
    # y^2 = x^3 - 2x + 5 carries (1, 2) and (2, 3)
    curve = CurveModel(-2, 5)
    stat = gap_excess(curve, (1, 2), (2, 3))
    assert stat.hhat_sum > 0
    # P + R is computed through the true group law; redo by hand
    from integral_census.heights import canonical_height
    from integral_census.points import CurvePoint, add

    s = add(curve, CurvePoint.affine(1, 2), CurvePoint.affine(2, 3))
    hs = canonical_height(curve, s, 1e-10).canonical
    assert stat.hhat_sum == hs
    assert stat.excess == pytest.approx(
        hs - 2 * max(stat.h_p, stat.h_r) - min(stat.h_p, stat.h_r), abs=1e-9
    )


def _count_canonical_heights(monkeypatch) -> list:
    import sys

    from integral_census import heights

    calls = []
    original = heights.canonical_height

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    # every module that imported it by name holds its own binding
    for name, mod in list(sys.modules.items()):
        if name.startswith("integral_census") and vars(mod).get("canonical_height") is original:
            monkeypatch.setattr(mod, "canonical_height", counting)
    return calls


def test_gap_excess_computes_three_canonical_heights(monkeypatch):
    # h_hat(P), h_hat(R) and h_hat(P+R), each once
    calls = _count_canonical_heights(monkeypatch)
    stat = gap_excess(CurveModel(-2, 5), (1, 2), (2, 3))
    assert stat.cos_angle is not None  # a non-torsion pair
    assert len(calls) == 3 and len(set(calls)) == 3


def test_survey_structure_and_consistency():
    res = repulsion_survey(Family.MORDELL, 4, 500)
    assert res["pair_count"] >= 1
    from integral_census.families import enumerate_family

    assert res["curve_count"] == len(list(enumerate_family(Family.MORDELL, 4)))
    assert len(res["worst_pairs"]) <= 100
    assert res["worst_pairs"] == sorted(
        res["worst_pairs"], key=lambda d: -d["excess"]
    )
    assert res["max_excess"] == pytest.approx(res["worst_pairs"][0]["excess"])
    hist = res["cos_histogram"]
    assert hist["total"] == sum(hist["counts"])
    assert hist["total"] + res["undefined_angle_pairs"] == res["pair_count"]


def test_survey_min_height_filters_pairs():
    base = repulsion_survey(Family.MORDELL, 4, 500)
    high = repulsion_survey(Family.MORDELL, 4, 500, min_height=3.0)
    assert high["pair_count"] <= base["pair_count"]


@pytest.mark.parametrize("restrict_filtered", [False, True], ids=["all", "restricted"])
def test_survey_on_an_empty_family_raises(restrict_filtered):
    # no universal curve has height <= 1
    with pytest.raises(ValueError, match="empty family slice"):
        repulsion_survey(Family.UNIVERSAL, 1, 10, restrict_filtered=restrict_filtered)


def test_survey_restricted_empty_is_well_formed():
    res = repulsion_survey(
        Family.MORDELL, 4, 500, min_height=50.0, restrict_filtered=True
    )
    assert res["pair_count"] == 0
    assert res["max_excess"] is None
    assert res["worst_pairs"] == []


_UNIVERSAL_SURVEY = dict(family=Family.UNIVERSAL, T=2.5, x_bound=1000, min_height=0.5)


def test_survey_computes_each_canonical_height_once(monkeypatch):
    # 32 pairs need 96 heights, of only 25 distinct (curve, x, |y|)
    calls = _count_canonical_heights(monkeypatch)
    res = repulsion_survey(**_UNIVERSAL_SURVEY)
    assert res["pair_count"] == 32
    assert len(calls) == 25


def test_memo_does_not_skip_the_curve_check():
    # (3, 5) is on y^2 = x^3 - 2; (3, 6) shares its x but not its |y|
    from fractions import Fraction

    from integral_census.heights import height_pairing
    from integral_census.points import CurvePoint

    curve = CurveModel(0, -2)
    memo: dict = {}
    height_pairing(curve, CurvePoint.affine(3, 5), CurvePoint.affine(3, -5), memo=memo)
    assert (Fraction(3), Fraction(5)) in memo
    with pytest.raises(ValueError):
        height_pairing(curve, CurvePoint.affine(3, 6), CurvePoint.affine(3, 5), memo=memo)


@pytest.mark.parametrize(
    "survey",
    [dict(family=Family.MORDELL, T=4, x_bound=500), _UNIVERSAL_SURVEY],
    ids=["mordell", "universal"],
)
def test_memo_does_not_change_pair_stats(survey, monkeypatch):
    from integral_census import repulsion

    seen = []
    original = repulsion.gap_excess

    def recording(*args, **kwargs):
        assert kwargs["memo"] is not None
        seen.append((args, original(*args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(repulsion, "gap_excess", recording)
    res = repulsion_survey(**survey)
    assert len(seen) == res["pair_count"] > 0
    for args, stat in seen:
        assert stat == original(*args)  # every field, exactly


def test_restricted_survey_equals_a_per_curve_filter_walk(monkeypatch):
    from integral_census import repulsion
    from integral_census.families import _cutoffs, enumerate_family, filter_diagnostics
    from integral_census.points import integral_points

    # rows with 9 <= |a| <= 40 survive the prune, and x_bound is above the
    # filter window |x| <= T^(5 - delta) = 4182, so a passing curve may have pairs
    T, delta, x_bound = 8, 0.99, 10_000
    assert _cutoffs(T, delta)[0] == 9 and _cutoffs(T, delta)[5] < x_bound
    curves = list(enumerate_family(Family.UNIVERSAL, T))
    passing = [
        c
        for c in curves
        if filter_diagnostics(c, T, delta, x_bound_cap=x_bound).passes_all
    ]
    found = {c: integral_points(c, x_bound) for c in passing}
    pairs = [
        (c, p, r)
        for c, pts in found.items()
        for i, p in enumerate(pts)
        for r in pts[i + 1 :]
        if p[0] != r[0]
    ]
    # (19, -97) passes and carries (9062, +-y), one x: no pair in this slice
    assert len(passing) > 1000 and found[CurveModel(19, -97)] and pairs == []
    scanned = []
    monkeypatch.setattr(
        repulsion, "integral_points", lambda c, xb: scanned.append(c) or integral_points(c, xb)
    )
    res = repulsion_survey(Family.UNIVERSAL, T, x_bound, delta=delta, restrict_filtered=True)
    assert scanned == passing
    assert res == {
        "family": "universal",
        "T": T,
        "x_bound": x_bound,
        "min_height": 0.0,
        "restricted": True,
        "curve_count": len(curves),
        "pair_count": 0,
        "max_excess": None,
        "undefined_angle_pairs": 0,
        "cos_histogram": {"bins": [], "counts": [], "total": 0},
        "worst_pairs": [],
    }


def test_restricted_survey_checks_delta_with_every_row_pruned():
    # the prune runs before any filter_diagnostics call, which used to reject delta
    with pytest.raises(ValueError, match="delta"):
        repulsion_survey(Family.UNIVERSAL, 8, 100, delta=1.5, restrict_filtered=True)
