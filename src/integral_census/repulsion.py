"""Gap-principle and angle-bound surveys over censused integral points.

For integral points P, R on a curve the survey records the excess
h_hat(P+R) - 2 max(h) - min(h) (the gap principle predicts it is O(1))
and, where both canonical heights clear the division-hazard floor, the
cosine of the lattice angle minus its predicted main term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .families import (
    CurveModel,
    Family,
    _cutoffs,
    _member_rows,
    enumerate_family,
    filter_diagnostics,
)
from .heights import height_pairing, weil_height
from .points import CurvePoint, integral_points

__all__ = ["PairStat", "gap_excess", "repulsion_survey"]

_HIST_BINS = 20


@dataclass
class PairStat:
    curve: CurveModel
    p: tuple[int, int]
    r: tuple[int, int]
    h_p: float
    h_r: float
    hhat_sum: float
    excess: float
    cos_angle: float | None


def gap_excess(
    curve: CurveModel,
    p: tuple[int, int],
    r: tuple[int, int],
    precision_goal: float = 1e-8,
    *,
    memo: dict | None = None,
) -> PairStat:
    """PairStat for one unordered pair of integral points.

    ``memo`` is passed to ``height_pairing``: one per curve and precision."""
    if p == r or (p[0] == r[0] and p[1] == -r[1]):
        raise ValueError("pair must satisfy P != +-R")
    P = CurvePoint.affine(*p)
    R = CurvePoint.affine(*r)
    h_p, h_r = weil_height(P), weil_height(R)
    pairing = height_pairing(curve, P, R, precision_goal, memo=memo)
    hhat_sum = pairing["h_sum"]
    excess = hhat_sum - 2 * max(h_p, h_r) - min(h_p, h_r)
    return PairStat(curve, p, r, h_p, h_r, hhat_sum, excess, pairing["cos_angle"])


def repulsion_survey(
    family: Family,
    T: float,
    x_bound: int,
    min_height: float = 0.0,
    precision_goal: float = 1e-8,
    delta: float = 0.1,
    restrict_filtered: bool = False,
) -> dict:
    """Excess and angle statistics over all qualifying point pairs.

    cos_angle entries measure cos theta minus the main term
    (1/2) max(sqrt(h_P/h_R), sqrt(h_R/h_P)); pairs where an angle is
    undefined (tiny canonical height) are counted separately.
    """
    if restrict_filtered:
        # a row with |a| < a_min fails a_big: no curve of it passes the filter
        a_min = _cutoffs(T, delta)[0]
        curve_count = 0
        curves = []
        for a, bs in _member_rows(family, T):
            curve_count += len(bs)
            if abs(a) >= a_min:
                curves += [CurveModel(a, b) for b in bs]
    else:
        curves = list(enumerate_family(family, T))
        curve_count = len(curves)
    max_excess = None
    pair_count = 0
    undefined_angle = 0
    deviations: list[float] = []
    worst: list[dict] = []
    for curve in curves:
        if restrict_filtered and not filter_diagnostics(
            curve, T, delta, x_bound_cap=x_bound
        ).passes_all:
            continue
        pts = [
            pt
            for pt in integral_points(curve, x_bound)
            if weil_height(CurvePoint.affine(*pt)) >= min_height
        ]
        # each point is in several pairs: its height is computed once
        memo: dict = {}
        # pts is sorted and duplicate-free, so i < j visits each pair once
        stats = [
            gap_excess(curve, p, r, precision_goal, memo=memo)
            for i, p in enumerate(pts)
            for r in pts[i + 1 :]
            if not (p[0] == r[0] and p[1] == -r[1])
        ]
        for stat in stats:
            pair_count += 1
            if max_excess is None or stat.excess > max_excess:
                max_excess = stat.excess
            if stat.cos_angle is None or stat.h_p <= 0 or stat.h_r <= 0:
                # the main term needs both Weil heights positive
                undefined_angle += 1
            else:
                main = 0.5 * max(
                    math.sqrt(stat.h_p / stat.h_r), math.sqrt(stat.h_r / stat.h_p)
                )
                deviations.append(stat.cos_angle - main)
            worst.append(
                {
                    "a": str(stat.curve.a),
                    "b": str(stat.curve.b),
                    "p": list(stat.p),
                    "r": list(stat.r),
                    "excess": stat.excess,
                }
            )
    worst.sort(key=lambda d: -d["excess"])
    histogram = _histogram(deviations)
    return {
        "family": family.value,
        "T": T,
        "x_bound": x_bound,
        "min_height": min_height,
        "restricted": restrict_filtered,
        "curve_count": curve_count,
        "pair_count": pair_count,
        "max_excess": max_excess,
        "undefined_angle_pairs": undefined_angle,
        "cos_histogram": histogram,
        "worst_pairs": worst[:100],
    }


def _histogram(values: list[float]) -> dict:
    if not values:
        return {"bins": [], "counts": [], "total": 0}
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1e-9
    width = (hi - lo) / _HIST_BINS
    counts = [0] * _HIST_BINS
    for v in values:
        idx = min(int((v - lo) / width), _HIST_BINS - 1)
        counts[idx] += 1
    edges = [lo + i * width for i in range(_HIST_BINS + 1)]
    return {"bins": edges, "counts": counts, "total": len(values)}
