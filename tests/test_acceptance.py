"""Acceptance gate: thirteen end-to-end checks with fixed tolerances.

Each test records one PASS/FAIL line; conftest prints the whole verdict
table in the terminal summary so a tee'd run shows it even on success.
"""

import math
import random
import sys
import time

import conftest

import mpmath as mp
import pytest

from integral_census import codes, optimizer
from integral_census.cli import _canonical_json, run
from integral_census.divpoly import multiply_point
from integral_census.families import CurveModel, Family, enumerate_family, is_family_member
from integral_census.heights import canonical_height, global_difference_bound, weil_height
from integral_census.points import CurvePoint, add, integral_points, negate

PI3 = math.pi / 3


def _verdict(num: int, label: str, ok: bool, extra: str = "") -> None:
    line = f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    conftest.verdict_lines.append(line)
    print(line, flush=True)
    assert ok, line


# --- shared CLI runs (reused by the determinism criterion) -----------------

_CLI_CONFIGS = {
    "fermat": ["census", "--curve", "0,-2", "--x-bound", "1000000"],
    "mod3": [
        "verify-identities", "--check", "mod3",
        "--coeff-bound", "30", "--x-bound", "10000",
    ],
    "survey": [
        "gap-survey", "--family", "universal", "--T", "20",
        "--x-bound", "10000", "--delta", "0.1",
        "--min-height", "auto", "--restrict-filtered",
    ],
}


@pytest.fixture(scope="module")
def cli_docs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli")
    docs = {}
    for key, argv in _CLI_CONFIGS.items():
        t0 = time.perf_counter()
        status, doc = run(argv + ["--out", str(out_dir / f"{key}.json")])
        docs[key] = (status, doc, time.perf_counter() - t0)
    return docs


def test_criterion_01_kl_inversion():
    t0 = time.perf_counter()
    res = codes.kl_invert(3)
    dt = time.perf_counter() - t0
    ok = 0.897 <= res["cos_theta"] <= 0.900 and dt < 1.0
    _verdict(1, "kl inversion", ok, f"cos theta = {res['cos_theta']:.6f}, {dt:.2f}s")


def test_criterion_02_kl_at_pi3():
    t0 = time.perf_counter()
    got = codes.kl_base(PI3)
    # independent 50-digit evaluation of the rate formula
    with mp.workdps(50):
        st = mp.sin(mp.mpf(math.pi) / 3)
        a = (1 + st) / (2 * st)
        b = (1 - st) / (2 * st)
        oracle = float(mp.e ** (a * mp.log(a) - b * mp.log(b)))
    dt = time.perf_counter() - t0
    ok = got <= 1.33 and abs(got - oracle) < 1e-8 and dt < 1.0
    _verdict(2, "kl base pi/3", ok, f"{got:.10f} vs {oracle:.10f}")


def test_criterion_03_appendix_parameters():
    t0 = time.perf_counter()
    verdict = optimizer.check_constraints(optimizer.REFERENCE_PARAMS)
    dt = time.perf_counter() - t0
    ok = (
        verdict["iv_empty"]
        and verdict["roth_count"]
        and 4 < verdict["kappa"] < 4.5
        and dt < 1.0
    )
    _verdict(
        3, "appendix parameters", ok,
        f"kappa = {verdict['kappa']:.6f}, margin = {verdict.get('roth_margin', 0):.2e}",
    )


def test_criterion_04_minimalist_aggregation():
    t0 = time.perf_counter()
    report = optimizer.aggregate_bound(optimizer.RankModel.minimalist())
    dt = time.perf_counter() - t0
    ok = abs(report.aggregate - 8 / 9) < 1e-12 and dt < 1.0
    _verdict(4, "minimalist 8/9", ok, f"aggregate = {report.aggregate!r}")


def test_criterion_05_unconditional_aggregation():
    t0 = time.perf_counter()
    model = optimizer.RankModel.moments()
    reference = optimizer.aggregate_bound(model, optimizer.REFERENCE_PARAMS)
    best = optimizer.optimize(model)
    dt = time.perf_counter() - t0
    ok = (
        math.isfinite(best.aggregate)
        and best.aggregate < 100
        and best.aggregate <= reference.aggregate + 1e-9
        and dt < 300
    )
    _verdict(
        5, "unconditional aggregation", ok,
        f"achieved {best.aggregate:.4f} vs reported {optimizer.REPORTED_COMPARISON_BOUND}, "
        f"reference point {reference.aggregate:.4f}, {dt:.0f}s",
    )


def test_criterion_06_fermat_census(cli_docs):
    status, doc, dt = cli_docs["fermat"]
    ok = (
        status == 0
        and doc["results"]["points"] == [[3, -5], [3, 5]]
        and dt < 10
    )
    _verdict(6, "fermat census", ok, f"{doc['results']['points']}, {dt:.1f}s")


def test_criterion_07_mod3_vanishing(cli_docs):
    status, doc, dt = cli_docs["mod3"]
    res = doc["results"]["mod3"]
    ok = status == 0 and res["curves_checked"] == 400 and res["all_empty"] and dt < 120
    _verdict(7, "mod-3 vanishing", ok, f"{res['curves_checked']} curves, {dt:.0f}s")


def test_criterion_08_divpoly_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    done = 0
    while done < 100:
        x, y, a = rng.randint(-20, 20), rng.randint(1, 20), rng.randint(-20, 20)
        b = y * y - x**3 - a * x
        curve = CurveModel(a, b)
        if curve.disc() == 0:
            continue
        done += 1
        p = CurvePoint.affine(x, y)
        acc = p
        for n in range(2, 9):
            acc = add(curve, acc, p)
            if multiply_point(curve, p, n) != acc:
                ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 60
    _verdict(8, "divpoly equivalence", ok, f"100 pairs, n <= 8, {dt:.0f}s")


def test_criterion_09_height_laws():
    t0 = time.perf_counter()
    rng = random.Random(99)
    ok = True
    done = 0
    while done < 50:
        x, y, a = rng.randint(-12, 12), rng.randint(1, 12), rng.randint(-12, 12)
        b = y * y - x**3 - a * x
        curve = CurveModel(a, b)
        if curve.disc() == 0:
            continue
        p = CurvePoint.affine(x, y)
        prof = canonical_height(curve, p, 1e-10)
        if prof.is_torsion:
            continue
        done += 1
        h1 = prof.canonical
        d = add(curve, p, p)
        if abs(canonical_height(curve, d, 1e-10).canonical - 4 * h1) > 1e-8:
            ok = False
        if abs(canonical_height(curve, negate(p), 1e-10).canonical - h1) > 1e-8:
            ok = False
        # parallelogram with q = 2p
        s = add(curve, p, d)
        t_pt = add(curve, p, negate(d))
        hs = canonical_height(curve, s, 1e-10).canonical
        ht = 0.0 if t_pt.is_identity else canonical_height(curve, t_pt, 1e-10).canonical
        if abs(hs + ht - 10 * h1) > 1e-8:
            ok = False
        # doubling oracle: h(16 P) / 256 within B_E / 256 of h_hat(P)
        q16 = multiply_point(curve, p, 16)
        if abs(weil_height(q16) / 256 - h1) > global_difference_bound(curve) / 256:
            ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 120
    _verdict(9, "height laws", ok, f"50 pairs at 1e-10, {dt:.0f}s")


def test_criterion_10_gap_survey(cli_docs):
    status, doc, dt = cli_docs["survey"]
    res = doc["results"]
    excess_ok = res["max_excess"] is None or res["max_excess"] <= 15.0
    ok = status == 0 and excess_ok and dt < 600
    _verdict(
        10, "gap survey", ok,
        f"{res['curve_count']} curves, {res['pair_count']} pairs, "
        f"max excess {res['max_excess']}, {dt:.0f}s",
    )


def test_criterion_11_code_bound_cross_validation():
    t0 = time.perf_counter()
    rp1_ok = codes.rp1_bound(PI3) == 3
    gamma_ok = abs(codes.cap_gamma_ratio_gap(3)) < 1e-20
    lp = codes.lp_bound(2, PI3)
    lp_ok = lp.certified and math.floor(lp.bound) == 3
    dt = time.perf_counter() - t0
    ok = rp1_ok and gamma_ok and lp_ok and dt < 60
    _verdict(
        11, "code-bound cross-validation", ok,
        f"rp1 = 3, gamma gap = {codes.cap_gamma_ratio_gap(3):.1e}, lp = {lp.bound:.4f}",
    )


def test_criterion_12_family_counts():
    t0 = time.perf_counter()

    def brute(family, T):
        t6 = T**6
        a_max = int(round((t6 / 4) ** (1 / 3))) + 2
        b_max = int(round((t6 / 27) ** 0.5)) + 2
        n = 0
        for a in range(-a_max, a_max + 1):
            if 4 * abs(a) ** 3 > t6:
                continue
            for b in range(-b_max, b_max + 1):
                if 27 * b * b > t6:
                    continue
                if is_family_member(CurveModel(a, b), family):
                    n += 1
        return n

    ok = True
    for T in (2, 5, 10):
        for fam in Family:
            if sum(1 for _ in enumerate_family(fam, T)) != brute(fam, T):
                ok = False
    universal_t2 = sum(1 for _ in enumerate_family(Family.UNIVERSAL, 2))
    ok = ok and universal_t2 == 14
    dt = time.perf_counter() - t0
    ok = ok and dt < 60
    _verdict(12, "family counts", ok, f"universal T=2 count {universal_t2}, {dt:.0f}s")


def test_criterion_13_determinism(cli_docs):
    ok = True
    for key, argv in _CLI_CONFIGS.items():
        _, doc1, _ = cli_docs[key]
        status2, doc2 = run(argv + ["--out", "/dev/null"])
        if status2 != 0 or _canonical_json(doc1) != _canonical_json(doc2):
            ok = False
    _verdict(13, "determinism", ok, "rerun byte-identical")
