"""Self-tests of the benchmark: every output check can fail, a failed
check raises fail_frac above 0, and the tracer reaches every binding site.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from integral_census import codes, optimizer, points, repulsion  # noqa: E402
from integral_census.points import CensusRow  # noqa: E402

TINY = {
    "census": ["census", "--family", "universal", "--T", "2", "--x-bound", "100"],
    "fermat": ["census", "--curve", "0,-2", "--x-bound", "1000"],
    "survey": ["gap-survey", "--family", "universal", "--T", "1.6", "--x-bound", "100"],
    "small": ["small-points", "--family", "universal", "--T", "2", "--exponent", "1"],
    "divpoly": ["divpoly-verify", "--n-max", "6"],
    "moments": workloads.MOMENTS_ARGV,
    "minimalist": workloads.MINIMALIST_ARGV,
}


@pytest.fixture(scope="module")
def docs():
    out = {}
    for key, argv in TINY.items():
        res = workloads.run_cli(argv)
        assert res.status == 0
        out[key] = res.doc
    return out


def _bad_point(pt):
    return [pt[0], pt[1] + 1]


def test_census_checks_fail_on_corrupt_output(docs):
    doc = docs["census"]
    assert checks.census_doc(doc) == []
    bad = copy.deepcopy(doc)
    row = next(r for r in bad["results"]["rows"] if r["points"])
    row["points"][0] = _bad_point(row["points"][0])
    assert checks.census_doc(bad)
    bad = copy.deepcopy(doc)
    bad["results"]["rows"][0]["integral_count"] += 1
    assert checks.census_doc(bad)

    summary = points.census(points.Family.UNIVERSAL, 2, 100)
    assert checks.census_summary(summary) == []
    r = next(r for r in summary.rows if r.points)
    summary.rows[summary.rows.index(r)] = CensusRow(
        r.curve, r.integral_count, [(r.points[0][0], r.points[0][1] + 1)] + r.points[1:],
        r.x_bound_used,
    )
    assert checks.census_summary(summary)


def test_scan_agreement_fails_when_backends_differ(monkeypatch):
    class Broken:
        @staticmethod
        def scan_range(a, b, lo, hi):
            return []

    rows = [(0, -2, 2, [[3, -5], [3, 5]])]
    monkeypatch.setattr(checks, "_scan", None)
    assert checks.scan_agreement(rows, 100) == []
    monkeypatch.setattr(checks, "_scan", Broken)
    assert checks.scan_agreement(rows, 100)


def test_fermat_check(docs):
    doc = docs["fermat"]
    assert checks.fermat(doc) == []
    bad = copy.deepcopy(doc)
    bad["results"]["points"] = [[3, 5]]
    assert checks.fermat(bad)


def test_content_hash_check(docs):
    doc = docs["fermat"]
    key = " ".join(TINY["fermat"])
    assert checks.content_hash(key, doc, {key: doc["content_hash"]}) == []
    assert checks.content_hash(key, doc, {key: "0" * 64})
    assert checks.content_hash("not frozen", doc, {}) == []


def test_gap_survey_checks(docs):
    doc = docs["survey"]
    assert doc["results"]["pair_count"] > 0
    assert checks.gap_survey(doc) == []
    bad = copy.deepcopy(doc)
    bad["results"]["max_excess"] = checks.MAX_EXCESS + 1
    assert checks.gap_survey(bad)
    bad = copy.deepcopy(doc)
    bad["results"]["worst_pairs"][0]["p"] = _bad_point(bad["results"]["worst_pairs"][0]["p"])
    assert checks.gap_survey(bad)

    w = doc["results"]["worst_pairs"][0]
    curve = points.CurveModel(int(w["a"]), int(w["b"]))
    stats = [repulsion.gap_excess(curve, tuple(w["p"]), tuple(w["r"]))]
    assert checks.pair_stats(stats) == []
    stats[0].excess = checks.MAX_EXCESS + 1
    assert checks.pair_stats(stats)
    stats = [repulsion.gap_excess(curve, tuple(w["p"]), tuple(w["r"]))]
    stats[0].p = tuple(_bad_point(stats[0].p))
    assert checks.pair_stats(stats)


def test_small_points_check(docs):
    doc = docs["small"]
    assert checks.small_points(doc) == []
    bad = copy.deepcopy(doc)
    bad["results"]["ratio"] += 1
    assert checks.small_points(bad)


@pytest.mark.parametrize("flag", ["homogeneous", "leading_ok", "all_within"])
def test_divpoly_check(docs, flag):
    doc = docs["divpoly"]
    assert checks.divpoly(doc) == []
    bad = copy.deepcopy(doc)
    if flag == "all_within":
        bad["results"]["coeff_growth"]["all_within"] = False
    else:
        bad["results"][flag] = False
    assert checks.divpoly(bad)


def test_bound_checks(docs):
    moments, minimalist = docs["moments"], docs["minimalist"]
    assert checks.moments(moments) == [] and checks.minimalist(minimalist) == []
    bad = copy.deepcopy(minimalist)
    bad["results"]["aggregate"] = 0.89
    assert checks.minimalist(bad)
    bad = copy.deepcopy(moments)
    bad["results"]["constraints"]["roth_count"] = False
    assert checks.moments(bad)

    report = optimizer.aggregate_bound(optimizer.RankModel.moments())
    reference = workloads.CliOutput(0, moments, "")
    assert checks.optimized(report, reference) == []
    worse = copy.deepcopy(moments)
    worse["results"]["aggregate"] = report.aggregate - 1
    assert checks.optimized(report, workloads.CliOutput(0, worse, ""))
    assert checks.optimized(report, None)


def test_a_failed_check_raises_fail_frac(docs):
    jobs = workloads.build("bound", workloads.DEFAULT_SEED)
    outputs = {
        "bound-moments": workloads.CliOutput(0, docs["moments"], ""),
        "bound-minimalist": workloads.CliOutput(0, docs["minimalist"], ""),
        "bound-optimize": optimizer.aggregate_bound(optimizer.RankModel.moments()),
    }
    assert workloads.check_jobs(jobs, outputs) == {}
    bad = copy.deepcopy(docs["minimalist"])
    bad["results"]["aggregate"] = 1.0
    outputs["bound-minimalist"] = workloads.CliOutput(0, bad, "")
    outputs["bound-moments"] = workloads.CliOutput(1, None, "")
    failed = workloads.check_jobs(jobs, outputs)
    # the moments job failed outright, so the search has no reference either
    assert set(failed) == {"bound-moments", "bound-minimalist", "bound-optimize"}
    assert len(failed) / len(jobs) > 0


def test_tracer_patches_every_binding_site():
    per_rank = optimizer.per_rank_bound
    originals = {
        "scan": points.integral_points,
        "best": codes.best_code_bound,
        "linprog": optimizer.linprog,
    }
    with tracing.Tracer().installed():
        assert repulsion.integral_points is points.integral_points
        assert points.integral_points is not originals["scan"]
        assert per_rank.__defaults__[0] is codes.best_code_bound
        assert codes.best_code_bound is not originals["best"]
        assert optimizer.linprog is not originals["linprog"]
        assert codes.linprog is originals["linprog"]
    assert repulsion.integral_points is originals["scan"] is points.integral_points
    assert per_rank.__defaults__[0] is originals["best"]
    assert optimizer.linprog is originals["linprog"]


def test_tracer_refuses_an_unpatched_site(monkeypatch):
    original = points.integral_points
    monkeypatch.setattr(repulsion, "_held", {"scan": original}, raising=False)
    with pytest.raises(RuntimeError, match="unpatched binding sites"):
        tracing.Tracer().install()
    assert repulsion.integral_points is original


def test_tracer_counts_and_self_times():
    tr = tracing.Tracer()
    with tr.installed():
        root = tr.begin("bench.pass")
        survey = repulsion.repulsion_survey(points.Family.UNIVERSAL, 1.6, 100)
        optimizer.per_rank_bound(3, optimizer.REFERENCE_PARAMS)
        tr.end(root)
    m = tracing.layer_metrics(tr, tr.ends[root] - tr.starts[root])
    assert m["families.enumerate.curves"] == survey["curve_count"]
    assert m["points.scan.calls"] == survey["curve_count"]
    assert m["points.scan.x_values"] == 201 * survey["curve_count"]
    assert m["repulsion.pairs"] == survey["pair_count"]
    assert m["codes.best.calls"] == 1
    assert m["optimizer.check_constraints.calls"] == 1
    shares = sum(m[f"{layer}.self_frac"] for layer in tracing.LAYERS + [tracing.HARNESS])
    assert shares == pytest.approx(1.0, abs=1e-9)
