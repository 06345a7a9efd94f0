"""Output checks for the benchmark jobs.

Each check returns a list of problems; an empty list means the output is
correct.  They run after the timed region, and every job with a problem
counts as failed.  test_perfbench.py feeds each one a corrupted output to
show that it can fail.
"""

from __future__ import annotations

import math
from fractions import Fraction

from integral_census import _scan_py

try:
    from integral_census import _scan
except ImportError:  # compiled kernel not built: nothing to compare against
    _scan = None

FERMAT_POINTS = [[3, -5], [3, 5]]
MAX_EXCESS = 15.0


def _on_curve(a: int, b: int, pt) -> bool:
    x, y = pt
    return y * y == x**3 + a * x + b


def cli_status(status: int, doc: dict | None) -> list[str]:
    if status != 0 or doc is None:
        return [f"cli exited {status}"]
    return []


def content_hash(key: str, doc: dict, frozen: dict[str, str]) -> list[str]:
    want = frozen.get(key)
    if want is not None and doc.get("content_hash") != want:
        return [f"content_hash of {key!r} is {doc.get('content_hash')}, want {want}"]
    return []


def _rows_on_curve(rows) -> list[str]:
    """rows: (a, b, integral_count, points) tuples."""
    problems = []
    for a, b, count, pts in rows:
        if count != len(pts):
            problems.append(f"curve ({a}, {b}): count {count} != {len(pts)} points")
        bad = [p for p in pts if not _on_curve(a, b, p)]
        if bad:
            problems.append(f"curve ({a}, {b}): {bad[:3]} not on the curve")
    return problems


def census_doc(doc: dict) -> list[str]:
    res = doc["results"]
    rows = [(int(r["a"]), int(r["b"]), r["integral_count"], r["points"]) for r in res["rows"]]
    problems = _rows_on_curve(rows)
    if res["curve_count"] != len(rows):
        problems.append(f"curve_count {res['curve_count']} != {len(rows)} rows")
    if res["total_points"] != sum(r[2] for r in rows):
        problems.append("total_points is not the sum of the row counts")
    return problems + scan_agreement(rows, doc["config"]["x_bound"])


def census_summary(summary) -> list[str]:
    rows = [(r.curve.a, r.curve.b, r.integral_count, r.points) for r in summary.rows]
    problems = _rows_on_curve(rows)
    if summary.total_points != sum(r[2] for r in rows):
        problems.append("total_points is not the sum of the row counts")
    x_bound = summary.rows[0].x_bound_used if summary.rows else 1
    return problems + scan_agreement(rows, x_bound)


def scan_agreement(rows, x_bound: int, every: int = 16) -> list[str]:
    """Compiled and pure-Python scans agree on every ``every``-th curve.

    Runs only when the compiled kernel is importable; the census itself
    used it wherever the int64 guard allowed.
    """
    if _scan is None:
        return []
    problems = []
    lo, hi = -x_bound, x_bound
    for a, b, _, _ in rows[::every]:
        if _scan.scan_range(a, b, lo, hi) != _scan_py.scan_range(a, b, lo, hi):
            problems.append(f"curve ({a}, {b}): compiled and pure-python scans disagree")
    return problems


def fermat(doc: dict) -> list[str]:
    pts = doc["results"]["points"]
    if pts != FERMAT_POINTS:
        return [f"y^2 = x^3 - 2 gave {pts}, want {FERMAT_POINTS}"]
    return []


def _excess(max_excess) -> list[str]:
    if max_excess is not None and not max_excess <= MAX_EXCESS:
        return [f"max excess {max_excess} > {MAX_EXCESS}"]
    return []


def gap_survey(doc: dict) -> list[str]:
    res = doc["results"]
    problems = _excess(res["max_excess"])
    for w in res["worst_pairs"]:
        a, b = int(w["a"]), int(w["b"])
        if not (_on_curve(a, b, w["p"]) and _on_curve(a, b, w["r"])):
            problems.append(f"pair {w['p']}, {w['r']} not on curve ({a}, {b})")
    if len(res["worst_pairs"]) > res["pair_count"]:
        problems.append("more worst pairs than pairs")
    return problems


def pair_stats(stats) -> list[str]:
    problems = []
    for s in stats:
        if not (_on_curve(s.curve.a, s.curve.b, s.p) and _on_curve(s.curve.a, s.curve.b, s.r)):
            problems.append(f"pair {s.p}, {s.r} not on {s.curve}")
        if not math.isfinite(s.hhat_sum):
            problems.append(f"pair {s.p}, {s.r}: canonical height {s.hhat_sum}")
    return problems + _excess(max((s.excess for s in stats), default=None))


def small_points(doc: dict) -> list[str]:
    res = doc["results"]
    if res["family_size"] < 1 or res["triple_count"] < 0:
        return [f"family_size {res['family_size']}, triple_count {res['triple_count']}"]
    if res["ratio"] != res["triple_count"] / res["family_size"]:
        return ["ratio is not triple_count / family_size"]
    return []


def divpoly(doc: dict) -> list[str]:
    res = doc["results"]
    flags = {
        "homogeneous": res["homogeneous"],
        "leading_ok": res["leading_ok"],
        "all_within": res["coeff_growth"]["all_within"],
    }
    return [f"divpoly-verify: {k} is false" for k, v in flags.items() if v is not True]


def _feasible(constraints: dict) -> list[str]:
    if not (constraints.get("iv_empty") and constraints.get("roth_count")):
        return [f"parameters infeasible: {constraints}"]
    return []


def moments(doc: dict) -> list[str]:
    res = doc["results"]
    problems = _feasible(res["constraints"])
    if not (math.isfinite(res["aggregate"]) and res["aggregate"] > 0):
        problems.append(f"aggregate {res['aggregate']}")
    return problems


def minimalist(doc: dict) -> list[str]:
    agg = doc["results"]["aggregate"]
    if agg != float(Fraction(8, 9)):
        return [f"minimalist aggregate {agg}, want 8/9"]
    return []


def optimized(report, reference) -> list[str]:
    """The search result is feasible and no worse than the reference point.

    ``reference`` is the CLI output of ``optimize --model moments``.
    """
    if reference is None or reference.doc is None:
        return ["no reference aggregate to compare with"]
    problems = _feasible(report.constraints)
    ref = reference.doc["results"]["aggregate"]
    if not report.aggregate <= ref:
        problems.append(f"optimized aggregate {report.aggregate} > reference {ref}")
    return problems
