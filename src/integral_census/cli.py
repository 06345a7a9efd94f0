"""Command-line front end: validation, dispatch, and report emission.

Every run emits a JSON document containing the validated config and a
content hash of (config, results).  Every run is serial, and the output
path is excluded from the document, so identical computations produce
byte-identical JSON.

Each subcommand declares only the options it reads, plus ``--out``: any
other option exits 1, and so does an option that the chosen mode would
not read: a ``--config`` key, a code-bound ``--degree``/``--grid-size``
off ``--method lp``, a census ``--family``/``--T`` beside ``--curve``, and
a verify-identities ``--coeff-bound``/``--x-bound`` off ``--check mod3``
and ``all``.
Options are taken by their full names only, never abbreviated.  The allowed
values of the numeric options are stated once, in ``_RULES``, and checked
before any handler runs, so a bad value exits 1 before any work.  ``codes``
and ``optimizer`` load scipy, so only their one reader each imports them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
from fractions import Fraction

from . import divpoly, heights, points, repulsion
from .families import CurveModel, Family, naive_height
from .points import CurvePoint

def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _finalize(config: dict, results: dict) -> tuple[dict, str]:
    """The report document and its canonical JSON text.

    config and results are each rendered once; the hashed text of
    {config, results} and the document's text are both assembled from those
    two strings, in the key order that sort_keys gives."""
    c, r = _canonical_json(config), _canonical_json(results)
    digest = hashlib.sha256(f'{{"config":{c},"results":{r}}}'.encode()).hexdigest()
    doc = {"config": config, "results": results, "content_hash": digest}
    return doc, f'{{"config":{c},"content_hash":"{digest}","results":{r}}}'


def _parse_curve(text: str) -> CurveModel:
    try:
        a_str, b_str = text.split(",")
        curve = CurveModel(int(a_str), int(b_str))
    except Exception as exc:
        raise ValueError(f"bad curve spec {text!r}, expected 'a,b'") from exc
    if curve.disc() == 0:
        raise ValueError(f"curve {text!r} is singular: 4a^3 + 27b^2 = 0")
    return curve


def _T(args) -> float:
    if args.T is None:
        raise ValueError("--T required")
    return args.T


def _fraction(value, what: str) -> Fraction:
    """Fraction(value) for a number or a string such as '8/9'; anything
    else, a zero denominator or a non-finite float is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"{what} must be a number or a fraction string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{what}: {value!r} is not a finite rational number") from exc


# options read by more than one subcommand; each declares the ones it reads
_SHARED = {
    "--family": {"choices": [fam.value for fam in Family], "default": None},
    "--T": {"type": float, "default": None},
    "--x-bound": {"type": int, "default": 10**4},
    "--delta": {"type": float, "default": 0.1},
    "--precision": {"type": float, "default": 1e-10},
}


# the allowed values of each option, keyed by its argparse dest; run checks them
# before any handler, and a value that its predicate cannot read is not allowed
_RULES = {
    "T": (lambda T: math.isfinite(T) and T >= 1, "--T must be finite and >= 1"),
    "x_bound": (lambda x: x >= 1, "--x-bound must be >= 1"),
    "delta": (lambda d: 0 < d < 1, "--delta must lie in (0, 1)"),
    "precision": (lambda p: 1e-14 <= p <= 1e-2, "--precision must lie in [1e-14, 1e-2]"),
    "min_height": (lambda h: h == "auto" or math.isfinite(float(h)),
                   "--min-height must be 'auto' or a finite number"),
    "n_max": (lambda n: 2 <= n <= divpoly.PSI_N_MAX,
              f"--n-max must lie in [2, {divpoly.PSI_N_MAX}]"),
    # an empty grid would make the mod-3 check pass vacuously
    "coeff_bound": (lambda c: c >= 1, "--coeff-bound must be >= 1"),
}


def _check_rules(args) -> None:
    for dest, (allowed, message) in _RULES.items():
        value = getattr(args, dest, None)
        try:
            ok = value is None or allowed(value)
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="integral-census",
        description="Integral-point censuses, heights, and code-bound pipelines.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand")
    # every subcommand takes --out, and it does not enter the report
    io_opts = argparse.ArgumentParser(add_help=False)
    io_opts.add_argument("--out", default=None)

    def add(name: str, *shared: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[io_opts], allow_abbrev=False)
        for opt in shared:
            p.add_argument(opt, **_SHARED[opt])
        return p

    p = add("census", "--family", "--T", "--x-bound")
    p.add_argument("--curve", default=None, help="single curve 'a,b'")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p = add("small-points", "--family", "--T")
    p.add_argument("--exponent", type=float, default=1.0)
    p = add("heights", "--precision")
    p.add_argument("--curve", required=True)
    p.add_argument("--point", required=True, help="'x,y' with rational entries")
    p = add("gap-survey", "--family", "--T", "--x-bound", "--delta", "--precision")
    p.add_argument("--min-height", default="0")
    p.add_argument("--restrict-filtered", action="store_true")
    p = add("divpoly-verify")
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--k1", type=float, default=1e10)
    p.add_argument("--k2", type=float, default=1.0)
    p.add_argument("--k3", type=float, default=1e6)
    p = add("code-bound")
    p.add_argument("--r", type=int, default=None, help="read by every method but kl")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--method", choices=["cap", "rp1", "kl", "lp", "best"], default="best")
    p.add_argument("--degree", type=int, default=None, help="lp only; default 20")
    p.add_argument("--grid-size", type=int, default=None, help="lp only; default 400")
    p = add("optimize")
    p.add_argument("--model", choices=["minimalist", "moments"], default="moments")
    p.add_argument("--config", default=None, help="key = value parameter file")
    p.add_argument("--search", action="store_true", help="grid search instead of single evaluation")
    p = add("verify-identities")
    p.add_argument("--check", choices=["mod3", "triple-root", "mult", "all"], default="all")
    p.add_argument("--coeff-bound", type=int, default=None, help="mod3 and all only; default 30")
    p.add_argument("--x-bound", type=int, default=None, help="mod3 and all only; default 10000")
    return parser


def _attach_signed_values(argv: list[str]) -> list[str]:
    """argv with a --curve or --point value that begins with "-" joined to
    its flag: argparse would read a separate "-2,-21" as an option.  The
    parsers take no abbreviated flag, so only the full names need joining."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--curve", "--point") and token.startswith("-"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run(argv: list[str]) -> tuple[int, dict | None]:
    """Dispatch a CLI invocation; returns (exit status, report document)."""
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(argv))
    except SystemExit:
        return 1, None
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1, None
    try:
        _check_rules(args)
        doc, text = _finalize(*_HANDLERS[args.subcommand](args))
        _emit(args, doc, text)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    except (ArithmeticError, RuntimeError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2, None
    return 0, doc


def _emit(args, doc: dict, json_text: str) -> None:
    # only census has --format, and it takes csv only for a family census
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(doc["results"]["csv_rows"])
        text = buf.getvalue()
    else:
        text = json_text + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _family(args) -> Family:
    if args.family is None:
        raise ValueError("--family required")
    return Family(args.family)


def _cmd_census(args) -> tuple[dict, dict]:
    if args.curve:
        if args.format == "csv":
            raise ValueError("--format csv needs --family: a single-curve census is JSON only")
        if args.family is not None or args.T is not None:
            raise ValueError("--curve names one curve: it reads neither --family nor --T")
        curve = _parse_curve(args.curve)
        config = {"subcommand": "census", "curve": curve.to_record(), "x_bound": args.x_bound}
        pts = points.integral_points(curve, args.x_bound)
        results = {
            "points": [list(p) for p in pts],
            "integral_count": len(pts),
        }
    else:
        fam = _family(args)
        T = _T(args)
        config = {
            "subcommand": "census",
            "family": fam.value,
            "T": T,
            "x_bound": args.x_bound,
        }
        summary = points.census(fam, T, args.x_bound)
        results = {
            "curve_count": summary.curve_count,
            "total_points": summary.total_points,
            "average": summary.average,
            "rows": [
                {
                    "a": str(r.curve.a),
                    "b": str(r.curve.b),
                    "integral_count": r.integral_count,
                    "points": [list(p) for p in r.points],
                }
                for r in summary.rows
            ],
            "csv_rows": [["a", "b", "naive_height", "integral_count"]]
            + [
                [
                    str(r.curve.a),
                    str(r.curve.b),
                    float(naive_height(r.curve.a, r.curve.b)),
                    r.integral_count,
                ]
                for r in summary.rows
            ],
        }
    return config, results


def _cmd_small_points(args) -> tuple[dict, dict]:
    fam = _family(args)
    T = _T(args)
    config = {
        "subcommand": "small-points",
        "family": fam.value,
        "T": T,
        "exponent": args.exponent,
    }
    results = points.small_point_statistics(fam, T, args.exponent)
    return config, results


def _cmd_heights(args) -> tuple[dict, dict]:
    curve = _parse_curve(args.curve)
    if args.point.count(",") != 1:
        raise ValueError(f"bad --point {args.point!r}, expected 'x,y'")
    x_str, y_str = args.point.split(",")
    what = f"point {args.point!r}"
    pt = CurvePoint(_fraction(x_str, what), _fraction(y_str, what))
    config = {
        "subcommand": "heights",
        "curve": curve.to_record(),
        "point": [x_str, y_str],
        "precision": args.precision,
    }
    prof = heights.canonical_height(curve, pt, args.precision)
    gap = heights._height_gap(curve, pt, prof)
    results = {
        "weil": prof.weil,
        "canonical": prof.canonical,
        "locals": prof.local,
        "residual": gap["residual"],
        "is_torsion": prof.is_torsion,
    }
    return config, results


def _cmd_gap_survey(args) -> tuple[dict, dict]:
    fam = _family(args)
    T = _T(args)
    if args.min_height == "auto":
        min_height = (5 - args.delta) * math.log(T)
    else:
        min_height = float(args.min_height)
    config = {
        "subcommand": "gap-survey",
        "family": fam.value,
        "T": T,
        "x_bound": args.x_bound,
        "delta": args.delta,
        "min_height": min_height,
        "restricted": bool(args.restrict_filtered),
    }
    # recorded only off the default, so a run at the default keeps its hash
    if args.precision != _SHARED["--precision"]["default"]:
        config["precision"] = args.precision
    results = repulsion.repulsion_survey(
        fam,
        T,
        args.x_bound,
        min_height=min_height,
        precision_goal=args.precision,
        delta=args.delta,
        restrict_filtered=args.restrict_filtered,
    )
    return config, results


# (a, b, x, y): the point (x, y) of y^2 = x^3 + a x + b, with a, b, x, y != 0
_PSI_POINTS = ((-7, 10, 1, 2), (1, 6, 3, 6))


def _cmd_divpoly_verify(args) -> tuple[dict, dict]:
    config = {
        "subcommand": "divpoly-verify",
        "n_max": args.n_max,
        "K1": args.k1,
        "K2": args.k2,
        "K3": args.k3,
    }
    growth = divpoly.verify_coeff_growth(args.n_max, args.k1, args.k2, args.k3)
    homogeneous = True
    leading = True
    memos = [{} for _ in _PSI_POINTS]
    for n in range(1, args.n_max + 1):
        poly = divpoly.psi(n)
        rows = poly.rows
        # psi_n has weight (n^2 - 1) / 2 with y of weight 3/2: every term of
        # rows[m] has m + 2 f_A + 3 f_B = d, the top row
        d = len(rows) - 1
        shaped = 2 * d + 3 * poly.y_factor == n * n - 1 and all(
            m + 2 * fa + 3 * fb == d for m, row in enumerate(rows) for fa, fb in row
        )
        if not shaped:
            homogeneous = False
        # psi_n = n x^d + 0 x^(d-1) + ...
        if rows[d] != {(0, 0): n} or (d >= 1 and rows[d - 1]):
            leading = False
        # the built psi_n against the numeric recursion, which shares no code
        # with the build: a wrong coefficient anywhere changes the value
        if shaped and any(
            poly.value(a, b, x, y) != divpoly._psi_val(n, Fraction(x), Fraction(y), a, b, memo)
            for (a, b, x, y), memo in zip(_PSI_POINTS, memos)
        ):
            leading = False
    results = {
        "coeff_growth": growth,
        "homogeneous": homogeneous,
        "leading_ok": leading,
    }
    return config, results


def _cmd_code_bound(args) -> tuple[dict, dict]:
    from . import codes  # imported by its one reader: it loads scipy
    config = {
        "subcommand": "code-bound",
        "theta": args.theta,
        "method": args.method,
    }
    # kl_base depends on theta alone; every other method reads r
    reads_r = args.method != "kl"
    if reads_r:
        if args.r is None:
            raise ValueError(f"--method {args.method} requires --r")
        config["r"] = args.r
    if args.method == "lp":
        config["degree"] = 20 if args.degree is None else args.degree
        config["grid_size"] = 400 if args.grid_size is None else args.grid_size
    elif args.degree is not None or args.grid_size is not None:
        raise ValueError("--degree and --grid-size are read only by --method lp")
    if args.method == "cap":
        res = codes.CodeBoundResult(args.r, args.theta, "cap", codes.cap_bound(args.r, args.theta))
    elif args.method == "rp1":
        if args.r != 2:
            raise ValueError(f"--method rp1 bounds lines in the plane: --r must be 2, got {args.r}")
        res = codes.CodeBoundResult(2, args.theta, "rp1", float(codes.rp1_bound(args.theta)))
    elif args.method == "kl":
        res = codes.CodeBoundResult(
            args.r, args.theta, "kl", codes.kl_base(args.theta),
            detail={"rate": float(codes.kl_exponent(args.theta))},
        )
    elif args.method == "lp":
        res = codes.lp_bound(args.r, args.theta, config["degree"], config["grid_size"])
        if not math.isfinite(res.bound):
            raise ValueError(
                f"the LP at r = {args.r}, theta = {args.theta} gives no bound: "
                + res.detail["status"]
            )
    else:
        res = codes.best_code_bound(args.r, args.theta)
    results = {
        "theta": res.theta,
        "method": res.method,
        "bound": res.bound,
        "certified": res.certified,
        "detail": None if res.detail is None else dict(res.detail),
    }
    if reads_r:
        results["r"] = res.r
    return config, results


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            try:
                out[key] = json.loads(value)
            except json.JSONDecodeError:
                out[key] = value
    return out


# c, D, s and J make the one parameter vector read without --search
_POINT_KEYS = {"c", "D", "s", "J"}
_CONFIG_KEYS = {"moment_caps", "floors", "density", "grid"} | _POINT_KEYS


def _cmd_optimize(args) -> tuple[dict, dict]:
    from . import optimizer  # imported by its one reader: it loads scipy
    overrides = _read_config_file(args.config) if args.config else {}
    if unknown := sorted(set(overrides) - _CONFIG_KEYS):
        raise ValueError(f"unknown --config keys {unknown}, expected some of {sorted(_CONFIG_KEYS)}")
    if args.model == "minimalist" and {"moment_caps", "floors"} & set(overrides):
        raise ValueError("--model minimalist has explicit rank probabilities: it does not read "
                         "moment_caps or floors")
    if args.search and _POINT_KEYS & set(overrides):
        raise ValueError("--search does not read c, D, s or J; give their values in grid")
    if not args.search and "grid" in overrides:
        raise ValueError("grid is read only with --search")
    config = {"subcommand": "optimize", "model": args.model, "search": bool(args.search)}
    # an override enters the hashed config only when given, so a run without it keeps its hash;
    # RankModel, OptimizerParams and optimize check the values
    given = {key: overrides[key] for key in ("moment_caps", "floors") if key in overrides}
    if "density" in overrides:
        given["density"] = _fraction(overrides["density"], "density").limit_denominator(10**6)
    # --model names one of RankModel's two constructors
    model = dataclasses.replace(getattr(optimizer.RankModel, args.model)(), **given)
    # hashed as the model holds them, so [[5, 6]] and [[5.0, 6.0]] share a hash
    held = {"moment_caps": [list(bc) for bc in model.moment_caps], "floors": model.floors,
            "density": str(model.density)}
    config.update({key: held[key] for key in given})
    if args.search:
        grid = overrides.get("grid")
        if grid is not None:
            # hashed as the search runs it, so {"D": [700]} and {"D": [700.0]} share a hash
            grid = config["grid"] = optimizer._search_grid(grid)
        report = optimizer.optimize(model, grid)
    else:
        ref = optimizer.REFERENCE_PARAMS
        params = optimizer.OptimizerParams(
            c=overrides.get("c", ref.c), D=overrides.get("D", ref.D),
            s=overrides.get("s", ref.s), J_default=overrides.get("J", ref.J_default),
        )
        config.update(c=params.c, D=params.D, s=params.s, J=params.J_default)
        report = optimizer.aggregate_bound(model, params)
    p = report.params
    results = {
        "aggregate": report.aggregate,
        "tail_bound": report.tail_bound,
        "constraints": report.constraints,
        "per_rank": {str(r): v for r, v in sorted(report.per_rank.items()) if r <= 10},
        "comparison": optimizer.REPORTED_COMPARISON_BOUND,
        "r_max": optimizer._R_MAX,
        "params": {"c": p.c, "D": p.D, "s": p.s, "J": p.J_default},
    }
    return config, results


def _cmd_verify_identities(args) -> tuple[dict, dict]:
    results: dict = {}
    config = {"subcommand": "verify-identities", "check": args.check}
    if args.check in ("mod3", "all"):
        # only the mod-3 sweep reads the grid and the scan window
        bound = 30 if args.coeff_bound is None else args.coeff_bound
        x_bound = 10**4 if args.x_bound is None else args.x_bound
        config.update(coeff_bound=bound, x_bound=x_bound)
        grid = (
            CurveModel(a, b)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
        )
        curves = [c for c in grid if points.mod3_obstruction(c) and c.disc() != 0]
        counts = [len(pts) for pts in points._points_per_curve(curves, x_bound)]
        results["mod3"] = {
            "curves_checked": len(curves),
            "all_empty": all(n == 0 for n in counts),
            "nonempty": [
                c.to_record() for c, n in zip(curves, counts) if n
            ],
        }
    elif args.coeff_bound is not None or args.x_bound is not None:
        raise ValueError("--coeff-bound and --x-bound are read only by --check mod3 and all")
    if args.check in ("triple-root", "all"):
        ok = divpoly.triple_root_identity_check(
            CurveModel(1, 6), CurvePoint.affine(3, 6), 100
        )
        results["triple_root"] = {"holds": ok}
    if args.check in ("mult", "all"):
        import random

        rng = random.Random(12345)
        from .points import add

        failures = 0
        trials = 0
        while trials < 25:
            x, y, a = rng.randint(-9, 9), rng.randint(1, 9), rng.randint(-9, 9)
            b = y * y - x**3 - a * x
            curve = CurveModel(a, b)
            if curve.disc() == 0:
                continue
            trials += 1
            pt = CurvePoint.affine(x, y)
            acc = pt
            for n in range(2, 9):
                acc = add(curve, acc, pt)
                if divpoly.multiply_point(curve, pt, n) != acc:
                    failures += 1
        results["mult"] = {"trials": trials, "failures": failures}
    return config, results


_HANDLERS = {
    "census": _cmd_census,
    "small-points": _cmd_small_points,
    "heights": _cmd_heights,
    "gap-survey": _cmd_gap_survey,
    "divpoly-verify": _cmd_divpoly_verify,
    "code-bound": _cmd_code_bound,
    "optimize": _cmd_optimize,
    "verify-identities": _cmd_verify_identities,
}


def main() -> None:
    status, _ = run(sys.argv[1:])
    raise SystemExit(status)


if __name__ == "__main__":
    main()
