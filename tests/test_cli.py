import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from integral_census import divpoly, heights, optimizer, points, repulsion
from integral_census.cli import _canonical_json, build_parser, run
from integral_census.families import Family


def _run(argv, capsys):
    status, doc = run(argv)
    out = capsys.readouterr().out
    return status, doc, out


def test_cli_import_leaves_sympy_unloaded():
    # the package factors with its own _factorint; sympy stays a test-only oracle
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import integral_census.cli; "
        "assert 'sympy' not in sys.modules, 'sympy imported'"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_unknown_subcommand_exits_1(capsys):
    status, doc = run(["no-such-thing"])
    assert status == 1 and doc is None


def test_missing_required_args_exits_1(capsys):
    status, doc = run(["census"])  # neither --curve nor --family/--T
    assert status == 1 and doc is None


def test_single_curve_census(capsys):
    status, doc, out = _run(["census", "--curve", "0,-2", "--x-bound", "1000"], capsys)
    assert status == 0
    assert doc["results"]["points"] == [[3, -5], [3, 5]]
    parsed = json.loads(out)
    assert parsed == doc
    assert "content_hash" in parsed


def test_census_family_json_and_csv(tmp_path, capsys):
    out_json = tmp_path / "r.json"
    status, doc = run(
        ["census", "--family", "universal", "--T", "2", "--x-bound", "100",
         "--out", str(out_json)]
    )
    assert status == 0
    assert doc["results"]["curve_count"] == 14
    assert json.loads(out_json.read_text()) == doc

    out_csv = tmp_path / "r.csv"
    status2, _ = run(
        ["census", "--family", "universal", "--T", "2", "--x-bound", "100",
         "--format", "csv", "--out", str(out_csv)]
    )
    assert status2 == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "a,b,naive_height,integral_count"
    assert len(lines) == 15


def test_single_curve_census_rejects_csv(capsys):
    status, doc = run(["census", "--curve", "0,-2", "--x-bound", "10", "--format", "csv"])
    assert status == 1 and doc is None
    assert "--format csv needs --family" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--T", "2"],
        ["small-points", "--T", "2"],
        ["gap-survey", "--T", "2", "--x-bound", "10"],
    ],
)
def test_unknown_family_exits_1_listing_the_families(argv, capsys):
    status, doc = run(argv + ["--family", "nosuch"])
    assert status == 1 and doc is None
    err = capsys.readouterr().err
    assert "--family" in err and "nosuch" in err
    assert all(fam.value in err for fam in Family)


def test_bad_curve_spec_exits_1(capsys):
    status, doc = run(["census", "--curve", "nope", "--x-bound", "10"])
    assert status == 1 and doc is None


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--curve", "0,0"],
        ["heights", "--curve", "0,0", "--point", "1,1"],
    ],
)
def test_singular_curve_exits_1(argv, capsys):
    status, doc = run(argv)
    assert status == 1 and doc is None
    assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--curve", "0,-2"],
        ["census", "--family", "mordell", "--T", "3"],
        ["gap-survey", "--family", "mordell", "--T", "3", "--restrict-filtered"],
        ["verify-identities", "--check", "mod3", "--coeff-bound", "2"],
    ],
)
def test_zero_x_bound_exits_1(argv, capsys):
    status, doc = run(argv + ["--x-bound", "0"])
    assert status == 1 and doc is None
    assert "--x-bound must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("T", [None, "inf", "nan", "-inf", "0.5", "-2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--family", "universal", "--x-bound", "10"],
        ["small-points", "--family", "universal"],
        ["gap-survey", "--family", "universal", "--x-bound", "10", "--restrict-filtered"],
    ],
)
def test_bad_T_exits_1(argv, T, capsys):
    status, doc = run(argv + ([] if T is None else [f"--T={T}"]))
    assert status == 1 and doc is None
    err = capsys.readouterr().err
    assert "--T required" in err if T is None else "--T must be finite and >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--family", "universal", "--x-bound", "10"],
        ["small-points", "--family", "universal"],
        ["gap-survey", "--family", "universal", "--x-bound", "10", "--restrict-filtered"],
    ],
)
def test_T_past_int64_rows_exits_1(argv, capsys):
    status, doc = run(argv + ["--T", "1e7"])
    assert status == 1 and doc is None
    assert "does not fit int64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["small-points", "--family", "congruent", "--T", "1"],
        ["small-points", "--family", "b0", "--T", "1", "--exponent", "0"],
    ],
)
def test_small_points_on_an_empty_slice_exits_1(argv, capsys):
    assert run(argv) == (1, None)
    assert capsys.readouterr().err == "error: empty family slice\n"


def test_missing_config_file_exits_1(tmp_path, capsys):
    status, doc = run(["optimize", "--config", str(tmp_path / "absent.cfg")])
    assert status == 1 and doc is None
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_out_path_exits_1(tmp_path, capsys):
    out = tmp_path / "absent" / "x.json"
    status, doc = run(["census", "--curve", "0,-2", "--x-bound", "10", "--out", str(out)])
    assert status == 1 and doc is None
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_heights_subcommand(capsys):
    status, doc, _ = _run(
        ["heights", "--curve", "0,-2", "--point", "3,5"], capsys
    )
    assert status == 0
    res = doc["results"]
    assert res["weil"] == pytest.approx(1.0986122886681098)
    assert res["canonical"] == pytest.approx(
        sum(res["locals"].values()), abs=1e-8
    )


def test_heights_subcommand_computes_one_canonical_height(capsys, monkeypatch):
    from integral_census import heights

    calls = []
    original = heights.canonical_height

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(heights, "canonical_height", counting)
    status, doc, _ = _run(["heights", "--curve", "0,-2", "--point", "3,5"], capsys)
    assert status == 0 and len(calls) == 1
    # e = 1 and g = gcd(10, 27) = 1: no prime has a nonzero local height
    assert set(doc["results"]["locals"]) == {"infinity"}
    assert doc["content_hash"] == (
        "f9d7e8e188aaceb3310bab1d9d2f64806c8be14b2e1dcc9c72fff09db28596fe"
    )


def test_heights_on_a_model_not_minimal_at_2_exits_0(capsys):
    # the short model of 37a1: reaching a model minimal at 2 needs t != 0
    status, doc, _ = _run(["heights", "--curve", "-1296,11664", "--point", "0,108"], capsys)
    assert status == 0
    assert doc["results"]["canonical"] == 0.05111140823991884
    _, joined, _ = _run(["heights", "--curve=-1296,11664", "--point", "0,108"], capsys)
    assert joined == doc


@pytest.mark.parametrize(
    "argv, joined",
    [
        (["census", "--curve", "-2,-21", "--x-bound", "100"],
         ["census", "--curve=-2,-21", "--x-bound", "100"]),
        (["heights", "--curve", "405,16038", "--point", "-9,108"],
         ["heights", "--curve", "405,16038", "--point=-9,108"]),
    ],
)
def test_curve_and_point_values_may_begin_with_a_minus(argv, joined, capsys):
    status, doc, _ = _run(argv, capsys)
    assert status == 0
    assert _run(joined, capsys)[1] == doc


@pytest.mark.parametrize(
    "abbreviated, full",
    [
        (["heights", "--cur", "0,-2", "--point", "3,5"],
         ["heights", "--curve", "0,-2", "--point", "3,5"]),
        (["census", "--cur", "-2,-21", "--x-bound", "100"],
         ["census", "--curve", "-2,-21", "--x-bound", "100"]),
        (["heights", "--curve", "405,16038", "--poi", "-9,108"],
         ["heights", "--curve", "405,16038", "--point", "-9,108"]),
        (["census", "--curve", "0,-2", "--x-b", "100"],
         ["census", "--curve", "0,-2", "--x-bound", "100"]),
    ],
)
def test_abbreviated_options_exit_1(abbreviated, full, capsys):
    assert run(abbreviated) == (1, None)
    status, doc, _ = _run(full, capsys)
    assert status == 0 and doc is not None


def test_top_level_options_are_not_abbreviated(capsys):
    assert run(["--hel"]) == (1, None)
    assert "unrecognized arguments: --hel" in capsys.readouterr().err


def test_heights_off_curve_point_exits_1(capsys):
    status, doc = run(["heights", "--curve", "0,-2", "--point", "3,6"])
    assert status == 1 and doc is None


def test_heights_zero_denominator_point_exits_1(capsys):
    status, doc = run(["heights", "--curve", "0,-2", "--point", "1/0,1"])
    assert status == 1 and doc is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1/0,1" in err


@pytest.mark.parametrize("point", ["3", "3,5,1", ""])
def test_heights_point_without_two_parts_exits_1(point, capsys):
    status, doc = run(["heights", "--curve", "0,-2", "--point", point])
    assert status == 1 and doc is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--point" in err


def test_code_bound_methods(capsys):
    theta = "1.0471975511965976"
    status, doc, _ = _run(["code-bound", "--r", "2", "--theta", theta], capsys)
    assert status == 0
    assert doc["results"]["method"] == "rp1" and doc["results"]["bound"] == 3
    status, doc, _ = _run(
        ["code-bound", "--r", "4", "--theta", theta, "--method", "lp"], capsys
    )
    assert status == 0 and doc["results"]["certified"]


def test_code_bound_lp_without_a_solution_exits_1_naming_its_status(capsys):
    # the degree-20 LP is infeasible at r = 16 and theta = 0.3175: it gives no bound
    status, doc = run(["code-bound", "--r", "16", "--theta", "0.3175", "--method", "lp"])
    assert status == 1 and doc is None
    err = capsys.readouterr().err
    assert err.startswith("error: the LP at r = 16, theta = 0.3175 gives no bound")
    assert "primal_status is Infeasible" in err


def test_code_bound_rp1_rejects_r_other_than_2(capsys):
    status, doc = run(["code-bound", "--r", "5", "--theta", "1.0", "--method", "rp1"])
    assert status == 1 and doc is None
    assert "--r must be 2" in capsys.readouterr().err


def test_code_bound_lp_config_records_degree_and_grid(capsys):
    argv = ["code-bound", "--r", "4", "--theta", "1.0", "--method", "lp"]
    _, default, _ = _run(argv, capsys)
    _, deg10, _ = _run(argv + ["--degree", "10"], capsys)
    _, deg20, _ = _run(argv + ["--degree", "20", "--grid-size", "400"], capsys)
    assert default["config"]["degree"] == 20 and default["config"]["grid_size"] == 400
    assert deg20 == default
    assert deg10["config"]["degree"] == 10
    assert deg10["results"]["bound"] != deg20["results"]["bound"]
    assert deg10["content_hash"] != deg20["content_hash"]


@pytest.mark.parametrize("degree", ["0", "1"])
def test_code_bound_lp_rejects_a_constant_polynomial(degree, capsys):
    # f = 1 is positive on [0, cos theta]: it certifies no bound
    argv = ["code-bound", "--theta", "0.5", "--method", "lp", "--r", "3", "--degree", degree]
    status, doc = run(argv)
    assert status == 1 and doc is None
    assert "2 <= degree <= 40" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, named",
    [(["--degree", "3"], "even degree"), (["--grid-size", "100001"], "grid_size must")],
)
def test_code_bound_lp_rejects_an_odd_degree_and_a_grid_past_its_bound(option, named, capsys):
    # degree 3 would solve the degree-2 LP and report degree 3
    argv = ["code-bound", "--theta", "1.0", "--method", "lp", "--r", "3"]
    status, doc = run(argv + option)
    assert status == 1 and doc is None
    assert named in capsys.readouterr().err


def test_code_bound_kl_leaves_out_the_r_it_ignores(capsys):
    argv = ["code-bound", "--theta", "1.0", "--method", "kl"]
    status, bare, _ = _run(argv, capsys)
    _, r3, _ = _run(argv + ["--r", "3"], capsys)
    _, r9, _ = _run(argv + ["--r", "9"], capsys)
    assert status == 0 and bare == r3
    assert "r" not in r3["config"] and "r" not in r3["results"]
    assert r3["content_hash"] == r9["content_hash"]


@pytest.mark.parametrize("method", ["best", "cap", "rp1", "lp"])
def test_code_bound_methods_that_read_r_require_it(method, capsys):
    status, doc = run(["code-bound", "--theta", "1.0", "--method", method])
    assert status == 1 and doc is None
    assert f"--method {method} requires --r" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["best", "cap", "rp1", "kl"])
@pytest.mark.parametrize("option", [["--degree", "10"], ["--grid-size", "800"]])
def test_code_bound_lp_options_with_other_method_exit_1(method, option, capsys):
    status, doc = run(["code-bound", "--r", "4", "--theta", "1.0", "--method", method] + option)
    assert status == 1 and doc is None
    assert "read only by --method lp" in capsys.readouterr().err


def test_optimize_minimalist(capsys):
    status, doc, _ = _run(["optimize", "--model", "minimalist"], capsys)
    assert status == 0
    assert doc["results"]["aggregate"] == pytest.approx(8 / 9, abs=1e-12)


def test_optimize_config_override(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("# comment\nD = 700.0\ns = 4\n")
    status, doc, _ = _run(
        ["optimize", "--model", "minimalist", "--config", str(cfg)], capsys
    )
    assert status == 0
    assert doc["config"]["D"] == 700.0 and doc["config"]["s"] == 4


@pytest.mark.parametrize(
    "line, search",
    [
        ("moment_caps = 3", False),
        ("moment_caps = [[3, 4.0], [5]]", False),
        ("floors = [0.2]", False),
        ('floors = {"rank0": "high"}', False),
        ("density = [8, 9]", False),
        ("density = 1/0", False),
        ("grid = 5", True),
        ('grid = {"c": 0.99}', True),
        ("D = [700.0]", False),
        ("Dd = 700", False),
        ('grid = {"c": [0.99]}', False),
        ("D = 700.0", True),
    ],
)
def test_optimize_config_bad_shape_exits_1(tmp_path, capsys, line, search):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(line + "\n")
    # the moments model reads every key, so the shape is what fails
    argv = ["optimize", "--model", "moments", "--config", str(cfg)]
    status, doc = run(argv + ["--search"] * search)
    assert status == 1 and doc is None
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "line, search, named",
    [
        ("c = 1", False, "c must"),
        ("c = true", False, "c must"),
        ("c = 1.5", False, "c must"),
        ("D = 1", False, "D must"),
        ("s = 3.7", False, "s must"),
        ("s = 0", False, "s must"),
        ("J = 2", False, "J must"),
        ('grid = {"s": [3.5]}', True, "s must"),
        ('grid = {"c": [0.99, 1.0]}', True, "c must"),
        ('grid = {"X": [1.0], "J": [1.25]}', True, "unknown grid keys ['X']"),
    ],
)
def test_optimize_config_outside_the_parameter_domain_exits_1(
    tmp_path, capsys, line, search, named
):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(line + "\n")
    argv = ["optimize", "--model", "minimalist", "--config", str(cfg)]
    status, doc = run(argv + ["--search"] * search)
    assert status == 1 and doc is None
    assert named in capsys.readouterr().err


def test_optimize_config_density_fraction(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("density = 2/3\n")
    status, doc, _ = _run(
        ["optimize", "--model", "minimalist", "--config", str(cfg)], capsys
    )
    assert status == 0
    assert doc["results"]["aggregate"] == pytest.approx(2 / 3, abs=1e-12)


@pytest.mark.parametrize("value, aggregate", [("-1", None), ("0", None), ("3", None), ("1", 1.0)])
def test_optimize_config_density_outside_0_1_exits_1(tmp_path, capsys, value, aggregate):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(f"density = {value}\n")
    status, doc = run(["optimize", "--model", "minimalist", "--config", str(cfg)])
    if aggregate is None:
        assert status == 1 and doc is None
        assert "density must be in (0, 1]" in capsys.readouterr().err
    else:
        assert status == 0
        assert doc["results"]["aggregate"] == pytest.approx(aggregate, abs=1e-12)


@pytest.mark.parametrize(
    "lines, key, recorded",
    [
        (["moment_caps = [[5, 6]]", "moment_caps = [[5, 6.0]]", "moment_caps = [[5.0, 6.0]]"],
         "moment_caps", [[5, 6.0]]),
        (['floors = {"rank0": 1}', 'floors = {"rank0": 1.0}'], "floors", {"rank0": 1.0}),
    ],
)
def test_optimize_config_spellings_of_one_model_share_a_hash(tmp_path, capsys, lines, key, recorded):
    cfg = tmp_path / "params.cfg"
    docs = []
    for line in lines:
        cfg.write_text(line + "\n")
        docs.append(_run(["optimize", "--model", "moments", "--config", str(cfg)], capsys)[1])
    assert all(doc["config"][key] == recorded for doc in docs)
    assert len({doc["content_hash"] for doc in docs}) == 1
    if key == "moment_caps":
        assert docs[0]["content_hash"] == (
            "d42ac8d045121471939881456c5715687f84020466e9f8e8cd7b9fdf3b6edc85"
        )


@pytest.mark.parametrize(
    "line, key, recorded",
    [
        ("density = 2/3", "density", "2/3"),
        ("floors = {\"rank0\": 0.25}", "floors", {"rank0": 0.25}),
        ("moment_caps = [[5, 6.0]]", "moment_caps", [[5, 6.0]]),
    ],
)
def test_optimize_config_records_given_model_overrides(tmp_path, capsys, line, key, recorded):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(line + "\n")
    argv = ["optimize", "--model", "moments"]
    _, plain, _ = _run(argv, capsys)
    _, given, _ = _run(argv + ["--config", str(cfg)], capsys)
    # a run without overrides keeps the config it always had
    assert set(plain["config"]) == {"subcommand", "model", "search", "c", "D", "s", "J"}
    assert given["config"] == {**plain["config"], key: recorded}
    assert given["content_hash"] != plain["content_hash"]


@pytest.mark.parametrize(
    "line, named",
    [
        ("moment_caps = [[0, 4.0]]", "moment_caps must"),
        ("moment_caps = [[-3, 4.0]]", "moment_caps must"),
        ("moment_caps = [[1, 4.0]]", "moment_caps must"),
        ("moment_caps = [[1e300, 4.0]]", "moment_caps must"),
        ('floors = {"rank0": -5}', "floors must"),
        # the tail series: a term at r = 219 still 4.2e-6, a divergent series,
        # and terms cap * b_r / 3^r that never decay
        ("J = 1.8", "tail_bound"),
        ("J = 1.9", "tail_bound"),
        ("moment_caps = [[3, 4.0]]", "tail_bound"),
    ],
)
def test_optimize_config_outside_the_model_domain_exits_1(tmp_path, capsys, line, named):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(line + "\n")
    status, doc = run(["optimize", "--model", "moments", "--config", str(cfg)])
    assert status == 1 and doc is None
    assert named in capsys.readouterr().err


# scipy gives both status 2: the first is a HiGHS model error (the moment row
# reaches 1e14^20 = 1e280) on caps and floors that a distribution meets
@pytest.mark.parametrize(
    "line, named",
    [
        ("moment_caps = [[1e14, 6.0]]", "the worst-case LP could not be solved: "
                                        "(HiGHS Status 2: Model error); its largest "
                                        "moment coefficient base^20 is 1e+280"),
        ('floors = {"rank0": 0.9, "rank1": 0.9}', "infeasible floor/cap combination: "
                                                  "The problem is infeasible."),
    ],
)
def test_optimize_tells_a_solver_error_from_an_infeasible_model(tmp_path, capsys, line, named):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(line + "\n")
    status, doc = run(["optimize", "--model", "moments", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert status == 1 and doc is None
    assert err.startswith(f"error: {named}")
    assert ("infeasible" in err) == ("floors" in line)


@pytest.mark.parametrize("line", ['floors = {"rank0": 0.9}', "moment_caps = [[2, 0.01]]"])
def test_optimize_minimalist_rejects_keys_it_does_not_read(tmp_path, capsys, line):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(line + "\n")
    status, doc = run(["optimize", "--model", "minimalist", "--config", str(cfg)])
    assert status == 1 and doc is None
    assert "does not read moment_caps or floors" in capsys.readouterr().err


def test_optimize_search_config_holds_only_what_the_search_reads(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "params.cfg"
    grid = {"c": [0.99], "D": [700.0], "s": [3], "J": [1.2]}
    cfg.write_text(f"grid = {json.dumps(grid)}\n")
    searched = []

    def one_point(model, given):
        # the config is under test, not the search: skip its 40 refinement rounds
        searched.append(given)
        return optimizer.aggregate_bound(model, optimizer.REFERENCE_PARAMS)

    monkeypatch.setattr(optimizer, "optimize", one_point)
    status, doc, _ = _run(
        ["optimize", "--model", "minimalist", "--search", "--config", str(cfg)], capsys
    )
    assert status == 0 and searched == [grid]
    assert doc["config"] == {
        "subcommand": "optimize", "model": "minimalist", "search": True, "grid": grid
    }


def test_optimize_search_hashes_the_grid_as_it_runs(tmp_path, capsys, monkeypatch):
    search = optimizer.optimize
    # the hash is under test, not the refinement: skip its 40 rounds
    monkeypatch.setattr(optimizer, "optimize", lambda model, grid: search(model, grid, 0))
    docs = []
    for value in ("700", "700.0"):
        cfg = tmp_path / "params.cfg"
        cfg.write_text(f'grid = {{"D": [{value}]}}\n')
        argv = ["optimize", "--model", "minimalist", "--search", "--config", str(cfg)]
        docs.append(_run(argv, capsys)[1])
    assert docs[0]["content_hash"] == docs[1]["content_hash"]
    assert docs[0]["config"]["grid"] == {"c": [0.998114], "D": [700.0], "s": [3], "J": [1.2]}
    assert [type(doc["results"]["params"]["D"]) for doc in docs] == [float, float]


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_verify_identities_rejects_an_empty_grid(bound, capsys):
    status, doc = run(["verify-identities", "--check", "mod3", "--coeff-bound", bound])
    assert status == 1 and doc is None
    assert "--coeff-bound must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["triple-root", "mult"])
def test_verify_identities_hashes_only_the_options_a_check_reads(check, capsys):
    docs = [
        _run(["verify-identities", "--check", check, *opts], capsys)[1]
        for opts in ([], ["--coeff-bound", "5"], ["--coeff-bound", "30", "--x-bound", "50"])
    ]
    assert docs[0]["config"] == {"subcommand": "verify-identities", "check": check}
    assert docs[0] == docs[1] == docs[2]


def test_verify_identities_mod3_small(capsys):
    status, doc, _ = _run(
        ["verify-identities", "--check", "mod3", "--coeff-bound", "8",
         "--x-bound", "500"], capsys
    )
    assert status == 0
    assert doc["results"]["mod3"]["all_empty"]


# (content_hash, sha256 of the printed JSON), frozen from the inline
# a % 3 == 2 and b % 3 == 2 filter that points.mod3_obstruction replaced
_MOD3_FROZEN = {
    ("--coeff-bound", "8", "--x-bound", "500"): (
        "5ca078d45d02998ca18ce5d618dae2570c73b18c3f61513d6fc7142f3364a07f",
        "6a55957e12d9587606a7ace8c0f04d7e9ebe83de7562936b015adbd5f60b3d50",
    ),
    ("--coeff-bound", "30", "--x-bound", "200"): (
        "f30ea455f0eb1469eb0eb313138db6f4578f3099d672a8403a7076239ac780ce",
        "1d6c5518b38eea0b7ab74bd169db448090273be57b967b6dcfeaa52776671ca3",
    ),
}


@pytest.mark.parametrize("opts", sorted(_MOD3_FROZEN))
def test_verify_identities_mod3_output_frozen(opts, capsys, monkeypatch):
    checked = []
    obstruction = points.mod3_obstruction

    def recording(curve):
        checked.append(curve)
        return obstruction(curve)

    monkeypatch.setattr(points, "mod3_obstruction", recording)
    status, doc, out = _run(["verify-identities", "--check", "mod3", *opts], capsys)
    assert status == 0
    bound = int(opts[1])
    assert len(checked) == (2 * bound + 1) ** 2
    assert (doc["content_hash"], hashlib.sha256(out.encode()).hexdigest()) == _MOD3_FROZEN[opts]


def test_verify_identities_mod3_scans_the_grid_at_once(capsys, scan_calls):
    status, doc, _ = _run(
        ["verify-identities", "--check", "mod3", "--coeff-bound", "8", "--x-bound", "500"], capsys
    )
    assert status == 0 and doc["results"]["mod3"]["curves_checked"] > 1
    assert scan_calls == ["scan_curves"]


# the census configs of the benchmark, with the content_hash it holds them to
_CENSUS_FROZEN = {
    ("--family", "universal", "--T", "4", "--x-bound", "3000"):
        "b9dd1df4410e3b5ded81d7a1825dc3f695471bc5c23e6e731172ffc626f5b8c3",
    ("--curve", "0,-2", "--x-bound", "2000000"):
        "51e662f40b8f9e752955b8b9de682f1f44f248219825e4d93ca1380c5fcbb2e8",
}


@pytest.mark.parametrize("opts", sorted(_CENSUS_FROZEN))
def test_census_output_frozen(opts, capsys):
    status, doc, _ = _run(["census", *opts], capsys)
    assert status == 0 and doc["content_hash"] == _CENSUS_FROZEN[opts]


def test_divpoly_verify(capsys):
    status, doc, _ = _run(["divpoly-verify", "--n-max", "10"], capsys)
    assert status == 0
    res = doc["results"]
    assert res["homogeneous"] and res["leading_ok"]
    assert res["coeff_growth"]["all_within"]


def _bad_weight(poly):
    return dataclasses.replace(poly, xpart_weight=poly.xpart_weight + 1)


def _negative_x_exponent(poly):
    # (f_A, f_B) = (w, 0) implies f_x = w - 2w < 0
    return dataclasses.replace(poly, xterms={**poly.xterms, (poly.xpart_weight, 0): 1})


@pytest.mark.parametrize("damage", [_bad_weight, _negative_x_exponent])
def test_divpoly_verify_homogeneity_can_fail(damage, monkeypatch, capsys):
    real = divpoly.psi

    def psi(n):
        poly = real(n)
        return damage(poly) if n == 5 else poly

    monkeypatch.setattr(divpoly, "psi", psi)
    status, doc, _ = _run(["divpoly-verify", "--n-max", "6"], capsys)
    assert status == 0
    assert doc["results"]["homogeneous"] is False


def test_divpoly_verify_catches_one_wrong_coefficient(monkeypatch, capsys):
    real = divpoly.psi

    def psi(n):
        poly = real(n)
        if n != 7:
            return poly
        # +1 on the coefficient of x^21 B: the weights and the two leading
        # coefficients stay right
        return dataclasses.replace(poly, xterms={**poly.xterms, (0, 1): poly.xterms[0, 1] + 1})

    monkeypatch.setattr(divpoly, "psi", psi)
    status, doc, _ = _run(["divpoly-verify", "--n-max", "8"], capsys)
    assert status == 0
    assert doc["results"]["homogeneous"] is True
    assert doc["results"]["leading_ok"] is False


@pytest.mark.parametrize("n_max", ["1", "0", "-3"])
def test_divpoly_verify_empty_range_exits_1(n_max, capsys):
    status, doc = run(["divpoly-verify", "--n-max", n_max])
    assert status == 1 and doc is None
    assert capsys.readouterr().err.startswith("error: ")


def test_divpoly_verify_rejects_n_max_above_limit_without_building_psi(monkeypatch, capsys):
    def psi(n):
        raise AssertionError("psi called")

    monkeypatch.setattr(divpoly, "psi", psi)
    status, doc = run(["divpoly-verify", "--n-max", str(divpoly.PSI_N_MAX + 1)])
    assert status == 1 and doc is None
    assert capsys.readouterr().err.startswith("error: --n-max must lie in [2, 32]")


def test_gap_survey_json(capsys):
    status, doc, _ = _run(
        ["gap-survey", "--family", "mordell", "--T", "3", "--x-bound", "200"],
        capsys,
    )
    assert status == 0
    assert doc["results"]["pair_count"] >= 0
    assert doc["config"]["min_height"] == 0.0


@pytest.mark.parametrize("restricted", [[], ["--restrict-filtered"]])
@pytest.mark.parametrize("delta", ["7", "1", "0", "-0.5", "nan"])
def test_gap_survey_bad_delta_exits_1(delta, restricted, capsys):
    status, doc = run(
        ["gap-survey", "--family", "mordell", "--T", "3", "--x-bound", "100",
         "--delta", delta, "--min-height", "auto"] + restricted
    )
    assert status == 1 and doc is None
    assert "--delta must lie in (0, 1)" in capsys.readouterr().err


def test_gap_survey_hashes_a_precision_off_the_default(capsys):
    argv = ["gap-survey", "--family", "mordell", "--T", "4", "--x-bound", "500"]
    default = _run(argv, capsys)[1]
    coarse = _run(argv + ["--precision", "1e-4"], capsys)[1]
    assert "precision" not in default["config"]
    assert _run(argv + ["--precision", "1e-10"], capsys)[1] == default
    # the two precisions give different max_excess bits, so they must differ in config
    assert coarse["results"] != default["results"]
    assert coarse["config"] == {**default["config"], "precision": 1e-4}
    assert coarse["content_hash"] != default["content_hash"]


_GAP = ["gap-survey", "--family", "universal", "--T", "2", "--x-bound", "50", "--restrict-filtered"]
# (argv, the text the error must contain) for values outside each option's rule;
# nan and inf in an int option are argparse's to reject
_OUT_OF_RULE = [
    *[
        ([*cmd, f"--T={v}"], "--T")
        for cmd in (["census", "--family", "mordell"], ["small-points", "--family", "mordell"], _GAP)
        for v in ("nan", "inf", "0.5")
    ],
    *[
        ([*cmd, f"--x-bound={v}"], "--x-bound")
        for cmd in (["census", "--curve", "0,-2"], _GAP, ["verify-identities", "--check", "mod3"])
        for v in ("nan", "inf", "0", "-3")
    ],
    *[([*_GAP, f"--delta={v}"], "--delta") for v in ("nan", "inf", "0", "1")],
    *[
        ([*cmd, f"--precision={v}"], "--precision")
        for cmd in (_GAP, ["heights", "--curve", "0,-2", "--point", "3,5"])
        for v in ("nan", "inf", "5", "0")
    ],
    *[([*_GAP, f"--min-height={v}"], "--min-height") for v in ("nan", "inf", "-inf", "high")],
    *[(["divpoly-verify", f"--n-max={v}"], "--n-max") for v in ("nan", "inf", "1", "33")],
    *[(["verify-identities", f"--coeff-bound={v}"], "--coeff-bound") for v in ("nan", "inf", "0")],
    *[
        (["divpoly-verify", "--n-max", "4", f"--{k.lower()}={v}"], f"{k}={float(v)}")
        for k, values in (("K1", ("nan", "inf", "1")), ("K2", ("nan", "inf", "-1")),
                          ("K3", ("nan", "inf", "1")))
        for v in values
    ],
]
# every library entry point a handler reaches
_ENTRY_POINTS = [
    (points, "census"), (points, "integral_points"), (points, "small_point_statistics"),
    (points, "_points_per_curve"), (heights, "canonical_height"),
    (repulsion, "repulsion_survey"), (divpoly, "psi"), (divpoly, "verify_coeff_growth"),
    (divpoly, "triple_root_identity_check"), (divpoly, "multiply_point"),
]


@pytest.mark.parametrize(
    "argv, named", _OUT_OF_RULE, ids=[" ".join(argv) for argv, _ in _OUT_OF_RULE]
)
def test_value_outside_its_rule_exits_1_before_any_work(argv, named, monkeypatch, capsys):
    def unreached(*args, **kwargs):
        raise AssertionError("a library entry point was reached")

    for module, name in _ENTRY_POINTS:
        # the K1-K3 rule is verify_coeff_growth's own, checked before any psi_n
        if not (named.startswith("K") and name == "verify_coeff_growth"):
            monkeypatch.setattr(module, name, unreached)
    status, doc = run(argv)
    assert status == 1 and doc is None
    assert named in capsys.readouterr().err


def test_content_hash_excludes_runtime_fields(tmp_path, capsys):
    argv = ["census", "--family", "mordell", "--T", "3", "--x-bound", "100"]
    _, doc1, _ = _run(argv, capsys)
    _, doc2, _ = _run(argv + ["--out", str(tmp_path / "r.json")], capsys)
    assert _canonical_json(doc1) == _canonical_json(doc2)


# benchmark configs of three subcommands, with the content_hash it holds them to
_REPORT_FROZEN = {
    ("gap-survey", "--family", "universal", "--T", "2.5", "--x-bound", "1000",
     "--min-height", "0.5"):
        "223d06682f5dc2b328c08abd5866246c2628bf2362e41461ff81f6e340f4766f",
    ("divpoly-verify", "--n-max", "18"):
        "4c69963c77e67ad9c7531313d833990aad40d119a53727ca5068937bae0b50cd",
    ("optimize", "--model", "minimalist"):
        "79b90b99a3cc220c198375c95e157a3846fbf0fad9779ea69fb401bd3ef3f72d",
    ("optimize", "--model", "moments"):
        "de0262170447853327e5f7ed3cd1c4c2b95e36c46547b5f6bbd03167d4f9697c",
}


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--family", "universal", "--T", "2.5", "--x-bound", "100"),
        ("census", "--curve", "0,-2", "--x-bound", "1000"),
        *sorted(_REPORT_FROZEN),
    ],
)
def test_emitted_text_is_the_canonical_json_of_the_report(argv, capsys):
    status, doc, out = _run(list(argv), capsys)
    assert status == 0
    assert out == _canonical_json(doc) + "\n"
    body = _canonical_json({"config": doc["config"], "results": doc["results"]})
    assert doc["content_hash"] == hashlib.sha256(body.encode()).hexdigest()
    assert doc["content_hash"] == _REPORT_FROZEN.get(argv, doc["content_hash"])


def test_a_search_leaves_the_frozen_moments_report_as_it_was(
    tmp_path, capsys, monkeypatch, cold_memos
):
    cfg = tmp_path / "point.cfg"
    cfg.write_text('grid = {"c": [0.998114], "D": [612.117], "s": [3], "J": [1.2]}\n')
    status, searched, _ = _run(["optimize", "--model", "moments", "--search", "--config", str(cfg)],
                               capsys)
    assert status == 0
    # the search's first point is the reference point: its worst cases are memoized
    solves = []
    monkeypatch.setattr(optimizer, "linprog", lambda *args, **kwargs: solves.append(args))
    argv = ("optimize", "--model", "moments")
    status, doc, _ = _run(list(argv), capsys)
    assert status == 0 and solves == []
    assert doc["content_hash"] == _REPORT_FROZEN[argv]
    assert searched["results"]["aggregate"] <= doc["results"]["aggregate"]


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ["census", "gap-survey", "optimize", "verify-identities"]:
        assert name in text


# a cheap valid run of each subcommand
_BASE_ARGV = {
    "census": ["census", "--family", "mordell", "--T", "2", "--x-bound", "10"],
    "small-points": ["small-points", "--family", "mordell", "--T", "2"],
    "heights": ["heights", "--curve", "0,-2", "--point", "3,5"],
    "gap-survey": ["gap-survey", "--family", "mordell", "--T", "2", "--x-bound", "10"],
    "divpoly-verify": ["divpoly-verify", "--n-max", "2"],
    "code-bound": ["code-bound", "--r", "2", "--theta", "1.0", "--method", "rp1"],
    "optimize": ["optimize", "--model", "minimalist"],
    "verify-identities": ["verify-identities", "--check", "mod3", "--coeff-bound", "2"],
}
_VALUE = {
    "--family": "mordell",
    "--T": "2",
    "--x-bound": "10",
    "--delta": "0.1",
    "--precision": "1e-10",
    "--format": "json",
    "--threads": "1",
}
# every (subcommand, option) pair that the subcommand does not read
_UNREAD = [
    ("census", "--delta"),
    ("census", "--precision"),
    *[("small-points", o) for o in ("--x-bound", "--delta", "--precision", "--format")],
    *[("heights", o) for o in ("--family", "--T", "--x-bound", "--delta", "--format")],
    ("gap-survey", "--format"),
    *[(cmd, o) for cmd in ("divpoly-verify", "code-bound", "optimize") for o in _VALUE],
    *[("verify-identities", o) for o in ("--family", "--T", "--delta", "--precision", "--format")],
    # no subcommand reads a thread count (the three above take it from _VALUE)
    *[
        (cmd, "--threads")
        for cmd in ("census", "small-points", "heights", "gap-survey", "verify-identities")
    ],
]


@pytest.mark.parametrize("subcommand, option", _UNREAD)
def test_subcommand_rejects_option_it_does_not_read(subcommand, option, capsys):
    status, doc = run(_BASE_ARGV[subcommand] + [option, _VALUE[option]])
    assert status == 1 and doc is None
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_cli_runs_leave_scipy_unloaded():
    # codes and optimizer load scipy; only code-bound and optimize read them
    src = str(Path(__file__).resolve().parent.parent / "src")
    argvs = [
        argv for name, argv in sorted(_BASE_ARGV.items()) if name not in ("code-bound", "optimize")
    ]
    argvs.append(["verify-identities", "--check", "all", "--coeff-bound", "2"])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from integral_census.cli import run\n"
        f"for argv in {argvs!r}: assert run(argv)[0] == 0, argv\n"
        "assert 'scipy' not in sys.modules, 'scipy imported'"
    )
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("subcommand", sorted(_BASE_ARGV))
def test_out_accepted_by_every_subcommand(subcommand, tmp_path, capsys):
    out = tmp_path / "r.json"
    status, doc = run(_BASE_ARGV[subcommand] + ["--out", str(out)])
    assert status == 0
    assert json.loads(out.read_text()) == doc


def test_cli_declares_41_options():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert sorted(subparsers) == sorted(_BASE_ARGV)
    declared = {
        (name, opt)
        for name, p in subparsers.items()
        for action in p._actions
        if not isinstance(action, argparse._HelpAction)
        for opt in action.option_strings
        if opt.startswith("--")
    }
    assert len(declared) == 41 and len(_UNREAD) == 43
    assert not declared & set(_UNREAD)
