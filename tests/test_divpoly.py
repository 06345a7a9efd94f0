import pickle
import random
from fractions import Fraction

import pytest

from integral_census import cli, divpoly
from integral_census.divpoly import (
    multiply_point,
    psi,
    triple_root_identity_check,
    verify_coeff_growth,
)
from integral_census.families import CurveModel
from integral_census.points import CurvePoint, Identity, add


def _flat(rows):
    """rows as one map (f_x, f_A, f_B) -> coefficient."""
    return {(m, fa, fb): c for m, row in enumerate(rows) for (fa, fb), c in row.items()}


def _schoolbook(p, q):
    """Reference product of two maps (f_x, f_A, f_B) -> coefficient: the
    double loop over monomials, sharing no code with the package."""
    out = {}
    for (x1, a1, b1), c1 in p.items():
        for (x2, a2, b2), c2 in q.items():
            k = (x1 + x2, a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


# x^3 + A x + B as rows
_CURVE = ({(0, 1): 1}, {(1, 0): 1}, {}, {(0, 0): 1})
_WMUL_CASES = {
    "empty_factor": ((), ({(0, 0): 3}, {(1, 2): -7})),
    # (x + A)(x - A) = x^2 - A^2: the middle row cancels to empty
    "cancelled_row": (({(1, 0): 1}, {(0, 0): 1}), ({(1, 0): -1}, {(0, 0): 1})),
    # rows of different lengths, with an empty middle row
    "ragged": (
        ({(0, 4): 3, (2, 0): -1}, {}, {(3, 1): 5, (0, 0): 2}),
        ({(1, 2): -7}, {(0, 0): 2, (3, 5): 1, (0, 6): -2**200}),
    ),
    "psi3_squared": (divpoly._BASE[3][1], divpoly._BASE[3][1]),
    "curve_times_psi4": (_CURVE, divpoly._BASE[4][1]),
}


def _graded(t):
    """A map (f_A, f_B) -> coefficient as rows, the term A^f_A B^f_B in row
    f_A + f_B: a grading, so products of rows are products of the maps."""
    rows = [{} for _ in range(max((fa + fb + 1 for fa, fb in t), default=0))]
    for (fa, fb), c in t.items():
        rows[fa + fb][fa, fb] = c
    return tuple(rows)


def _graded_cases():
    rng = random.Random(5)
    edge = [2 ** (8 * k) - 1 for k in (1, 2, 3)]
    yield {}, {(0, 0): 3}
    yield {(1, 2): -7}, {}
    yield {(0, 0): 1}, {(0, 0): -1}
    yield {(2, 1): -5}, {(0, 3): 4}
    for e in edge:
        # coefficients at 2^(8k) - 1, of both signs, with cancellation
        yield {(0, 0): e, (1, 0): -e, (0, 1): e}, {(0, 0): -e, (0, 2): e}
        yield {(0, 0): e + 1, (3, 1): -(e + 1)}, {(1, 1): e, (0, 0): -1}
        yield {(0, 0): e, (1, 0): e}, {(0, 0): e, (1, 0): -e}  # middle term cancels
    for k in (1, 2, 3):
        # a product coefficient at +-(2^(8k-1) - 1), and one past it
        for c in (2 ** (8 * k - 1) - 1, 2 ** (8 * k - 1)):
            yield {(0, 0): c}, {(0, 0): 1}
            yield {(2, 0): 1}, {(0, 3): -c}
        # every term meets at (1, 1)
        m = 2 ** (4 * k) - 1
        yield {(1, 0): m, (0, 1): m}, {(0, 1): m, (1, 0): m}
        yield {(1, 0): -m, (0, 1): -m}, {(0, 1): m, (1, 0): m}
    # ragged supports: rows of different lengths, an empty middle row, a
    # nonzero coefficient at the end of every row
    yield {(0, 4): 3, (2, 0): -1, (3, 1): 5}, {(0, 0): 2, (1, 2): -7, (3, 5): 1}
    yield {(0, 0): 1, (0, 6): -2, (1, 1): 4, (4, 2): 9}, {(0, 1): -1, (2, 0): 3}
    # one term a row; the cross terms cancel
    yield {(0, 3): 1, (2, 3): 1}, {(0, 3): 1, (2, 3): -1}
    yield {(0, 0): -1, (5, 4): 2}, {(0, 5): 1, (1, 0): -3, (4, 2): 6}
    big = 2**200 + 1
    yield {(0, 2): big, (1, 0): -big, (3, 7): big}, {(0, 0): -big, (2, 3): big}
    for _ in range(40):
        t = [
            {
                (rng.randint(0, 6), rng.randint(0, 5)): rng.choice([-1, 1]) * rng.choice(
                    [rng.randint(1, 9), rng.choice(edge), rng.randint(1, 10**40)]
                )
                for _ in range(rng.randint(1, 12))
            }
            for _ in range(2)
        ]
        yield t[0], t[1]


@pytest.mark.parametrize(
    "t1, t2",
    [(_graded(t1), _graded(t2)) for t1, t2 in _graded_cases()]
    + [pytest.param(*case, id=name) for name, case in _WMUL_CASES.items()],
)
def test_wmul_matches_schoolbook(t1, t2):
    for r1, r2 in ((t1, t2), (t1, t1)):
        product = divpoly._wmul(r1, r2)
        assert _flat(product) == _schoolbook(_flat(r1), _flat(r2))
        if r1 and r2:
            assert len(product) == len(r1) + len(r2) - 1


def test_wmul_keeps_a_cancelled_row_as_an_empty_row():
    assert divpoly._wmul(*_WMUL_CASES["cancelled_row"]) == ({(2, 0): -1}, {}, {(0, 0): 1})


# (x^3 + A x + B)^2 = y^4
_CURVE2 = _schoolbook(_flat(_CURVE), _flat(_CURVE))
_ORACLE: dict[int, tuple[int, dict]] = {}
_POWERS: dict[tuple[int, int], dict] = {}


def _oracle(n):
    """psi_n as (y_factor, {(f_x, f_A, f_B): coefficient}), by the product
    recursion

        psi_(2m+1) = psi_(m+2) psi_m^3 - psi_(m-1) psi_(m+1)^3,
        2y psi_(2m) = psi_m (psi_(m+2) psi_(m-1)^2 - psi_(m-2) psi_(m+1)^2)

    on the y-free parts, with y^4 = (x^3 + A x + B)^2 and every product
    taken by _schoolbook, which shares no code with the package; psi_0 ...
    psi_4 are the closed forms."""
    if n in divpoly._BASE:
        y_factor, rows = divpoly._BASE[n]
        return y_factor, _flat(rows)
    if n not in _ORACLE:
        mul = _schoolbook

        def part(k):
            return _oracle(k)[1]

        def minus(p, q):
            out = dict(p)
            for key, c in q.items():
                out[key] = out.get(key, 0) - c
            return {key: c for key, c in out.items() if c}

        m = n // 2
        if n % 2:
            lin_a, lin_b = part(m + 2), part(m - 1)
            # the even pair of psi_m, psi_(m+2) or psi_(m-1), psi_(m+1)
            # carries y^4, taken into its linear factor
            if m % 2 == 0:
                lin_a = mul(_CURVE2, lin_a)
            else:
                lin_b = mul(_CURVE2, lin_b)
            cube_m, cube_p = _power(m, 3), _power(m + 1, 3)
            _ORACLE[n] = (0, minus(mul(lin_a, cube_m), mul(lin_b, cube_p)))
        else:
            sq_m, sq_p = _power(m - 1, 2), _power(m + 1, 2)
            t = mul(part(m), minus(mul(part(m + 2), sq_m), mul(part(m - 2), sq_p)))
            assert all(c % 2 == 0 for c in t.values())
            _ORACLE[n] = (1, {key: c // 2 for key, c in t.items()})
    return _ORACLE[n]


def _power(k, e):
    """The y-free part of psi_k squared (e = 2) or cubed (e = 3): the
    recursion reads each about twice, and they are built once."""
    if (k, e) not in _POWERS:
        part = _oracle(k)[1]
        _POWERS[k, e] = _schoolbook(part, part if e == 2 else _power(k, 2))
    return _POWERS[k, e]


def test_psi_matches_product_recursion():
    for n in range(1, 25):
        poly = psi(n)
        assert (poly.y_factor, _flat(poly.rows)) == _oracle(n), n


def test_base_cases_match_closed_forms():
    p3 = psi(3)
    assert _flat(p3.rows) == {(4, 0, 0): 3, (2, 1, 0): 6, (1, 0, 1): 12, (0, 2, 0): -1}
    assert p3.y_factor == 0
    p2 = psi(2)
    assert p2.y_factor == 1 and _flat(p2.rows) == {(0, 0, 0): 2}
    p4 = psi(4)
    assert (p4.y_factor, p4.rows) == divpoly._BASE[4]


def test_inexact_division_raises_and_exits_2(monkeypatch, capsys):
    # a remainder from every division stands in for a wrong constant
    monkeypatch.setattr(divpoly, "_psi_cache", {})
    monkeypatch.setattr(divpoly, "divmod", lambda v, s: (v // s, 1), raising=False)
    with pytest.raises(ArithmeticError, match="not integral"):
        psi(5)
    assert cli.run(["divpoly-verify", "--n-max", "5"]) == (2, None)
    assert capsys.readouterr().err.startswith("computation failed: psi_")


@pytest.mark.parametrize("n", range(1, 17))
def test_weighted_homogeneity_and_leading_coeff(n):
    poly = psi(n)
    total = Fraction(n * n - 1, 2)
    for (fx, fa, fb) in _flat(poly.rows):
        assert fx + 2 * fa + 3 * fb + Fraction(3, 2) * poly.y_factor == total
    # the top row is n x^d, with d the x-degree of the y-stripped part
    expected = (n * n - 1) // 2 if n % 2 else (n * n - 4) // 2
    assert len(poly.rows) - 1 == expected
    assert poly.rows[-1] == {(0, 0): n}


def test_no_two_terms_share_a_weight_and_an_absolute_coefficient():
    # verify_coeff_growth keeps the first of equal worst ratios: with no such
    # pair in any psi_n, its witness does not depend on the order of the terms
    for n in range(2, divpoly.PSI_N_MAX + 1):
        seen = [(2 * fa + 3 * fb, abs(c)) for row in psi(n).rows for (fa, fb), c in row.items()]
        assert len(set(seen)) == len(seen), n


def psi_value(curve: CurveModel, p: CurvePoint, n: int) -> Fraction:
    """psi_n at an affine point, exact: the recursion multiply_point uses."""
    return divpoly._psi_val(n, p.x, p.y, curve.a, curve.b, {})


@pytest.mark.parametrize("n", [17, 24, 31, 32])
def test_homogeneity_numeric_scaling(n):
    # psi_n(l^2 a, l^3 b; l x, l^(3/2) y) = l^((n^2-1)/2) psi_n(a, b; x, y);
    # l = 4 keeps the half-integer y-weight integral
    curve = CurveModel(-7, 10)
    p = CurvePoint.affine(1, 2)
    scaled_curve = CurveModel(-7 * 16, 10 * 64)
    sp = CurvePoint.affine(4, 16)
    lam = Fraction(2) ** (n * n - 1)  # 4^((n^2-1)/2)
    assert psi_value(scaled_curve, sp, n) == lam * psi_value(curve, p, n)


def test_psi_value_matches_symbolic():
    curve = CurveModel(-7, 10)
    p = CurvePoint.affine(1, 2)
    for n in range(1, 13):
        poly = psi(n)
        sym = sum(
            c * p.x**fx * Fraction(curve.a) ** fa * Fraction(curve.b) ** fb
            for (fx, fa, fb), c in _flat(poly.rows).items()
        ) * p.y**poly.y_factor
        assert psi_value(curve, p, n) == sym == poly.value(curve.a, curve.b, p.x, p.y)


def test_multiply_point_equals_iterated_addition():
    rng = random.Random(7)
    done = 0
    while done < 30:
        x, y, a = rng.randint(-9, 9), rng.randint(1, 9), rng.randint(-9, 9)
        b = y * y - x**3 - a * x
        curve = CurveModel(a, b)
        if curve.disc() == 0:
            continue
        done += 1
        p = CurvePoint.affine(x, y)
        acc = p
        for n in range(2, 9):
            acc = add(curve, acc, p)
            assert multiply_point(curve, p, n) == acc


def test_multiply_point_torsion():
    # (2, 3) on y^2 = x^3 + 1 has order 6
    curve = CurveModel(0, 1)
    p = CurvePoint.affine(2, 3)
    assert multiply_point(curve, p, 2) == CurvePoint.affine(0, 1)
    assert multiply_point(curve, p, 3) == CurvePoint.affine(-1, 0)
    assert multiply_point(curve, p, 6) == Identity
    assert psi_value(curve, p, 6) == 0
    assert psi_value(curve, p, 5) != 0
    # 2-torsion short-circuit
    t = CurvePoint.affine(-1, 0)
    assert multiply_point(curve, t, 2) == Identity
    assert multiply_point(curve, t, 3) == t


def test_coeff_growth_envelope():
    res = verify_coeff_growth(16, 1e10, 1.0, 1e6)
    assert res["all_within"]
    assert res["worst_ratio"] <= 1.0
    # constants too small to hold get caught
    bad = verify_coeff_growth(16, 1.01, 0.0, 1.01)
    assert not bad["all_within"]
    with pytest.raises(ValueError):
        verify_coeff_growth(8, 0.5, 1.0, 2.0)
    # below n = 2 there is nothing to check, which must not read as a pass
    for n_max in (1, 0):
        with pytest.raises(ValueError):
            verify_coeff_growth(n_max, 1e10, 1.0, 1e6)


def test_triple_root_identity():
    curve = CurveModel(1, 6)
    assert triple_root_identity_check(curve, CurvePoint.affine(3, 6), 50)
    curve2 = CurveModel(-7, 10)
    assert triple_root_identity_check(curve2, CurvePoint.affine(1, 2), 50)


@pytest.mark.parametrize("weight", [8, 9], ids=["psi3_squared", "curve_times_psi4"])
def test_triple_root_identity_fails_on_one_wrong_product_coefficient(weight, monkeypatch):
    # +1 on the A coefficient, in the x^(weight - 2) row, of one of the
    # check's two products: the polynomial stays monic of degree 9, so the
    # sampled values must catch it
    product = divpoly._wmul

    def off_by_one(*factors):
        rows = list(product(*factors))
        if len(rows) == weight + 1:
            rows[-3] = {**rows[-3], (1, 0): rows[-3].get((1, 0), 0) + 1}
        return tuple(rows)

    monkeypatch.setattr(divpoly, "_wmul", off_by_one)
    assert not triple_root_identity_check(CurveModel(1, 6), CurvePoint.affine(3, 6), 100)
    status, doc = cli.run(["verify-identities", "--check", "triple-root"])
    assert status == 0 and doc["results"] == {"triple_root": {"holds": False}}


def test_psi_never_reads_or_writes_a_cache_directory(tmp_path, monkeypatch):
    # psi_9 pickled with wrong terms, in the on-disk format that older
    # versions loaded from the directory INTEGRAL_CENSUS_CACHE named: psi
    # builds psi_9 by the recursion and leaves the directory as it was
    planted = divpoly.DivPoly(9, 0, ({(0, 0): 1},))
    blob = pickle.dumps(("integral-census psi cache v2", planted))
    (tmp_path / "psi_9.pkl").write_bytes(blob)
    monkeypatch.setenv("INTEGRAL_CENSUS_CACHE", str(tmp_path))
    monkeypatch.setattr(divpoly, "_psi_cache", {})
    got = psi(9)
    assert (got.y_factor, _flat(got.rows)) == _oracle(9) and got != planted
    assert [f.name for f in tmp_path.iterdir()] == ["psi_9.pkl"]
    assert (tmp_path / "psi_9.pkl").read_bytes() == blob


def test_psi_bounds():
    with pytest.raises(ValueError):
        psi(0)
    with pytest.raises(ValueError):
        psi(100)
    with pytest.raises(ValueError):
        multiply_point(CurveModel(0, 1), CurvePoint.affine(2, 3), 100)


def test_psi_stops_at_measured_limit():
    assert divpoly.PSI_N_MAX == 32
    with pytest.raises(ValueError, match="exceeds PSI_N_MAX"):
        psi(33)
    with pytest.raises(ValueError, match="n_max must lie in"):
        verify_coeff_growth(33, 1e10, 1.0, 1e6)
    # multiply_point builds no symbolic psi and keeps its own limit of 64
    with pytest.raises(ValueError):
        multiply_point(CurveModel(0, 1), CurvePoint.affine(2, 3), 65)
