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


def _schoolbook(w1, t1, w2, t2):
    """Reference product: the double loop over monomials."""
    out = {}
    for (a1, b1), c1 in t1.items():
        for (a2, b2), c2 in t2.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + c1 * c2
    return w1 + w2, {k: c for k, c in out.items() if c}


def _wmul_cases():
    rng = random.Random(5)
    edge = [2 ** (8 * k) - 1 for k in (1, 2, 3)]
    yield {}, {(0, 0): 3}
    yield {(1, 2): -7}, {}
    yield {(0, 0): 1}, {(0, 0): -1}
    yield {(2, 1): -5}, {(0, 3): 4}
    for e in edge:
        # coefficients filling a slot edge, of both signs, with cancellation
        yield {(0, 0): e, (1, 0): -e, (0, 1): e}, {(0, 0): -e, (0, 2): e}
        yield {(0, 0): e + 1, (3, 1): -(e + 1)}, {(1, 1): e, (0, 0): -1}
        yield {(0, 0): e, (1, 0): e}, {(0, 0): e, (1, 0): -e}  # middle term cancels
    for k in (1, 2, 3):
        # a product coefficient at +-(2^(8k-1) - 1) fills a k-byte slot with
        # its sign bit; one more needs a wider slot
        for c in (2 ** (8 * k - 1) - 1, 2 ** (8 * k - 1)):
            yield {(0, 0): c}, {(0, 0): 1}
            yield {(2, 0): 1}, {(0, 3): -c}
        # every term meets in slot (1, 1), at exactly the size bound
        m = 2 ** (4 * k) - 1
        yield {(1, 0): m, (0, 1): m}, {(0, 1): m, (1, 0): m}
        yield {(1, 0): -m, (0, 1): -m}, {(0, 1): m, (1, 0): m}
    # ragged supports: rows of different f_B length, an empty middle row,
    # a nonzero coefficient at the end of every row; the product's row f_A
    # ends at the most of e1 + e2 over i + j = f_A, which a shorter pair of
    # rows may not reach
    yield {(0, 4): 3, (2, 0): -1, (3, 1): 5}, {(0, 0): 2, (1, 2): -7, (3, 5): 1}
    yield {(0, 0): 1, (0, 6): -2, (1, 1): 4, (4, 2): 9}, {(0, 1): -1, (2, 0): 3}
    yield {(0, 3): 1, (2, 3): 1}, {(0, 3): 1, (2, 3): -1}  # every row is one slot
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


@pytest.mark.parametrize("t1, t2", list(_wmul_cases()))
def test_wmul_matches_schoolbook(t1, t2):
    assert divpoly._wmul(7, t1, 4, t2) == _schoolbook(7, t1, 4, t2)
    assert divpoly._wmul(7, t1, 7, t1) == _schoolbook(7, t1, 7, t1)


# (x^3 + A x + B)^2 = y^4, weight 6
_CURVE2 = (6, {(0, 0): 1, (0, 1): 2, (0, 2): 1, (1, 0): 2, (1, 1): 2, (2, 0): 1})
_ORACLE: dict[int, tuple[int, int, dict]] = {}


def _oracle(n):
    """psi_n as (y_factor, xpart_weight, xterms), by the product recursion

        psi_(2m+1) = psi_(m+2) psi_m^3 - psi_(m-1) psi_(m+1)^3,
        2y psi_(2m) = psi_m (psi_(m+2) psi_(m-1)^2 - psi_(m-2) psi_(m+1)^2)

    on the y-free parts, with y^4 = (x^3 + A x + B)^2 and every product
    taken by divpoly._wmul; psi_0 ... psi_4 are the closed forms."""
    if n in divpoly._BASE:
        return divpoly._BASE[n]
    if n not in _ORACLE:
        mul = divpoly._wmul

        def part(k):
            return _oracle(k)[1:]

        def minus(p, q):
            out = dict(p[1])
            for key, c in q[1].items():
                out[key] = out.get(key, 0) - c
            return p[0], {key: c for key, c in out.items() if c}

        m = n // 2
        if n % 2:
            lin_a, lin_b = part(m + 2), part(m - 1)
            # the even pair of psi_m, psi_(m+2) or psi_(m-1), psi_(m+1)
            # carries y^4, taken into its linear factor
            if m % 2 == 0:
                lin_a = mul(*_CURVE2, *lin_a)
            else:
                lin_b = mul(*_CURVE2, *lin_b)
            cube_m = mul(*part(m), *mul(*part(m), *part(m)))
            cube_p = mul(*part(m + 1), *mul(*part(m + 1), *part(m + 1)))
            _ORACLE[n] = (0, *minus(mul(*lin_a, *cube_m), mul(*lin_b, *cube_p)))
        else:
            sq_m = mul(*part(m - 1), *part(m - 1))
            sq_p = mul(*part(m + 1), *part(m + 1))
            w, t = mul(*part(m), *minus(mul(*part(m + 2), *sq_m), mul(*part(m - 2), *sq_p)))
            assert all(c % 2 == 0 for c in t.values())
            _ORACLE[n] = (1, w, {key: c // 2 for key, c in t.items()})
    return _ORACLE[n]


def test_psi_matches_product_recursion():
    for n in range(1, 25):
        poly = psi(n)
        assert (poly.y_factor, poly.xpart_weight, poly.xterms) == _oracle(n), n


def test_base_cases_match_closed_forms():
    p3 = psi(3)
    assert p3.terms == {(4, 0, 0): 3, (2, 1, 0): 6, (1, 0, 1): 12, (0, 2, 0): -1}
    assert p3.y_factor == 0
    p2 = psi(2)
    assert p2.y_factor == 1 and p2.terms == {(0, 0, 0): 2}
    p4 = psi(4)
    assert (p4.y_factor, p4.xpart_weight, p4.xterms) == divpoly._BASE[4]


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
    for (fx, fa, fb) in poly.terms:
        assert fx + 2 * fa + 3 * fb + Fraction(3, 2) * poly.y_factor == total
    assert poly.x_leading_coeff() == n
    # x-degree of the y-stripped part
    expected = (n * n - 1) // 2 if n % 2 else (n * n - 4) // 2
    if n > 1:
        assert poly.x_degree() == expected
    for fx in range(-1, poly.x_degree() + 2):
        assert poly.x_coeff(fx) == {(fa, fb): c for (f, fa, fb), c in poly.terms.items() if f == fx}


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
            for (fx, fa, fb), c in poly.terms.items()
        ) * p.y**poly.y_factor
        assert psi_value(curve, p, n) == sym


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


def test_psi_never_reads_or_writes_a_cache_directory(tmp_path, monkeypatch):
    # psi_9 pickled with wrong terms, in the on-disk format that older
    # versions loaded from the directory INTEGRAL_CENSUS_CACHE named: psi
    # builds psi_9 by the recursion and leaves the directory as it was
    want = divpoly.DivPoly(9, *_oracle(9))
    planted = divpoly.DivPoly(9, want.y_factor, want.xpart_weight, {(0, 0): 1})
    blob = pickle.dumps(("integral-census psi cache v2", planted))
    (tmp_path / "psi_9.pkl").write_bytes(blob)
    monkeypatch.setenv("INTEGRAL_CENSUS_CACHE", str(tmp_path))
    monkeypatch.setattr(divpoly, "_psi_cache", {})
    assert psi(9) == want
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
