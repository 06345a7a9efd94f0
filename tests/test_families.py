import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from integral_census import families
from integral_census.families import (
    CurveModel,
    Family,
    discriminant,
    enumerate_family,
    filter_diagnostics,
    is_family_member,
    naive_height,
    squarefull_part,
)


def test_discriminant_values():
    assert discriminant(0, -2) == -16 * 27 * 4
    assert discriminant(-1, 0) == 64
    # singular: y^2 = x^3 - 3x + 2 has a double root at x = 1
    assert discriminant(-3, 2) == 0


def test_naive_height_matches_definition():
    assert float(naive_height(0, 1)) == pytest.approx(27 ** (1 / 6), rel=1e-12)
    assert float(naive_height(-2, 0)) == pytest.approx(32 ** (1 / 6), rel=1e-12)
    # the larger of the two terms wins
    assert float(naive_height(10, 1)) == pytest.approx(4000 ** (1 / 6), rel=1e-12)


def test_squarefull_part_known_values():
    assert squarefull_part(12) == 4
    assert squarefull_part(-12) == 4
    assert squarefull_part(360) == 72  # 2^3 * 3^2
    assert squarefull_part(30) == 1
    assert squarefull_part(1) == 1
    with pytest.raises(ValueError):
        squarefull_part(0)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_squarefull_part_divides_and_is_squarefull(n):
    s = squarefull_part(n)
    assert n % s == 0
    for p, e in sympy.factorint(s).items():
        assert e >= 2
    # the cofactor is squarefree
    assert all(e == 1 for e in sympy.factorint(n // s).values())


def test_family_membership_examples():
    assert is_family_member(CurveModel(0, 2), Family.MORDELL)
    assert not is_family_member(CurveModel(0, 64), Family.MORDELL)
    assert is_family_member(CurveModel(2, 0), Family.B0)
    assert not is_family_member(CurveModel(16, 0), Family.B0)
    assert is_family_member(CurveModel(-25, 0), Family.CONGRUENT)
    assert not is_family_member(CurveModel(-16, 0), Family.CONGRUENT)  # D = 4
    assert not is_family_member(CurveModel(-3, 0), Family.CONGRUENT)  # not D^2
    # quasiminimality: 2^4 | a together with 2^6 | b is excluded
    assert not is_family_member(CurveModel(16, 64), Family.UNIVERSAL)
    assert is_family_member(CurveModel(16, 32), Family.UNIVERSAL)
    # singular members are excluded everywhere
    assert not is_family_member(CurveModel(0, 0), Family.MORDELL)
    assert not is_family_member(CurveModel(-3, 2), Family.UNIVERSAL)


def _brute_force_count(family: Family, T: float) -> int:
    bound = int(T**3) + 2
    count = 0
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            c = CurveModel(a, b)
            if naive_height(a, b) <= T and is_family_member(c, family):
                count += 1
    return count


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("T", [1.5, 2, 3])
def test_enumerate_matches_brute_force_small(family, T):
    got = sum(1 for _ in enumerate_family(family, T))
    assert got == _brute_force_count(family, T)


def test_enumeration_is_sorted_and_in_range():
    curves = list(enumerate_family(Family.UNIVERSAL, 3))
    assert curves == sorted(curves)
    assert all(naive_height(c.a, c.b) <= 3 for c in curves)
    assert all(c.disc() != 0 for c in curves)


def test_enumerate_rejects_bad_T():
    with pytest.raises(ValueError):
        list(enumerate_family(Family.MORDELL, 0.5))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan])
def test_enumerate_rejects_non_finite_T(family, T):
    with pytest.raises(ValueError, match="T must be finite"):
        next(enumerate_family(family, T))


def _brute_force_members(family: Family, T: float) -> list[CurveModel]:
    """is_family_member over the whole box of naive height <= T, with the
    height compared exactly, in enumeration order."""
    t6 = Fraction(T) ** 6
    bs = [b for b in range(-math.ceil(T**3), math.ceil(T**3) + 1) if 27 * b * b <= t6]
    out = [
        c
        for a in range(-math.ceil(T**2), math.ceil(T**2) + 1)
        if 4 * abs(a) ** 3 <= t6
        for b in bs
        if is_family_member(c := CurveModel(a, b), family)
    ]
    # the congruent family runs by ascending D, one curve per a
    return out[::-1] if family is Family.CONGRUENT else out


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("T", [1, 2.5, 4, 6, 7.3])
def test_enumerate_equals_brute_force_walk(family, T):
    # at T = 6 the rows a = +-16 have b_max = 41 < 2^6: only b = 0 is struck there
    assert list(enumerate_family(family, T)) == _brute_force_members(family, T)


def test_enumerate_universal_at_T16_equals_brute_force_walk():
    # a_max = 161, b_max = 788: the rows a = +-81 strike b in {0, +-729}
    assert families._coeff_bounds(16) == (161, 788)
    curves = list(enumerate_family(Family.UNIVERSAL, 16))
    assert curves == _brute_force_members(Family.UNIVERSAL, 16)
    assert {c.b for c in curves if c.a == 81} == set(range(-788, 789)) - {0, -729, 729}


@pytest.mark.parametrize("a", [625, -1250, 1296, -1083])
def test_universal_row_matches_quasiminimal_per_cell(a):
    """At T = 46, b_max = 18732 >= 5^6: rows 625 and -1250 lose b in
    {0, +-15625}, 1296 = 2^4 3^4 the multiples of 2^6 and 3^6, and
    -1083 = -3 * 19^2, with no fourth power, only its singular b = +-13718."""
    a_max, b_max = families._coeff_bounds(46)
    assert abs(a) <= a_max and b_max >= 5**6
    want = [
        b
        for b in range(-b_max, b_max + 1)
        if discriminant(a, b) != 0 and families._quasiminimal(a, b)
    ]
    assert families._universal_row(a, b_max) == want


def test_enumeration_factors_nothing(monkeypatch):
    def refuse(n):
        raise AssertionError(f"enumeration factored {n}")

    monkeypatch.setattr(families, "_factorint", refuse)
    for family in Family:
        assert sum(len(bs) for _, bs in families._member_rows(family, 16)) > 0


@pytest.mark.parametrize("k", [4, 6])
def test_power_free_rows_match_has_power(k):
    n_max = 10**5
    want = [n for n in range(-n_max, n_max + 1) if not families._has_power(n, k)]
    assert families._power_free(n_max, k) == want
    # below 2^k nothing is struck but the singular 0
    assert families._power_free(2**k - 1, k) == [n for n in range(1 - 2**k, 2**k) if n]
    assert families._power_free(0, k) == []


@pytest.mark.parametrize("T", [2, 5, 20, 60])
@pytest.mark.parametrize("family", [Family.MORDELL, Family.B0])
def test_mordell_and_b0_rows_match_membership(family, T):
    a_max, b_max = families._coeff_bounds(T)
    if family is Family.MORDELL:
        box = [CurveModel(0, b) for b in range(-b_max, b_max + 1)]
    else:
        box = [CurveModel(a, 0) for a in range(-a_max, a_max + 1)]
    want = [c for c in box if is_family_member(c, family)]
    assert list(enumerate_family(family, T)) == want


@pytest.mark.parametrize("T", [11.198423241934007, 18.898815748423097])
def test_coefficient_bounds_compare_t6_exactly(T):
    """T^6 / 4 rounded to 53 bits let a = +-79 in at the first T, although
    4 * 79^3 > T^6; at the second, D = 15 stayed in the congruent family,
    although 4 * 15^6 > T^6."""
    t6 = Fraction(T) ** 6
    a_max, b_max = families._coeff_bounds(T)
    assert 4 * a_max**3 <= t6 < 4 * (a_max + 1) ** 3
    assert 27 * b_max**2 <= t6 < 27 * (b_max + 1) ** 2
    for family in (Family.B0, Family.CONGRUENT):
        assert all(4 * abs(c.a) ** 3 <= t6 for c in enumerate_family(family, T))


def test_enumerate_pins_singular_and_non_quasiminimal_cells():
    curves = set(enumerate_family(Family.UNIVERSAL, 7))
    # 4a^3 + 27b^2 = 0 at a = -3k^2, b = +-2k^3; their row neighbours stay
    for a, b in [(-3, 2), (-3, -2), (-12, 16), (-12, -16)]:
        assert CurveModel(a, b) not in curves
        assert CurveModel(a, b + 1) in curves
    # gcd(a, b) = 32 and 16: 2^4 | a with 2^6 | b is excluded, 2^5 || b is not
    assert CurveModel(16, 64) not in curves
    assert CurveModel(16, 32) in curves


def test_enumerate_rejects_a_b_range_past_int64():
    # T = 1e7 puts |b| up to about 1.9e20; no row of that length is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="does not fit int64"):
            next(enumerate_family(Family.UNIVERSAL, 1e7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_filter_diagnostics_flags():
    # tiny curve at larger T fails every size flag; cap the point scan so
    # the small-point checks stay cheap
    d = filter_diagnostics(CurveModel(1, 2), 20, 0.1, x_bound_cap=100)
    assert not d.passes_size
    # the flags measure what they claim: |a| large enough passes flag 0
    big = int(20 ** (2 - 0.1)) + 1
    d2 = filter_diagnostics(CurveModel(big, 2), 20, 0.1, x_bound_cap=10)
    assert d2.condition_flags[0]
    with pytest.raises(ValueError):
        filter_diagnostics(CurveModel(1, 2), 20, 1.5)


def test_filter_rejects_an_x_bound_cap_below_1_before_any_flag():
    # (1, 2) fails every cheap size flag at T = 20, so no point flag would see the cap
    assert not filter_diagnostics(CurveModel(1, 2), 20, 0.1, x_bound_cap=1).passes_size
    with pytest.raises(ValueError, match="x_bound_cap"):
        filter_diagnostics(CurveModel(1, 2), 20, 0.1, x_bound_cap=0)


@pytest.mark.parametrize("T", [-2.0, 0.5, math.inf, -math.inf, math.nan])
def test_filter_diagnostics_rejects_bad_T(T):
    with pytest.raises(ValueError, match="T must be finite"):
        filter_diagnostics(CurveModel(1, 2), T, 0.1)


def _mp_thresholds(T, delta):
    # the 30-digit powers the filter compared against before the integer
    # cutoffs, each with its comparison direction
    with mp.workdps(30):
        Tm = mp.mpf(T)
        return [
            (Tm ** (2 - delta), ">="),
            (Tm ** (3 - delta), ">="),
            (Tm**delta, "<="),
            (Tm ** (6 - 2 * delta), ">="),
            (Tm ** (4 * delta), "<="),
            (Tm ** (5 - delta), "floor"),
            (Tm ** (mp.mpf(1) / 2 - delta), "floor"),
            (Tm ** (mp.mpf(1) / 4 - delta / 2), "floor"),
        ]


@pytest.mark.parametrize(
    "T, delta",
    [(8, 0.1), (20, 0.1), (12, 0.1), (4, 0.5), (16, 0.5), (16, 0.25), (1, 0.3), (1000, 0.9)],
)
def test_integer_cutoffs_match_mpmath_comparisons(T, delta):
    cuts = families._cutoffs(T, delta)
    thresholds = _mp_thresholds(T, delta)
    assert len(cuts) == len(thresholds)
    for cut, (t, op) in zip(cuts, thresholds):
        with mp.workdps(30):
            if op == "floor":
                assert cut == int(mp.floor(t))
                continue
            for n in (cut - 1, cut, cut + 1):
                if op == ">=":
                    assert (n >= cut) == bool(n >= t)
                else:
                    assert (n <= cut) == bool(n <= t)


def test_exact_power_cutoffs_keep_the_boundary():
    # 16^0.5 = 4 and 4^(2 - 0.5) = 8 exactly: the cutoff is the power itself
    a_min, _, gcd_max, *_ = families._cutoffs(16, 0.5)
    assert gcd_max == 4 and a_min == 16 ** 1.5 == 64
    assert families._cutoffs(4, 0.5)[0] == 8
    d = filter_diagnostics(CurveModel(64, 4), 16, 0.5)
    assert d.condition_flags[0]
    d = filter_diagnostics(CurveModel(63, 4), 16, 0.5)
    assert not d.condition_flags[0]


def test_cutoffs_evaluated_once_per_T_delta():
    families._cutoffs.cache_clear()
    curves = list(enumerate_family(Family.UNIVERSAL, 3))
    verdicts = [filter_diagnostics(c, 3, 0.1).passes_all for c in curves]
    assert len(verdicts) == len(curves) > 100
    info = families._cutoffs.cache_info()
    assert info.misses == 1
    assert info.hits == len(curves) - 1
    filter_diagnostics(curves[0], 3, 0.2)
    assert families._cutoffs.cache_info().misses == 2


def _quasiminimal_reference(a, b):
    # the definition: no prime with p^4 | a and p^6 | b
    if a == 0:
        return b != 0 and all(e < 6 for e in sympy.factorint(abs(b)).values())
    return not any(
        e >= 4 and b % p**6 == 0 for p, e in sympy.factorint(abs(a)).items()
    )


def test_quasiminimal_matches_factoring_a():
    values = list(range(-40, 41))
    for p in (2, 3, 5):
        for e in range(3, 8):
            values += [p**e, -(p**e), 7 * p**e]
    for a in values:
        for b in values:
            assert families._quasiminimal(a, b) == _quasiminimal_reference(a, b), (a, b)
    # p^4 || a with p^6 | b is excluded; p^4 | a with p^5 || b is kept
    assert not families._quasiminimal(3 * 16, 64)
    assert not families._quasiminimal(-(3**4) * 5, 3**6 * 2)
    assert families._quasiminimal(2**6 * 3, 2**5 * 7)
    assert families._quasiminimal(5**4, 5**5)
    # b = 0 leaves g = |a|; a = 0 asks for a sixth power in b
    assert not families._quasiminimal(2**4, 0)
    assert families._quasiminimal(2**3 * 3**3, 0)
    assert not families._quasiminimal(0, 2**6 * 5)
    assert families._quasiminimal(0, 2**5 * 3**5)


# sympy.factorint is the oracle for the package's own exact factorization
def test_factorint_matches_sympy_up_to_20000():
    for n in range(1, 20001):
        assert families._factorint(n) == sympy.factorint(n), n


def test_factorint_matches_sympy_on_random_30_digit_numbers():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randrange(1, 10**30)
        assert families._factorint(n) == sympy.factorint(n), n


# psi_k: the least strong pseudoprime to the first k prime bases; the last two
# are semiprimes of two 12- and 13-digit primes
_PSI = [
    1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
]
_CARMICHAEL = [561, 1105, 1729, 2465, 41041, 825265, 321197185, 5394826801, 232250619601]
# strong pseudoprimes to base 2: psi_4 and psi_9 above, and the squares of
# the Wieferich primes, which no trial division below 100 splits
_SPSP2 = [1093**2, 3511**2]


@pytest.mark.parametrize("n", _PSI + _CARMICHAEL + _SPSP2)
def test_factorint_splits_pseudoprimes(n):
    assert families._factorint(n) == sympy.factorint(n)


def test_factorint_semiprimes_and_prime_powers():
    p, q = sympy.nextprime(10**11), sympy.nextprime(3 * 10**11)
    assert families._factorint(p * q) == {p: 1, q: 1}
    assert families._factorint(p**3) == {p: 3}
    assert families._factorint(2**10 * 3**5 * p**2 * q) == {2: 10, 3: 5, p: 2, q: 1}
    assert families._factorint(97**7) == {97: 7}
    assert families._factorint(101**2) == {101: 2}


def test_factorint_proves_primes_above_the_miller_rabin_bound():
    # above 3.3e24 the test is BPSW: base-2 strong test and strong Lucas test
    p = sympy.nextprime(10**25)
    assert families._factorint(p) == {p: 1}
    assert families._factorint(p * p) == {p: 2}
    # a Chernick Carmichael number (6k+1)(12k+1)(18k+1) above the bound
    k = 100000131
    n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
    assert n > 3317044064679887385961981
    assert families._factorint(n) == {6 * k + 1: 1, 12 * k + 1: 1, 18 * k + 1: 1}


def test_strong_lucas_matches_sympy():
    for n in list(range(10**25 + 1, 10**25 + 2001, 2)) + [5459, 5777, 10877, 16109, 18971]:
        assert families._strong_lucas_prp(n) == is_strong_lucas_prp(n), n


def test_factorint_rejects_nonpositive():
    for n in (0, -6):
        with pytest.raises(ValueError):
            families._factorint(n)
