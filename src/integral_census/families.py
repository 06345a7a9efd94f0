"""Curve models, the four enumerated families, and the size/shape filters.

Curves are short Weierstrass models y^2 = x^3 + a x + b with integer
coefficients, ordered by the naive height max(4|a|^3, 27 b^2)^(1/6).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

import mpmath as mp
import numpy as np

from . import _scan

__all__ = [
    "CurveModel",
    "Family",
    "FilterDiagnostics",
    "discriminant",
    "naive_height",
    "squarefull_part",
    "is_family_member",
    "enumerate_family",
    "filter_diagnostics",
]


@dataclass(frozen=True, order=True)
class CurveModel:
    """y^2 = x^3 + a x + b; callers must reject discriminant zero."""

    a: int
    b: int

    def disc(self) -> int:
        return discriminant(self.a, self.b)

    def to_record(self) -> dict:
        # decimal strings keep arbitrary-precision coefficients JSON-safe
        return {"a": str(self.a), "b": str(self.b)}


class Family(Enum):
    UNIVERSAL = "universal"
    MORDELL = "mordell"
    B0 = "b0"
    CONGRUENT = "congruent"


@dataclass
class FilterDiagnostics:
    """Flags for the size/shape filter and the small-point filter.

    The five condition_flags entries cover, in order: |A| large, |B| large
    and non-square, gcd(A, B) small, |Delta| large, squarefull part of
    Delta small.  small_integral / small_rational flag the absence of
    small points.  passes_size is the AND of the five; passes_all also
    requires both small-point flags.
    """

    condition_flags: tuple[bool, bool, bool, bool, bool]
    small_integral: bool
    small_rational: bool

    @property
    def passes_size(self) -> bool:
        return all(self.condition_flags)

    @property
    def passes_all(self) -> bool:
        return self.passes_size and self.small_integral and self.small_rational


def discriminant(a: int, b: int) -> int:
    """-16(4a^3 + 27b^2); zero means the cubic is singular."""
    return -16 * (4 * a**3 + 27 * b**2)


def naive_height(a: int, b: int) -> mp.mpf:
    """max(4|a|^3, 27 b^2)^(1/6) at 50 significant digits."""
    return _sixth_root(max(4 * abs(a) ** 3, 27 * b * b))


@functools.lru_cache(maxsize=1024)
def _sixth_root(m: int) -> mp.mpf:
    # a family census has few distinct m: 21 among the 522 universal T = 4 curves
    with mp.workdps(50):
        return mp.mpf(m) ** (mp.mpf(1) / 6)


# Exact factorization.  The family and filter tests factor numbers of a few
# digits, but canonical_height factors the discriminant and denominators of
# whatever curve and point a user gives: trial division by the primes below
# 100, then a proven primality test, a perfect-power test and Pollard-Brent
# rho on what is left.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)
# (psi_k, k): strong tests to the first k prime bases are exact below psi_k
# (OEIS A014233; psi_13 by Sorenson and Webster, 2015)
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


def _factorint(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"_factorint requires n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    if n < 101 * 101:  # no prime factor below 100 left: n is 1 or prime
        if n > 1:
            out[n] = 1
        return out
    rest: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if _is_prime(m):
            rest[m] = rest.get(m, 0) + 1
        else:
            d = _perfect_root(m) or _rho(m)
            stack += (d, m // d)
    out.update(sorted(rest.items()))
    return out


def _is_prime(n: int) -> bool:
    """Primality of an n > 100 with no prime factor below 100.

    Miller-Rabin with the first k prime bases, exact below psi_k; above
    3.3e24, BPSW (a base-2 strong test and a strong Lucas test), which has
    no known counterexample.
    """
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for bound, k in _MR_BOUNDS:
        if n < bound:
            return all(_strong_prp(n, a, d, s) for a in _SMALL_PRIMES[:k])
    return _strong_prp(n, 2, d, s) and _strong_lucas_prp(n)


def _strong_prp(n: int, base: int, d: int, s: int) -> bool:
    # n - 1 = d 2^s with d odd
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 3.3e24, with
    Selfridge's parameters: the first D in 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D) / 4."""
    r = math.isqrt(n)
    if r * r == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # a factor of the small D divides the large n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # U_k, V_k and Q^k mod n, doubling k along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n) >> 1 if U & 1 else U >> 1
            V = (V + n) >> 1 if V & 1 else V >> 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, by Newton's method from above."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)
    while (t := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = t
    return r


def _perfect_root(n: int) -> int | None:
    """r if n = r^k for a prime k, else None; n has no prime factor below 100.

    Rho needs about sqrt(p) steps to split p^k, so prime powers are caught
    here first.  Every r is above 2^6, so k stops at a sixth of n's bits.
    """
    for k in _SMALL_PRIMES:
        if 6 * k > n.bit_length():
            return None
        if (r := _iroot(n, k)) ** k == n:
            return r
    return None


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n: Pollard's rho with
    Brent's cycle search, trying c = 1, 2, ... until one splits n."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def squarefull_part(n: int) -> int:
    """Product of p^v_p(n) over primes with p^2 | n."""
    if n == 0:
        raise ValueError("squarefull_part requires nonzero input")
    out = 1
    for p, e in _factorint(abs(n)).items():
        if e >= 2:
            out *= p**e
    return out


def _quasiminimal(a: int, b: int) -> bool:
    # p^4 | a must not come with p^6 | b.  For a != 0 both force p^4 | g =
    # gcd(a, b), and v_p(g) >= 4 iff v_p(a) >= 4 and v_p(b) >= 4, so only g
    # needs factoring; g < 16 = 2^4 has no fourth-power divisor at all.
    if a == 0:
        return not _has_power(b, 6)
    g = math.gcd(a, b)
    if g < 16:
        return True
    for p, e in _factorint(g).items():
        if e >= 4 and b % p**6 == 0:
            return False
    return True


def _has_power(n: int, k: int) -> bool:
    """Whether p^k | n for some prime p; true for n = 0."""
    if n == 0:
        return True
    return any(e >= k for e in _factorint(abs(n)).values())


def _squarefree_positive(n: int) -> bool:
    if n <= 0:
        return False
    return all(e == 1 for e in _factorint(n).values())


def is_family_member(curve: CurveModel, family: Family) -> bool:
    a, b = curve.a, curve.b
    if discriminant(a, b) == 0:
        return False
    if family is Family.UNIVERSAL:
        return _quasiminimal(a, b)
    if family is Family.MORDELL:
        return a == 0 and not _has_power(b, 6)
    if family is Family.B0:
        return b == 0 and not _has_power(a, 4)
    if family is Family.CONGRUENT:
        if b != 0 or a >= 0:
            return False
        d = math.isqrt(-a)
        return d * d == -a and _squarefree_positive(d)
    raise ValueError(family)


def _coeff_bounds(T: float) -> tuple[int, int]:
    # naive_height <= T  <=>  4|a|^3 <= T^6 and 27 b^2 <= T^6, compared
    # exactly: the float T has an exact sixth power
    t6 = Fraction(T) ** 6
    return _iroot(math.floor(t6 / 4), 3), math.isqrt(math.floor(t6 / 27))


def enumerate_family(family: Family, T: float) -> Iterator[CurveModel]:
    """Family members of naive height <= T, lexicographic on (a, b); the
    congruent family runs by ascending D, so descending a."""
    for a, bs in _member_rows(family, T):
        for b in bs:
            yield CurveModel(a, b)


def _check_T(T: float) -> None:
    if not (math.isfinite(T) and T >= 1):
        raise ValueError(f"T must be finite and >= 1, got {T!r}")


def _member_rows(family: Family, T: float) -> Iterator[tuple[int, list[int]]]:
    """The family members of naive height <= T as rows (a, [b, ...]): each
    a once, its b ascending, in the order of enumerate_family.  T is
    checked here, before the first row is asked for.
    """
    _check_T(T)
    a_max, b_max = _coeff_bounds(T)
    if family is Family.UNIVERSAL:
        if b_max >= np.iinfo(np.int64).max:
            raise ValueError(f"T = {T!r} is too large: |b| <= {b_max} does not fit int64")
        return ((a, _universal_row(a, b_max)) for a in range(-a_max, a_max + 1))
    if family is Family.MORDELL:
        return iter([(0, _power_free(b_max, 6))])
    if family is Family.B0:
        return ((a, [0]) for a in _power_free(a_max, 4))
    if family is Family.CONGRUENT:
        # a = -D^2, so 4|a|^3 <= T^6 exactly when D^2 <= a_max
        return ((-d * d, [0]) for d in _power_free(math.isqrt(a_max), 2) if d > 0)
    raise ValueError(family)


def _power_free(n_max: int, k: int) -> list[int]:
    """The n with 0 < |n| <= n_max and no p^k | n, ascending: the n for which
    _has_power(n, k) is false, by striking the multiples of each m^k <= n_max
    (composite m strike nothing new) instead of factoring each n."""
    keep = np.ones(2 * n_max + 1, dtype=bool)
    keep[n_max] = False  # n = 0 gives a singular model in every family
    for m in range(2, _iroot(n_max, k) + 1):
        # index n + n_max; the least multiple of m^k above -n_max - 1 sits at n_max % m^k
        keep[n_max % m**k :: m**k] = False
    return (np.flatnonzero(keep) - n_max).tolist()


def _universal_row(a: int, b_max: int) -> list[int]:
    """The b with |b| <= b_max and (a, b) quasiminimal and nonsingular, ascending.

    p^4 | a and p^6 | b for a prime p exactly when m^4 | a and m^6 | b for
    some m >= 2, so the multiples of m^6 are struck for each m^4 | a.  m is
    not capped by b_max: b = 0 is a multiple of every m^6.
    """
    if a == 0:
        return _power_free(b_max, 6)
    keep = np.ones(2 * b_max + 1, dtype=bool)
    for m in range(2, _iroot(abs(a), 4) + 1):
        if a % m**4 == 0:
            # index b + b_max, as in _power_free
            keep[b_max % m**6 :: m**6] = False
    # 4a^3 + 27b^2 = 0 exactly at a = -3k^2, b = +-2k^3
    k = math.isqrt(-a // 3) if a < 0 else 0
    if 3 * k * k == -a and 2 * k**3 <= b_max:
        keep[b_max - 2 * k**3] = keep[b_max + 2 * k**3] = False
    return np.arange(-b_max, b_max + 1, dtype=np.int64)[keep].tolist()


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@functools.lru_cache(maxsize=128)
def _cutoffs(T: float, delta: float) -> tuple[int, ...]:
    """The filter thresholds of filter_diagnostics at a valid (T, delta), as integers.

    mpmath compares an int with an mpf exactly, so for every integer n,
    n >= t iff n >= ceil(t) and n <= t iff n <= floor(t): the integer
    cutoffs give the same verdicts as the 30-digit powers themselves.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    _check_T(T)
    with mp.workdps(30):
        Tm = mp.mpf(T)
        return (
            int(mp.ceil(Tm ** (2 - delta))),
            int(mp.ceil(Tm ** (3 - delta))),
            int(mp.floor(Tm**delta)),
            int(mp.ceil(Tm ** (6 - 2 * delta))),
            int(mp.floor(Tm ** (4 * delta))),
            # no integral point of height <= (5 - delta) log T, i.e. |x| <= T^(5-delta)
            int(mp.floor(Tm ** (5 - delta))),
            # no rational point of height <= (1/2 - delta) log T: numerators
            # |x| <= T^(1/2 - delta), denominators d <= T^(1/4 - delta/2)
            int(mp.floor(Tm ** (mp.mpf(1) / 2 - delta))),
            int(mp.floor(Tm ** (mp.mpf(1) / 4 - delta / 2))),
        )


def filter_diagnostics(
    curve: CurveModel,
    T: float,
    delta: float,
    x_bound_cap: int | None = None,
) -> FilterDiagnostics:
    """Evaluate the size/shape flags and the small-point flags.

    The thresholds T^(2-delta), T^(3-delta), ... are exact integer cutoffs,
    computed once per (T, delta) and compared with the curve's integers.

    The expensive checks (factorization, point searches) are skipped once a
    cheap size flag has failed, and reported False: sound for passes_size
    and passes_all.  An x_bound_cap below 1 is rejected before any flag.
    """
    a_min, b_min, gcd_max, disc_min, sf_max, x_cut, num_cut, den_cut = _cutoffs(T, delta)
    if x_bound_cap is not None:
        if x_bound_cap < 1:
            raise ValueError("x_bound_cap must be >= 1")
        x_cut = min(x_cut, x_bound_cap)
    a, b = curve.a, curve.b
    disc = curve.disc()
    a_big = abs(a) >= a_min
    b_big = abs(b) >= b_min and not _is_square(b)
    gcd_small = math.gcd(a, b) <= gcd_max
    disc_big = abs(disc) >= disc_min
    if not (a_big and b_big and gcd_small and disc_big):
        return FilterDiagnostics((a_big, b_big, gcd_small, disc_big, False), False, False)
    sf_small = squarefull_part(disc) <= sf_max
    # the scan's first point, if any, settles the flag
    small_int = next(_scan.scan_curves([a], [b], -x_cut, x_cut), None) is None
    small_rat = not _has_small_rational_point(curve, num_cut, den_cut)
    return FilterDiagnostics((a_big, b_big, gcd_small, disc_big, sf_small), small_int, small_rat)


def _has_small_rational_point(curve: CurveModel, num_cut: int, den_cut: int) -> bool:
    # x = u / d^2 with |u| <= num_cut * d^2 bounded by the height cut on x
    a, b = curve.a, curve.b
    for d in range(1, den_cut + 1):
        d2, d6 = d * d, d**6
        for u in range(-num_cut * d2, num_cut * d2 + 1):
            if d > 1 and math.gcd(u, d) != 1:
                continue
            val = u**3 + a * u * d2 * d2 + b * d6
            if val >= 0 and _is_square(val):
                return True
    return False
