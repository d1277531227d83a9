"""Periods of Fibonacci and Gopala-Hemachandra sequences modulo m.

The period is defined on the state pair (two consecutive residues), not on a
single residue: the Fibonacci step matrix is invertible mod every m (its
determinant is -1), so the orbit of the pair (0, 1) is purely periodic and
the pair recurs exactly at multiples of the period.

For odd primes the period splits into two classes: it divides p-1 when p
ends in 1 or 9, and divides 2p+2 when p ends in 3 or 7; p = 5 is special
with period 20.  For general m the period is at most 6m, with equality
exactly at m = 2 * 5^n.

One prime's period comes from order-finding: strip the primes of its class
multiple b(p) while the pair still recurs (``_period``).  A range of moduli
is computed from its primes instead (``pisano_periods_range``): factor the
window by the small primes over strided slices, find the period of each
distinct prime factor in one batched order search, lift it to prime powers
by Wall's theorem (pi(p^k) = p^(k-1) pi(p) once pi(p^2) != pi(p) is
checked), and take the lcm over the prime powers of each modulus.  Moduli
divisible by p^2 for a p whose check fails go through ``_period``.
"""

from dataclasses import dataclass
from enum import Enum
from math import isqrt, lcm
from typing import NamedTuple, Optional

import numpy as np

from .arith import GHParams, _check_int, _fib_mod_batch, fib_mod, is_prime, sieve_primes

__all__ = [
    "BRUTE_FORCE_MODULUS_CAP",
    "PrimeClass",
    "PeriodRecord",
    "BoundCheck",
    "ClassificationError",
    "pisano_period_bruteforce",
    "pisano_periods_range",
    "pisano_period_prime",
    "gh_period",
    "verify_period_bound",
    "expected_equality_moduli",
]

# Brute-force iteration is O(period) = O(6m); keep it desk-scale.
BRUTE_FORCE_MODULUS_CAP = 10**6
# The range scan is batched: wide enough for 1e6 consecutive moduli from
# any start up to 1e6 + 1.
_RANGE_MODULUS_CAP = 2 * 10**6


class PrimeClass(Enum):
    """Which divisor family the period of an odd prime falls into."""

    DIVISOR_OF_P_MINUS_1 = "p-1"
    DIVISOR_OF_2P_PLUS_2 = "2p+2"
    SPECIAL_FIVE = "5(p-1)"


class ClassificationError(ArithmeticError):
    """The class multiple is not a period: a counterexample to the
    two-class structure.  Never observed; raised instead of guessing."""


@dataclass(frozen=True)
class PeriodRecord:
    """A modulus with its period, class, human-readable label and sign.

    ``klass`` is None for composite moduli, which have no class.
    ``ratio_label`` renders the period as an exact expression in p, e.g.
    "p-1", "2p+2", "(p-1)/2", "(2p+2)/3", or "5(p-1)" for p = 5.
    """

    modulus: int
    period: int
    klass: Optional[PrimeClass]
    ratio_label: str

    @property
    def bit(self) -> int:
        """+1 for the p-1 family (including p = 5), -1 for the 2p+2 family."""
        if self.klass is None:
            raise ValueError(f"modulus {self.modulus} carries no class")
        return _CLASS_SIGN[self.klass]


class BoundCheck(NamedTuple):
    modulus: int
    period: int
    bound_met: bool  # period <= 6m
    equality: bool  # period == 6m


def pisano_period_bruteforce(m: int) -> int:
    """Smallest N >= 1 with F(N) = 0 and F(N+1) = 1 (mod m), by iteration.

    The definitional oracle: ``gh_period`` of the Fibonacci seed (0, 1).
    """
    return gh_period((0, 1), m)


def _factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


_P_MINUS_1, _2P_PLUS_2, _FIVE = PrimeClass  # member lookup is slow on Python 3.11
_CLASS_SIGN = {_P_MINUS_1: 1, _FIVE: 1, _2P_PLUS_2: -1}  # the sign of each family


def _prime_class(p: int) -> PrimeClass:
    """The divisor family of the odd prime p, a proven function of p mod 10."""
    if p % 10 in (1, 9):
        return _P_MINUS_1
    return _FIVE if p == 5 else _2P_PLUS_2


def _class_multiple(p: int) -> int:
    """b(p), a multiple of the period of the prime p fixed by its class."""
    if p == 2:
        return 3
    if p == 5:
        return 20
    return p - 1 if _prime_class(p) is _P_MINUS_1 else 2 * p + 2


def _period(m: int, factors: dict[int, int]) -> int:
    """Period of m >= 2 by order-finding from a proven multiple.

    ``factors`` is m as {prime: exponent}; a caller that has already proven m
    prime passes {m: 1} instead of trial-dividing it again.

    M = lcm over p^k || m of p^(k-1) * b(p) is a multiple of the period (Wall
    1960: the period of p^k divides p^(k-1) times that of p; coprime parts
    combine by lcm).  Stripping each prime of M while (0, 1) still recurs
    leaves the least such N.
    """
    multiple = 1
    for p, k in factors.items():
        multiple = lcm(multiple, p ** (k - 1) * _class_multiple(p))
    if fib_mod(multiple, m) != (0, 1):
        raise ClassificationError(f"class multiple {multiple} is not a period of {m}")
    period = multiple
    for q in _factorize(multiple):
        while period % q == 0 and fib_mod(period // q, m) == (0, 1):
            period //= q
    return period


def _factor_window(m_min: int, rest: np.ndarray, small: list[int]) -> np.ndarray:
    """Divide every prime of ``small`` out of ``rest``, the window from m_min.

    The multiples of q^k in the window are one strided slice, so each prime
    power costs one in-place division over its multiples only.  Returns the
    primes of ``small`` that divide some modulus; ``rest`` is left holding 1
    or the one prime factor above them.
    """
    count = len(rest)
    found = []
    for q in small:
        qk = q
        while (first := -m_min % qk) < count:
            rest[first::qk] //= q
            qk *= q
        if qk > q:
            found.append(q)
    return np.array(found, dtype=np.int64)


def _prime_periods(primes: np.ndarray, small: list[int]) -> np.ndarray:
    """Periods of distinct primes by one batched order search from b(p).

    Every b(p) must recur.  For each q^e || b(p) the quotients b(p)/q^j,
    j = 1..e, are tested in the same batch; the pair recurs exactly at the
    multiples of the period, so the passing j form a prefix whose length is
    how often q divides b(p) / period.  ``small`` holds the primes up to
    sqrt(m_max + 1) and the odd part of b(p) is at most m_max + 1, so after
    them at most one prime factor of b(p) is left.
    """
    multiple = np.array([_class_multiple(p) for p in primes.tolist()], dtype=np.int64)
    rest = multiple.copy()
    owner, base, exponent = [], [], []
    for q in small:
        hit = np.flatnonzero(rest % q == 0)
        if not len(hit):
            continue
        sub, e = rest[hit], np.zeros(len(hit), dtype=np.int64)
        while len(divides := np.flatnonzero(sub % q == 0)):
            sub[divides] //= q
            e[divides] += 1
        rest[hit] = sub
        owner.append(hit)
        base.append(np.full(len(hit), q, dtype=np.int64))
        exponent.append(e)
    left = np.flatnonzero(rest > 1)
    owner.append(left)
    base.append(rest[left])
    exponent.append(np.ones(len(left), dtype=np.int64))

    exponent = np.concatenate(exponent)
    owner = np.repeat(np.concatenate(owner), exponent)
    base = np.repeat(np.concatenate(base), exponent)
    # j = 1..e inside each (p, q) group
    ends = np.cumsum(exponent)
    j = np.arange(1, len(owner) + 1) - np.repeat(ends - exponent, exponent)
    tests = multiple[owner] // base**j

    f_n, f_n1 = _fib_mod_batch(
        np.concatenate([multiple, tests]), np.concatenate([primes, primes[owner]])
    )
    recurs = (f_n == 0) & (f_n1 == 1)
    if not recurs[: len(primes)].all():
        i = int(np.argmin(recurs[: len(primes)]))
        raise ClassificationError(
            f"class multiple {multiple[i]} is not a period of {primes[i]}"
        )
    stripped = recurs[len(primes) :]
    divisor = np.ones(len(primes), dtype=np.int64)
    np.multiply.at(divisor, owner[stripped], base[stripped])
    return multiple // divisor


def _wall_lifts(p: np.ndarray, period: np.ndarray) -> np.ndarray:
    """True where pi(p^2) != pi(p); then pi(p^k) = p^(k-1) pi(p) for every k
    (Wall 1960, Thm 5)."""
    f_n, f_n1 = _fib_mod_batch(period, p * p)
    return (f_n != 0) | (f_n1 != 1)


def _lift(
    m_min: int, periods: np.ndarray, found: np.ndarray, found_periods: np.ndarray
) -> np.ndarray:
    """Fold the small primes into the window's periods, in place: Wall's
    lift to each prime power, lcm over the prime powers of each modulus.

    ``periods`` holds each modulus's large-prime period (or 1) and ``found``
    the small primes dividing the window.  A modulus divisible by p^2 for a
    p whose lift check fails is computed by ``_period`` instead.
    """
    count = len(periods)
    squared = np.array([-m_min % (q * q) < count for q in found.tolist()], dtype=bool)
    lifts = np.ones(len(found), dtype=bool)
    lifts[squared] = _wall_lifts(found[squared], found_periods[squared])
    fallback = np.zeros(count, dtype=bool)
    for q, period, lifted in zip(found.tolist(), found_periods.tolist(), lifts.tolist()):
        qk = q
        while (first := -m_min % qk) < count:
            view = periods[first::qk]
            np.lcm(view, period, out=view)
            qk *= q
            period *= q
        if not lifted:
            fallback[-m_min % (q * q) :: q * q] = True
    for i in np.flatnonzero(fallback).tolist():
        periods[i] = _period(m_min + i, _factorize(m_min + i))
    return periods


# Primes per batched order search: bounds the batch's arrays at about five
# tests per prime, so memory stays flat however wide the window is.
_PRIME_CHUNK = 8192


def pisano_periods_range(m_max: int, m_min: int = 2) -> np.ndarray:
    """Periods for every modulus in [m_min, m_max], from batched prime periods.

    Returns an int64 array aligned with range(m_min, m_max + 1).  Four
    stages: factor the window by the primes up to sqrt(m_max + 1), over
    strided slices; find the period of each distinct prime factor in one
    batched order search from its class multiple; lift each prime period to
    the prime powers by Wall's theorem, pi(p^k) = p^(k-1) pi(p) once
    pi(p^2) != pi(p) is checked; and take the lcm over each modulus's
    prime powers.  A modulus divisible by p^2 for a p whose check fails
    falls back to ``_period``.
    """
    m_min = _check_int(m_min, "m_min", 2, _RANGE_MODULUS_CAP)
    m_max = _check_int(m_max, "m_max", m_min, _RANGE_MODULUS_CAP)
    small = sieve_primes(isqrt(m_max + 1))
    rest = np.arange(m_min, m_max + 1, dtype=np.int64)
    found = _factor_window(m_min, rest, small)
    # the distinct large primes, ascending, from a mark per value: np.sort
    # loads code that costs resident memory, np.unique imports numpy.ma too
    mark = np.zeros(m_max + 1, dtype=bool)
    mark[rest] = True
    mark[1] = False
    large = np.flatnonzero(mark)
    primes = np.concatenate([found, large])
    prime_periods = np.concatenate([
        _prime_periods(primes[i : i + _PRIME_CHUNK], small)
        for i in range(0, len(primes), _PRIME_CHUNK)
    ])
    split = len(found)
    periods = np.ones(len(rest), dtype=np.int64)
    has_large = rest > 1
    periods[has_large] = prime_periods[split:][np.searchsorted(large, rest[has_large])]
    return _lift(m_min, periods, found, prime_periods[:split])


def pisano_period_prime(p: int) -> PeriodRecord:
    """Period of an odd prime by order-finding from its class multiple.

    Raises ClassificationError if the class multiple is not a period.
    """
    p = _check_int(p, "p")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        raise ValueError("2 is outside the two-class period structure")
    klass = _prime_class(p)
    period = _period(p, {p: 1})
    ratio = _class_multiple(p) // period
    label = klass.value if ratio == 1 else f"({klass.value})/{ratio}"
    return PeriodRecord(p, period, klass, label)


def gh_period(params: GHParams, m: int) -> int:
    """Period of the (a, b) Gopala-Hemachandra sequence mod m.

    Iterates the state pair until the initial pair recurs.  Always divides
    the Fibonacci period of m (the step matrix to that power is the
    identity), but can be a proper divisor of it, e.g. seed (2, 1) mod 5 has
    period 4 while the Fibonacci period is 20.
    """
    m = _check_int(m, "modulus", 2, BRUTE_FORCE_MODULUS_CAP)
    a0, b0 = (_check_int(v, "seed") % m for v in params)
    if a0 == 0 and b0 == 0:
        raise ValueError("zero seed pair generates the degenerate zero sequence")
    a, b = a0, b0
    for k in range(1, 6 * m + 1):
        a, b = b, (a + b) % m
        if a == a0 and b == b0:
            return k
    raise AssertionError(f"GH period of {m} exceeds 6m")  # impossible


def verify_period_bound(m_max: int) -> list[BoundCheck]:
    """Check period <= 6m for every 2 <= m <= m_max.

    Returns one BoundCheck per modulus; ``equality`` marks period == 6m,
    which should hold exactly on expected_equality_moduli(m_max).
    """
    periods = pisano_periods_range(m_max)
    return [
        BoundCheck(m, int(n), int(n) <= 6 * m, int(n) == 6 * m)
        for m, n in zip(range(2, m_max + 1), periods)
    ]


def expected_equality_moduli(m_max: int) -> list[int]:
    """The moduli 2 * 5^n (n >= 1) up to m_max: where period == 6m holds."""
    out, v = [], 10
    while v <= m_max:
        out.append(v)
        v *= 5
    return out
