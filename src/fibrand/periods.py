"""Periods of Fibonacci and Gopala-Hemachandra sequences modulo m.

The period is defined on the state pair (two consecutive residues), not on a
single residue: the Fibonacci step matrix is invertible mod every m (its
determinant is -1), so the orbit of the pair (0, 1) is purely periodic and
the pair recurs exactly at multiples of the period.

For odd primes the period splits into two classes: it divides p-1 when p
ends in 1 or 9, and divides 2p+2 when p ends in 3 or 7; p = 5 is special
with period 20.  For general m the period is at most 6m, with equality
exactly at m = 2 * 5^n.
"""

from dataclasses import dataclass
from enum import Enum
from math import lcm
from typing import NamedTuple, Optional

import numpy as np

from .arith import GHParams, _check_int, fib_mod, is_prime

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


def pisano_periods_range(m_max: int, m_min: int = 2) -> np.ndarray:
    """Periods for every modulus in [m_min, m_max], by order-finding.

    Returns an int64 array aligned with range(m_min, m_max + 1).
    """
    m_min = _check_int(m_min, "m_min", 2, BRUTE_FORCE_MODULUS_CAP)
    m_max = _check_int(m_max, "m_max", m_min, BRUTE_FORCE_MODULUS_CAP)
    return np.array(
        [_period(m, _factorize(m)) for m in range(m_min, m_max + 1)], dtype=np.int64
    )


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
