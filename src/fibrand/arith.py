"""Exact modular arithmetic primitives.

Primality testing, enumeration of the odd primes, Fibonacci residues by
fast doubling, Gopala-Hemachandra terms, and modular square roots (used by
the closed-form Fibonacci evaluation ``binet_fib_mod``).

Everything here is a pure function of its arguments.  ``_check_int`` is the
one integer-domain check of the package: it turns numpy integers into Python
integers, so all arithmetic is done on Python integers and cannot overflow.
"""

import operator
from math import isqrt, log
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "FibPair",
    "GHParams",
    "is_prime",
    "sieve_primes",
    "nth_prime",
    "fib_mod",
    "gh_term",
    "mod_sqrt",
    "binet_fib_mod",
]

# Seed pair (a, b) of a Gopala-Hemachandra sequence: a, b, a+b, a+2b, ...
GHParams = tuple[int, int]


class FibPair(NamedTuple):
    """(F(n) mod m, F(n+1) mod m) for some n and modulus m."""

    f_n: int
    f_n1: int


def _check_int(value, name: str, lo=None, hi=None) -> int:
    """``value`` as a Python int; ValueError unless it is an integer in [lo, hi].

    bool and numpy.bool_ are rejected, as is anything without ``__index__``
    (float, str).  A bound of None is open.
    """
    if type(value) is not int:
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        if hi is None:
            raise ValueError(f"{name} must be >= {lo}, got {value}")
        bound = f"<= {hi}" if lo is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


# The first 12 primes as witnesses make Miller-Rabin deterministic for all
# n < 318665857834031151167461 (about 3.18e23), covering 64-bit inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461

_TRIAL_LIMIT = 1_000_000


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 318665857834031151167461.

    Trial division below one million, Miller-Rabin with a fixed witness set
    above it.  Larger n raise ValueError rather than get a probabilistic answer.
    """
    n = _check_int(n, "n", hi=_MR_BOUND - 1)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    if n < _TRIAL_LIMIT:
        d = 5
        while d * d <= n:
            if n % d == 0 or n % (d + 2) == 0:
                return False
            d += 6
        return True

    # Miller-Rabin: write n-1 = 2^s * d with d odd.
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending, by sieve of Eratosthenes."""
    limit = _check_int(limit, "limit")
    if limit < 2:
        return []
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return [int(p) for p in np.flatnonzero(flags)]


# Cache of odd primes (3, 5, 7, 11, ...), grown on demand.  The list is never
# mutated: growing it builds a new list and rebinds the name in one step, so a
# reader that took the list into a local keeps a consistent prefix.  Racing
# growers may leave a shorter list bound; that costs a later re-sieve, never a
# wrong answer.
_odd_primes: list[int] = []


def _odd_primes_upto(count: int) -> list[int]:
    """A list of at least ``count`` odd primes, ascending."""
    global _odd_primes
    primes = _odd_primes
    if len(primes) >= count:
        return primes
    # k-th odd prime is the (k+1)-th prime; p_k < k(ln k + ln ln k) for k >= 6
    k = count + 1
    limit = 32 if k < 6 else int(k * (log(k) + log(log(k)))) + 16
    while True:
        primes = sieve_primes(limit)[1:]
        if len(primes) >= count:
            _odd_primes = primes
            return primes
        limit *= 2


def nth_prime(k: int) -> int:
    """The k-th prime >= 3 (so nth_prime(1) == 3).

    2 is excluded on purpose: the prime-period classification that consumes
    this enumeration is defined over odd primes only.
    """
    k = _check_int(k, "prime index", 1)
    return _odd_primes_upto(k)[k - 1]


def fib_mod(n: int, m: int) -> FibPair:
    """(F(n) mod m, F(n+1) mod m) by fast doubling, O(log n) multiplications.

    F(0) = 0, F(1) = 1.  Uses the identities
    F(2k) = F(k)(2F(k+1) - F(k)) and F(2k+1) = F(k)^2 + F(k+1)^2.
    """
    n = _check_int(n, "index", 0)
    m = _check_int(m, "modulus", 2)
    a, b = 0, 1  # F(0), F(1)
    for i in range(n.bit_length() - 1, -1, -1):
        c = a * ((2 * b - a) % m) % m
        d = (a * a + b * b) % m
        if (n >> i) & 1:
            a, b = d, (c + d) % m
        else:
            a, b = c, d
    return FibPair(a, b)


def gh_term(params: GHParams, n: int, m: int) -> int:
    """n-th term of the (a, b) Gopala-Hemachandra sequence mod m.

    GH(0) = a, GH(1) = b, GH(n) = GH(n-1) + GH(n-2).  Evaluated in O(log n)
    via GH(n) = a*F(n-1) + b*F(n), where F(-1) = 1 is recovered from the
    fast-doubling pair as F(n+1) - F(n).
    """
    a, b = (_check_int(v, "seed") for v in params)
    m = _check_int(m, "modulus", 2)
    f_n, f_n1 = fib_mod(n, m)
    f_prev = (f_n1 - f_n) % m
    return (a * f_prev + b * f_n) % m


def mod_sqrt(a: int, p: int) -> Optional[int]:
    """Square root of a modulo an odd prime p, or None for a non-residue.

    Tonelli-Shanks, with the direct exponentiation shortcut for p = 3 mod 4.
    When a root exists the smaller of the two roots is returned, so the
    result is deterministic.
    """
    p = _check_int(p, "p", 3)
    if p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    a = _check_int(a, "residue", 0, p - 1)
    if a == 0:
        return 0
    # Euler's criterion
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)

    # Factor p-1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Any quadratic non-residue serves as the group generator.
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m_ord = s
    while t != 1:
        t2i = t
        i = 0
        for i in range(1, m_ord):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m_ord - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m_ord = i
    return min(r, p - r)


def binet_fib_mod(n: int, p: int) -> int:
    """F(n) mod p through the closed form (u^n - v^n) / sqrt(5).

    u = (1 + sqrt(5))/2 and v = (1 - sqrt(5))/2 evaluated in mod-p
    arithmetic, which requires 5 to be a quadratic residue mod p; that holds
    exactly for primes ending in 1 or 9.  Other primes (and p = 5 itself,
    where sqrt(5) degenerates to 0) are rejected.

    The root choice does not matter: swapping the two square roots swaps u
    and v, negating both the numerator and the denominator.
    """
    n = _check_int(n, "index", 0)
    p = _check_int(p, "p")
    if p in (2, 5) or not is_prime(p):
        raise ValueError(f"p must be an odd prime other than 5, got {p}")
    root5 = mod_sqrt(5 % p, p)
    if root5 is None:
        raise ValueError(
            f"5 is not a quadratic residue mod {p}; "
            "the closed form is only defined for primes ending in 1 or 9"
        )
    inv2 = (p + 1) // 2
    u = (1 + root5) * inv2 % p
    v = (1 - root5) * inv2 % p
    return (pow(u, n, p) - pow(v, n, p)) * pow(root5, -1, p) % p
