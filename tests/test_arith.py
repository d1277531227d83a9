import sys
from concurrent.futures import ThreadPoolExecutor
from math import isqrt

import numpy as np
import pytest

from fibrand import arith
from fibrand.arith import (
    FibPair,
    binet_fib_mod,
    fib_mod,
    gh_term,
    is_prime,
    mod_sqrt,
    nth_prime,
    sieve_primes,
)


def trial_division_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def fib_residues(m, upto):
    """F(0..upto) mod m by direct iteration."""
    out = [0, 1]
    for _ in range(upto - 1):
        out.append((out[-1] + out[-2]) % m)
    return out


class TestIsPrime:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, False),
            (1, False),
            (2, True),
            (3, True),
            (4, False),
            (91, False),  # 7 * 13
            (97, True),
            (101, True),
            (561, False),  # Carmichael
            (7919, True),
        ],
    )
    def test_small_knowns(self, n, expected):
        assert is_prime(n) is expected

    def test_matches_trial_division_below_3000(self):
        for n in range(3000):
            assert is_prime(n) == trial_division_is_prime(n), n

    @pytest.mark.parametrize(
        "n,expected",
        [
            (2147483647, True),  # 2^31 - 1
            (2305843009213693951, True),  # 2^61 - 1
            (1000000007, True),
            (1000000000039, True),
            (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
            (1000006000009, False),  # 1000003^2
            (67280421310721, True),
        ],
    )
    def test_miller_rabin_range(self, n, expected):
        assert is_prime(n) is expected


class TestPrimeEnumeration:
    def test_first_values(self):
        assert [nth_prime(k) for k in range(1, 6)] == [3, 5, 7, 11, 13]

    def test_25th_is_101(self):
        assert nth_prime(25) == 101

    def test_agrees_with_sieve(self):
        odd = [p for p in sieve_primes(20000) if p != 2]
        assert [nth_prime(k) for k in range(1, len(odd) + 1)] == odd

    def test_grows_past_cache(self):
        p = nth_prime(30000)
        assert is_prime(p)
        assert nth_prime(29999) < p

    def test_threads_growing_the_cache(self, monkeypatch):
        # 8 threads ask for staggered, growing indices from an empty cache, so
        # growths of different sizes race; a reader must never see another
        # thread's shorter list or a half-built one.
        threads, rounds = 8, 40
        odd = sieve_primes(120000)[1:]
        monkeypatch.setattr(arith, "_odd_primes", [])

        def ask(t):
            ks = [(r * threads + t) * 35 + 1 for r in range(rounds)]
            return [(k, nth_prime(k)) for k in ks + ks[::-3]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(ask, t) for t in range(threads)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(p == odd[k - 1] for result in results for k, p in result)

    @pytest.mark.parametrize("k", [0, -1])
    def test_bad_index(self, k):
        with pytest.raises(ValueError):
            nth_prime(k)

    def test_sieve_edges(self):
        assert sieve_primes(1) == []
        assert sieve_primes(2) == [2]
        assert sieve_primes(10) == [2, 3, 5, 7]


class TestFibMod:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (0, 7, (0, 1)),
            (1, 7, (1, 1)),
            (10, 1000, (55, 89)),
            (4, 3, (0, 2)),
        ],
    )
    def test_knowns(self, n, m, expected):
        assert fib_mod(n, m) == FibPair(*expected)

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 97, 144, 500])
    def test_against_iteration(self, m):
        ref = fib_residues(m, 401)
        for n in range(400):
            assert fib_mod(n, m) == (ref[n], ref[n + 1]), (n, m)

    def test_against_iteration_sampled_large_n(self, rng):
        for _ in range(200):
            m = rng.randrange(2, 501)
            n = rng.randrange(0, 10**4 + 1)
            ref = fib_residues(m, n + 1)
            assert fib_mod(n, m) == (ref[n], ref[n + 1])

    def test_pair_consistency(self, rng):
        for _ in range(300):
            n = rng.randrange(0, 10**6)
            m = rng.randrange(2, 10**4)
            assert fib_mod(n + 1, m).f_n == fib_mod(n, m).f_n1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fib_mod(-1, 5)
        with pytest.raises(ValueError):
            fib_mod(3, 1)
        with pytest.raises(ValueError):
            fib_mod(3, 0)


class TestGhTerm:
    def test_lucas_type_opening(self):
        # seed (2, 1): 2, 1, 3, 4, 7, 11
        assert [gh_term((2, 1), n, 1000) for n in range(6)] == [2, 1, 3, 4, 7, 11]

    def test_known_values(self):
        assert gh_term((2, 1), 5, 1000) == 11
        assert gh_term((2, 1), 4, 5) == 2

    def test_seed_0_1_is_fibonacci(self, rng):
        for _ in range(100):
            n = rng.randrange(0, 10**5)
            m = rng.randrange(2, 1000)
            assert gh_term((0, 1), n, m) == fib_mod(n, m).f_n

    def test_recurrence(self, rng):
        for _ in range(100):
            a, b = rng.randrange(-50, 50), rng.randrange(-50, 50)
            m = rng.randrange(2, 300)
            n = rng.randrange(2, 201)
            lhs = gh_term((a, b), n, m)
            rhs = (gh_term((a, b), n - 1, m) + gh_term((a, b), n - 2, m)) % m
            assert lhs == rhs

    def test_decomposition_into_fibonacci(self, rng):
        # GH(a, b) = GH(a, b-1) + F termwise
        for _ in range(100):
            a, b = rng.randrange(0, 50), rng.randrange(0, 50)
            m = rng.randrange(2, 300)
            n = rng.randrange(0, 201)
            lhs = gh_term((a, b), n, m)
            rhs = (gh_term((a, b - 1), n, m) + fib_mod(n, m).f_n) % m
            assert lhs == rhs

    def test_negative_seeds_reduced(self):
        assert gh_term((-1, 1), 0, 5) == 4


class TestModSqrt:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 41, 97, 101, 193])
    def test_exhaustive_small_primes(self, p):
        squares = {x * x % p for x in range(p)}
        found = 0
        for a in range(p):
            r = mod_sqrt(a, p)
            if a in squares:
                assert r is not None
                assert r * r % p == a
                assert r <= p - r or a == 0  # smaller root returned
                found += 1
            else:
                assert r is None
        assert found == (p + 1) // 2  # 0 plus (p-1)/2 residues

    def test_knowns(self):
        assert mod_sqrt(4, 11) == 2
        assert mod_sqrt(5, 11) == 4
        assert mod_sqrt(5, 7) is None
        assert mod_sqrt(0, 13) == 0

    def test_large_prime_one_mod_eight(self):
        # p-1 with a big power of two exercises the full Tonelli-Shanks loop
        p = 786433  # 3 * 2^18 + 1
        for a in (2, 5, 1234, 786432):
            r = mod_sqrt(a, p)
            if r is not None:
                assert r * r % p == a

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mod_sqrt(1, 4)
        with pytest.raises(ValueError):
            mod_sqrt(1, 2)
        with pytest.raises(ValueError):
            mod_sqrt(11, 11)
        with pytest.raises(ValueError):
            mod_sqrt(-1, 11)


class TestBinetFibMod:
    def test_knowns(self):
        assert binet_fib_mod(0, 11) == 0
        assert binet_fib_mod(1, 11) == 1
        assert binet_fib_mod(3, 11) == 2
        assert binet_fib_mod(7, 19) == 13

    def test_matches_fast_doubling_small_n(self):
        eligible = [p for p in sieve_primes(500) if p % 10 in (1, 9)]
        assert eligible  # sanity
        for p in eligible:
            for n in range(100):
                assert binet_fib_mod(n, p) == fib_mod(n, p).f_n, (n, p)

    def test_matches_fast_doubling_large_n(self, rng):
        for p in (11, 19, 29, 101, 1009, 9949):
            for _ in range(50):
                n = rng.randrange(0, 10**9)
                assert binet_fib_mod(n, p) == fib_mod(n, p).f_n

    @pytest.mark.parametrize("p", [5, 7, 23, 4, 2, 21, 1])
    def test_rejects_out_of_domain(self, p):
        # 7, 23 end in 3/7 (5 is a non-residue); 21 ends in 1 but is composite
        with pytest.raises(ValueError):
            binet_fib_mod(3, p)


class TestIsPrimeBound:
    # 399165290221 * 798330580441, the least strong pseudoprime to the
    # witnesses 2..37: the first input those 12 witnesses get wrong
    PSI_12 = 318665857834031151167461

    def test_raises_at_and_above_the_bound(self):
        assert 399165290221 * 798330580441 == self.PSI_12
        for n in (self.PSI_12, self.PSI_12 + 2, 10**30):
            with pytest.raises(ValueError, match="must be <="):
                is_prime(n)

    def test_below_the_bound(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(self.PSI_12 - 1)  # the largest accepted input


class TestIntegerDomain:
    """Integer arguments: Python or numpy ints; bool, float and str raise."""

    def test_check_int_messages(self):
        assert arith._check_int(np.int64(7), "m", 2) == 7
        assert type(arith._check_int(np.uint8(7), "m")) is int
        with pytest.raises(ValueError, match=r"^m must be >= 2, got 1$"):
            arith._check_int(1, "m", 2)
        with pytest.raises(ValueError, match=r"^m must be in \[2, 9\], got 10$"):
            arith._check_int(np.int32(10), "m", 2, 9)
        with pytest.raises(ValueError, match=r"^m must be <= 9, got 10$"):
            arith._check_int(10, "m", hi=9)
        with pytest.raises(ValueError, match=r"^m must be an integer, got 2.0$"):
            arith._check_int(2.0, "m")

    @pytest.mark.parametrize("bad", [True, False, np.True_, 7.0, np.float64(7), "7", None])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: is_prime(x),
            lambda x: sieve_primes(x),
            lambda x: nth_prime(x),
            lambda x: fib_mod(x, 7),
            lambda x: fib_mod(5, x),
            lambda x: gh_term((x, 1), 3, 7),
            lambda x: gh_term((2, x), 3, 7),
            lambda x: gh_term((2, 1), x, 7),
            lambda x: gh_term((2, 1), 3, x),
            lambda x: mod_sqrt(x, 11),
            lambda x: mod_sqrt(5, x),
            lambda x: binet_fib_mod(x, 11),
            lambda x: binet_fib_mod(3, x),
        ],
    )
    def test_rejects_non_integers(self, call, bad):
        with pytest.raises(ValueError):
            call(bad)

    def test_numpy_ints_match_python_ints(self):
        # int64 products would overflow here; Python ints cannot
        assert fib_mod(10**6, np.int64(10**12)) == fib_mod(10**6, 10**12)
        assert fib_mod(np.int64(10**6), 10**12) == fib_mod(10**6, 10**12)
        big = (np.int64(3), np.int64(5)), np.int64(10**6), np.int64(10**12)
        assert gh_term(*big) == gh_term((3, 5), 10**6, 10**12)
        assert type(gh_term(*big)) is int
        assert mod_sqrt(np.int64(5), np.int64(11)) == mod_sqrt(5, 11)
        assert binet_fib_mod(np.int64(10), np.int64(11)) == binet_fib_mod(10, 11)
        assert nth_prime(np.int64(4)) == nth_prime(4) == 11
        assert is_prime(np.int64(2**61 - 1))
        assert sieve_primes(np.int16(10)) == [2, 3, 5, 7]
