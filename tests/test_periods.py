import numpy as np
import pytest

from fibrand.arith import fib_mod, sieve_primes
from fibrand.periods import (
    BRUTE_FORCE_MODULUS_CAP,
    ClassificationError,
    PrimeClass,
    _class_multiple,
    expected_equality_moduli,
    gh_period,
    pisano_period_bruteforce,
    pisano_period_prime,
    pisano_periods_range,
    verify_period_bound,
)

# period values recomputed independently by direct iteration
KNOWN_PERIODS = {
    2: 3, 3: 8, 4: 6, 5: 20, 6: 24, 7: 16, 8: 12, 9: 24, 10: 60,
    11: 10, 12: 24, 24: 24, 25: 100, 50: 300, 60: 120, 100: 300,
    144: 24, 343: 784, 1000: 1500, 2023: 2448,
}


class TestBruteForce:
    @pytest.mark.parametrize("m,period", sorted(KNOWN_PERIODS.items()))
    def test_known_periods(self, m, period):
        assert pisano_period_bruteforce(m) == period

    def test_period_is_a_pair_recurrence(self, rng):
        for _ in range(40):
            m = rng.randrange(2, 500)
            n = pisano_period_bruteforce(m)
            assert fib_mod(n, m) == (0, 1)

    def test_minimality(self, rng):
        # no proper prime-quotient divisor of the period hits (0, 1)
        for _ in range(40):
            m = rng.randrange(2, 500)
            n = pisano_period_bruteforce(m)
            for q in range(2, n + 1):
                if n % q == 0 and all(q % d for d in range(2, q)):
                    assert fib_mod(n // q, m) != (0, 1), (m, n, q)

    @pytest.mark.parametrize("m", [1, 0, -3, BRUTE_FORCE_MODULUS_CAP + 1])
    def test_rejects_out_of_range(self, m):
        with pytest.raises(ValueError):
            pisano_period_bruteforce(m)


class TestBatchedRange:
    def test_matches_scalar(self):
        periods = pisano_periods_range(300)
        for m, n in zip(range(2, 301), periods):
            assert int(n) == pisano_period_bruteforce(m)
        # prime powers and 2 * 5^n, where the multiple p^(k-1) * b(p) is
        # stripped down to the true period
        powers = [
            base**k
            for base, top in ((2, 16), (3, 9), (5, 6), (7, 5))
            for k in range(2, top + 1)
        ]
        powers += [2 * 5**k for k in range(1, 7)]
        for m in powers:
            assert list(pisano_periods_range(m, m_min=m)) == [
                pisano_period_bruteforce(m)
            ], m
        window = pisano_periods_range(60015, m_min=60000)
        assert [int(n) for n in window] == [
            pisano_period_bruteforce(m) for m in range(60000, 60016)
        ]

    def test_offset_range(self):
        periods = pisano_periods_range(250, m_min=240)
        assert [int(n) for n in periods] == [
            pisano_period_bruteforce(m) for m in range(240, 251)
        ]

    def test_single_modulus(self):
        assert list(pisano_periods_range(7, m_min=7)) == [16]

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            pisano_periods_range(1)
        with pytest.raises(ValueError):
            pisano_periods_range(10, m_min=20)


class TestPrimeClassification:
    def test_agrees_with_bruteforce_below_2000(self):
        for p in sieve_primes(2000):
            if p == 2:
                continue
            rec = pisano_period_prime(p)
            assert rec.period == pisano_period_bruteforce(p), p

    @pytest.mark.parametrize(
        "p,period,klass,label",
        [
            (3, 8, PrimeClass.DIVISOR_OF_2P_PLUS_2, "2p+2"),
            (5, 20, PrimeClass.SPECIAL_FIVE, "5(p-1)"),
            (11, 10, PrimeClass.DIVISOR_OF_P_MINUS_1, "p-1"),
            (29, 14, PrimeClass.DIVISOR_OF_P_MINUS_1, "(p-1)/2"),
            (47, 32, PrimeClass.DIVISOR_OF_2P_PLUS_2, "(2p+2)/3"),
            (89, 44, PrimeClass.DIVISOR_OF_P_MINUS_1, "(p-1)/2"),
            (101, 50, PrimeClass.DIVISOR_OF_P_MINUS_1, "(p-1)/2"),
        ],
    )
    def test_specific_records(self, p, period, klass, label):
        rec = pisano_period_prime(p)
        assert (rec.modulus, rec.period, rec.klass, rec.ratio_label) == (
            p, period, klass, label,
        )

    def test_bit_signs(self):
        assert pisano_period_prime(3).bit == -1
        assert pisano_period_prime(5).bit == 1
        assert pisano_period_prime(11).bit == 1

    def test_class_matches_last_digit(self):
        for p in sieve_primes(5000):
            if p in (2, 5):
                continue
            rec = pisano_period_prime(p)
            if p % 10 in (1, 9):
                assert rec.klass is PrimeClass.DIVISOR_OF_P_MINUS_1
                assert (p - 1) % rec.period == 0
            else:
                assert rec.klass is PrimeClass.DIVISOR_OF_2P_PLUS_2
                assert (2 * p + 2) % rec.period == 0

    def test_pair_bound(self):
        for p in sieve_primes(300):
            if p == 2:
                continue
            assert pisano_period_prime(p).period <= p * p - 1

    @pytest.mark.parametrize("p", [3, 7, 11, 13, 59])
    def test_wrong_class_multiple_raises(self, monkeypatch, p):
        # half the true multiple is not a multiple of the period here, so
        # the engine must refuse rather than return a wrong period
        monkeypatch.setattr(
            "fibrand.periods._class_multiple", lambda q: _class_multiple(q) // 2
        )
        with pytest.raises(ClassificationError):
            pisano_period_prime(p)

    @pytest.mark.parametrize("p", [2, 4, 9, 91, 1])
    def test_rejects_non_candidates(self, p):
        with pytest.raises(ValueError):
            pisano_period_prime(p)


class TestGhPeriod:
    def test_knowns(self):
        assert gh_period((0, 1), 3) == 8
        assert gh_period((2, 1), 5) == 4
        assert gh_period((2, 1), 3) == 8

    def test_fibonacci_seed_equals_pisano(self, rng):
        for _ in range(30):
            m = rng.randrange(2, 400)
            assert gh_period((0, 1), m) == pisano_period_bruteforce(m)

    def test_divides_pisano_period(self, rng):
        for _ in range(50):
            m = rng.randrange(2, 201)
            a, b = rng.randrange(m), rng.randrange(m)
            if a == 0 and b == 0:
                b = 1
            assert pisano_period_bruteforce(m) % gh_period((a, b), m) == 0

    def test_period_actually_recurs(self, rng):
        for _ in range(20):
            m = rng.randrange(2, 100)
            a, b = rng.randrange(1, m), rng.randrange(m)
            n = gh_period((a, b), m)
            seq = [a % m, b % m]
            for _ in range(2 * n):
                seq.append((seq[-1] + seq[-2]) % m)
            assert seq[n] == seq[0] and seq[n + 1] == seq[1]

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError):
            gh_period((0, 0), 7)
        with pytest.raises(ValueError):
            gh_period((14, 21), 7)  # zero after reduction


class TestPeriodBound:
    @pytest.mark.parametrize(
        "m_max,expected",
        [(9, []), (10, [10]), (249, [10, 50]), (250, [10, 50, 250])],
    )
    def test_equality_sets(self, m_max, expected):
        checks = verify_period_bound(m_max)
        assert all(c.bound_met for c in checks)
        assert [c.modulus for c in checks if c.equality] == expected

    def test_reports_every_modulus(self):
        checks = verify_period_bound(50)
        assert [c.modulus for c in checks] == list(range(2, 51))
        assert checks[8].period == 60  # m = 10

    def test_expected_equality_moduli(self):
        assert expected_equality_moduli(9) == []
        assert expected_equality_moduli(10**4) == [10, 50, 250, 1250, 6250]


class TestIntegerDomain:
    @pytest.mark.parametrize("bad", [True, np.True_, 7.0, "7"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: pisano_period_prime(x),
            lambda x: pisano_period_bruteforce(x),
            lambda x: pisano_periods_range(x),
            lambda x: pisano_periods_range(20, x),
            lambda x: gh_period((x, 1), 7),
            lambda x: gh_period((2, x), 7),
            lambda x: gh_period((2, 1), x),
        ],
    )
    def test_rejects_non_integers(self, call, bad):
        with pytest.raises(ValueError):
            call(bad)

    def test_float_seed_is_not_iterated(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            gh_period((2.5, 1), 7)

    def test_numpy_ints_match_python_ints(self):
        got = pisano_periods_range(np.int64(300), np.int32(200))
        assert got.tolist() == pisano_periods_range(300, 200).tolist()
        rec = pisano_period_prime(np.int64(47))
        assert rec == pisano_period_prime(47)
        assert type(rec.modulus) is int
        assert gh_period((np.int64(2), np.int8(1)), np.int64(5)) == 4
