import numpy as np
import pytest

from fibrand import arith, periods
from fibrand.arith import sieve_primes
from fibrand.binseq import (
    BinarySequence,
    SequenceKind,
    general_moduli_sequence,
    prime_indexed_sequence,
    to_bit_string,
    to_lines,
)
from fibrand.periods import pisano_period_prime

# sign column for the first 25 odd primes, frozen from the classification
FIRST_25_SIGNS = (
    -1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, 1, -1,
    -1, -1, 1, 1, -1, 1, -1, 1, -1, 1, -1, 1,
)


class TestPrimeIndexed:
    def test_first_four(self):
        assert prime_indexed_sequence(4).values == (-1, 1, -1, 1)

    def test_first_25(self):
        assert prime_indexed_sequence(25).values == FIRST_25_SIGNS

    def test_start_at_25th_prime(self):
        seq = prime_indexed_sequence(1, start_index=25)
        assert seq.values == (1,)  # p = 101, period 50 = (p-1)/2
        assert seq.start == 101

    def test_metadata(self):
        seq = prime_indexed_sequence(3)
        assert seq.kind is SequenceKind.PRIME_INDEXED
        assert seq.start == 3
        assert seq.length == len(seq) == 3

    @pytest.mark.parametrize("a,b", [(4, 3), (10, 15), (1, 24)])
    def test_concatenation_consistency(self, a, b):
        whole = prime_indexed_sequence(a + b).values
        left = prime_indexed_sequence(a).values
        right = prime_indexed_sequence(b, start_index=a + 1).values
        assert whole == left + right

    @pytest.mark.parametrize("count,start", [(0, 1), (-2, 1), (5, 0)])
    def test_rejects_bad_arguments(self, count, start):
        with pytest.raises(ValueError):
            prime_indexed_sequence(count, start)

    def test_start_index_capped_at_1e6(self, monkeypatch):
        # a start of 1e6 grows the shared odd-prime cache to 1e6 primes
        monkeypatch.setattr(arith, "_odd_primes", arith._odd_primes)
        assert prime_indexed_sequence(1, 10**6).start == 15485867  # the 1e6-th odd prime
        with pytest.raises(ValueError, match=r"start index must be in \[1, 1000000\], got 1000001"):
            prime_indexed_sequence(1, 10**6 + 1)

    @pytest.mark.parametrize(
        "count,start,limit",
        [
            (20_000, 1, 230_000),  # the first 2e4 odd primes
            (1024, 99_000, 1_400_000),  # the range of the prime keys
            (1024, 10**6 - 1023, 15_500_000),  # up to the 1e6 cap
        ],
    )
    def test_matches_period_oracle(self, count, start, limit):
        seq = prime_indexed_sequence(count, start)
        primes = sieve_primes(limit)[start : start + count]  # [0] is 2
        assert len(primes) == count and seq.start == primes[0]
        assert seq.values == tuple(pisano_period_prime(p).bit for p in primes)

    def test_computes_no_period(self, monkeypatch):
        def no_period(*args):
            raise AssertionError("the class theorem needs no period")

        monkeypatch.setattr(periods, "_period", no_period)
        monkeypatch.setattr(periods, "fib_mod", no_period)
        assert prime_indexed_sequence(25).values == FIRST_25_SIGNS
        assert prime_indexed_sequence(8, start_index=10**5).length == 8


class TestGeneralModuli:
    def test_first_two(self):
        # periods 3 and 8: only the second is a multiple of 8
        assert general_moduli_sequence(2).values == (-1, 1)

    def test_single_values(self):
        assert general_moduli_sequence(1, start_modulus=7).values == (1,)  # period 16
        assert general_moduli_sequence(1, start_modulus=10).values == (-1,)  # period 60

    def test_metadata(self):
        seq = general_moduli_sequence(5, start_modulus=4)
        assert seq.kind is SequenceKind.GENERAL_MODULI
        assert seq.start == 4
        assert len(seq) == 5

    def test_restart_consistency(self):
        whole = general_moduli_sequence(30).values
        left = general_moduli_sequence(10).values
        right = general_moduli_sequence(20, start_modulus=12).values
        assert whole == left + right

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            general_moduli_sequence(0)
        with pytest.raises(ValueError):
            general_moduli_sequence(3, start_modulus=1)


class TestBinarySequenceType:
    def test_rejects_non_pm1_values(self):
        with pytest.raises(ValueError):
            BinarySequence((1, 0, -1), SequenceKind.PRIME_INDEXED, 3)
        with pytest.raises(ValueError):
            BinarySequence((), SequenceKind.PRIME_INDEXED, 3)

    def test_iteration(self):
        seq = prime_indexed_sequence(4)
        assert list(seq) == [-1, 1, -1, 1]


class TestSerialization:
    def test_lines(self):
        assert to_lines(prime_indexed_sequence(4)) == "-1\n+1\n-1\n+1"

    def test_bit_string(self):
        assert to_bit_string(prime_indexed_sequence(8)) == "01010010"

    def test_bit_string_full_column(self):
        assert to_bit_string(prime_indexed_sequence(25)) == "0101001011010001101010101"


class TestIntegerDomain:
    @pytest.mark.parametrize("bad", [True, np.True_, 1.0, np.float64(-1), "1"])
    def test_sequence_rejects_non_integer_values(self, bad):
        with pytest.raises(ValueError, match="sequence values must be"):
            BinarySequence((1, bad, -1), SequenceKind.PRIME_INDEXED, 3)

    def test_sequence_accepts_numpy_ints(self):
        seq = BinarySequence((np.int64(1), np.int8(-1)), SequenceKind.GENERAL_MODULI, 2)
        assert to_lines(seq) == "+1\n-1"

    @pytest.mark.parametrize("bad", [True, np.True_, 3.0, "3"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: prime_indexed_sequence(x),
            lambda x: prime_indexed_sequence(3, x),
            lambda x: general_moduli_sequence(x),
            lambda x: general_moduli_sequence(3, x),
        ],
    )
    def test_builders_reject_non_integers(self, call, bad):
        with pytest.raises(ValueError):
            call(bad)

    def test_builders_take_numpy_ints(self):
        seq = prime_indexed_sequence(np.int64(5), np.int32(3))
        assert seq == prime_indexed_sequence(5, 3)
        seq = general_moduli_sequence(np.int64(5), np.uint16(7))
        assert seq == general_moduli_sequence(5, 7)
        assert type(seq.start) is int
