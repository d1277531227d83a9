from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fibrand.arith import gh_term
from fibrand.binseq import SequenceKind
from fibrand.keystream import (
    KeyOrigin,
    gh_residue_stream,
    keygen_from_primes,
    pack_bits,
    regenerate,
)


class TestKeygen:
    def test_first_four_bits(self):
        assert keygen_from_primes(4).bits == (0, 1, 0, 1)

    def test_single_bit_at_second_prime(self):
        assert keygen_from_primes(1, start_prime_index=2).bits == (1,)

    def test_first_25_bits_string(self):
        key = keygen_from_primes(25)
        assert key.bit_string() == "0101001011010001101010101"

    def test_first_byte_hex(self):
        assert keygen_from_primes(8).hex() == "52"

    def test_origin_describes_generation(self):
        key = keygen_from_primes(12, start_prime_index=3)
        assert key.origin == KeyOrigin(SequenceKind.PRIME_INDEXED, 3, 12)
        assert "start=3" in key.origin.describe()

    def test_regenerate_round_trip(self):
        key = keygen_from_primes(64, start_prime_index=5)
        assert regenerate(key.origin) == key

    def test_regenerate_rejects_other_kinds(self):
        origin = KeyOrigin(SequenceKind.GENERAL_MODULI, 2, 8)
        with pytest.raises(ValueError):
            regenerate(origin)

    def test_thread_pool_determinism(self):
        origin = keygen_from_primes(128, start_prime_index=2).origin
        reference = regenerate(origin).bits
        for workers in (1, 4, 8):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(regenerate, [origin] * 16))
            assert all(k.bits == reference for k in results)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            keygen_from_primes(0)


class TestPackBits:
    @pytest.mark.parametrize(
        "bits,expected",
        [
            ([1, 0, 0, 0, 0, 0, 0, 0], b"\x80"),
            ([0, 1, 0, 1], b"\x50"),
            ([1] * 8 + [0] * 7 + [1], b"\xff\x01"),
            ([], b""),
            ([1], b"\x80"),
        ],
    )
    def test_packing(self, bits, expected):
        assert pack_bits(bits) == expected

    def test_round_trip_whole_bytes(self, rng):
        for _ in range(20):
            bits = [rng.randrange(2) for _ in range(8 * rng.randrange(1, 9))]
            packed = pack_bits(bits)
            unpacked = [(byte >> (7 - i)) & 1 for byte in packed for i in range(8)]
            assert unpacked == bits

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            pack_bits([1, 2, 0])


class TestGhResidueStream:
    def test_opening_terms(self):
        assert gh_residue_stream((2, 1), 1000, 6) == [2, 1, 3, 4, 7, 11]

    def test_fibonacci_mod_3(self):
        assert gh_residue_stream((0, 1), 3, 8) == [0, 1, 1, 2, 0, 2, 2, 1]

    def test_reduction_mod_5(self):
        assert gh_residue_stream((2, 1), 5, 5) == [2, 1, 3, 4, 2]

    def test_single_term(self):
        assert gh_residue_stream((2, 1), 1000, 1, start_n=5) == [11]

    def test_consistent_with_gh_term(self, rng):
        for _ in range(100):
            a, b = rng.randrange(-20, 20), rng.randrange(-20, 20)
            m = rng.randrange(2, 500)
            if a % m == 0 and b % m == 0:
                a = 1
            start = rng.randrange(0, 10**4)
            count = rng.randrange(1, 12)
            stream = gh_residue_stream((a, b), m, count, start)
            i = rng.randrange(count)
            assert stream[i] == gh_term((a, b), start + i, m)

    def test_rejects_degenerate_and_bad_arguments(self):
        with pytest.raises(ValueError):
            gh_residue_stream((0, 0), 7, 4)
        with pytest.raises(ValueError):
            gh_residue_stream((7, 14), 7, 4)
        with pytest.raises(ValueError):
            gh_residue_stream((2, 1), 7, 0)
        with pytest.raises(ValueError):
            gh_residue_stream((2, 1), 1, 4)
        with pytest.raises(ValueError):
            gh_residue_stream((2, 1), 7, 4, start_n=-1)


class TestIntegerDomain:
    @pytest.mark.parametrize("bad", [True, np.True_, 8.0, "8"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: keygen_from_primes(x),
            lambda x: keygen_from_primes(8, x),
            lambda x: gh_residue_stream((x, 1), 7, 4),
            lambda x: gh_residue_stream((2, 1), x, 4),
            lambda x: gh_residue_stream((2, 1), 7, x),
            lambda x: gh_residue_stream((2, 1), 7, 4, x),
        ],
    )
    def test_rejects_non_integers(self, call, bad):
        with pytest.raises(ValueError):
            call(bad)

    def test_origin_holds_python_ints(self):
        key = keygen_from_primes(np.int64(16), np.int64(3))
        assert key == keygen_from_primes(16, 3)
        assert type(key.origin.start) is int and type(key.origin.count) is int
        assert key.origin.describe() == "kind=prime-indexed start=3 count=16"

    def test_stream_of_numpy_arguments(self):
        stream = gh_residue_stream(
            (np.int64(2), np.int64(1)), np.int64(10**12), np.int64(5), np.int64(10**6)
        )
        assert stream == gh_residue_stream((2, 1), 10**12, 5, 10**6)
        assert all(type(v) is int for v in stream)
