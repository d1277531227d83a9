from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibrand.binseq import prime_indexed_sequence
from fibrand.stats import (
    AutocorrProfile,
    Convention,
    aperiodic_randomness,
    autocorrelation,
    profile_csv,
    randomness_measure,
)


def brute_autocorr(vals, convention):
    """Plain double-loop evaluation, independent of the array path."""
    n = len(vals)
    out = []
    for k in range(n):
        if convention is Convention.CIRCULAR:
            s = sum(vals[j] * vals[(j + k) % n] for j in range(n))
            out.append(s / n)
        else:
            s = sum(vals[j] * vals[j + k] for j in range(n - k))
            out.append(s / (n - k))
    return out


def direct_aperiodic(vals):
    """R from direct truncated lag sums, each |C(k)| = |s_k|/n as a Fraction."""
    n = len(vals)
    mean_abs = sum(
        Fraction(abs(sum(vals[j] * vals[j + k] for j in range(n - k))), n)
        for k in range(1, n)
    ) / (n - 1)
    return float(1 - mean_abs)


pm1_vectors = st.lists(st.sampled_from((1, -1)), min_size=2, max_size=80)


def random_pm1(rng, n):
    return [rng.choice((1, -1)) for _ in range(n)]


class TestAutocorrelation:
    @pytest.mark.parametrize("convention", list(Convention))
    def test_lag_zero_is_one(self, rng, convention):
        for _ in range(50):
            vals = random_pm1(rng, rng.randrange(2, 64))
            profile = autocorrelation(vals, convention)
            assert profile.values[0] == 1.0

    def test_constant_sequence(self):
        profile = autocorrelation([1] * 8)
        assert profile.values.tolist() == [1.0] * 8

    def test_alternating_circular(self):
        profile = autocorrelation([1, -1, 1, -1], Convention.CIRCULAR)
        assert profile.values.tolist() == [1.0, -1.0, 1.0, -1.0]

    @pytest.mark.parametrize("convention", list(Convention))
    def test_matches_double_loop(self, rng, convention):
        # n = 2 (lag 1 is its own wrap n-k) and n = 3 (lags 1 and 2 wrap
        # onto each other)
        fixed = [[1, -1], [1, 1], [1, -1, -1], [-1, 1, 1]]
        for vals in fixed + [random_pm1(rng, rng.randrange(2, 40)) for _ in range(25)]:
            got = autocorrelation(vals, convention).values
            want = brute_autocorr(vals, convention)
            assert got.tolist() == want  # same exact integer sums, same division

    def test_circular_symmetry(self, rng):
        for _ in range(25):
            n = rng.randrange(2, 50)
            vals = random_pm1(rng, n)
            c = autocorrelation(vals, Convention.CIRCULAR).values
            for k in range(1, n):
                assert c[k] == c[n - k]

    @pytest.mark.parametrize("convention", list(Convention))
    def test_negation_invariance(self, rng, convention):
        vals = random_pm1(rng, 33)
        flipped = [-v for v in vals]
        a = autocorrelation(vals, convention).values
        b = autocorrelation(flipped, convention).values
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("convention", list(Convention))
    def test_bounded_by_one(self, rng, convention):
        for _ in range(20):
            vals = random_pm1(rng, rng.randrange(2, 80))
            c = autocorrelation(vals, convention).values
            assert np.all(np.abs(c) <= 1.0)

    def test_accepts_binary_sequence(self):
        seq = prime_indexed_sequence(16)
        direct = autocorrelation(seq).values
        via_list = autocorrelation(list(seq.values)).values
        assert direct.tolist() == via_list.tolist()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            autocorrelation([1])
        with pytest.raises(ValueError):
            autocorrelation([])
        with pytest.raises(ValueError):
            autocorrelation([1, 2, -1])
        with pytest.raises(ValueError):
            autocorrelation([[1, -1], [1, -1]])


class TestRandomnessMeasure:
    def test_constant_is_exactly_zero(self):
        for n in (2, 5, 17, 100):
            profile = autocorrelation([1] * n)
            assert randomness_measure(profile) == 0.0

    def test_alternating_circular_is_exactly_zero(self):
        for n in (4, 8, 30):
            vals = [(-1) ** j for j in range(n)]
            profile = autocorrelation(vals, Convention.CIRCULAR)
            assert randomness_measure(profile) == 0.0

    @pytest.mark.parametrize("convention", list(Convention))
    def test_within_unit_interval(self, rng, convention):
        for _ in range(50):
            vals = random_pm1(rng, rng.randrange(2, 100))
            r = randomness_measure(autocorrelation(vals, convention))
            assert 0.0 <= r <= 1.0

    def test_reference_sequence_values(self):
        # frozen from this implementation; guards against regressions
        seq = prime_indexed_sequence(175)
        r = randomness_measure(autocorrelation(seq, Convention.CIRCULAR))
        assert round(r, 4) == 0.9458


class TestAperiodicRandomness:
    @given(pm1_vectors)
    def test_matches_exact_direct_sums(self, vals):
        assert aperiodic_randomness(vals) == direct_aperiodic(vals)

    @given(pm1_vectors)
    def test_negation_invariance(self, vals):
        flipped = [-v for v in vals]
        assert aperiodic_randomness(flipped) == aperiodic_randomness(vals)

    @pytest.mark.parametrize("n", [2, 3, 7, 40, 301])
    def test_constant_and_alternating_are_exactly_half(self, n):
        assert aperiodic_randomness([1] * n) == 0.5
        assert aperiodic_randomness([-1] * n) == 0.5
        assert aperiodic_randomness([(-1) ** j for j in range(n)]) == 0.5

    def test_accepts_binary_sequence(self):
        seq = prime_indexed_sequence(16)
        assert aperiodic_randomness(seq) == aperiodic_randomness(list(seq.values))

    def test_rejects_bad_input(self):
        for bad in ([1], [], [1, 2, -1], [[1, -1], [1, -1]]):
            with pytest.raises(ValueError) as want:
                autocorrelation(bad)
            with pytest.raises(ValueError) as got:
                aperiodic_randomness(bad)
            assert str(got.value) == str(want.value)


class TestCsvEmission:
    def test_header_and_shape(self):
        profile = autocorrelation([1, -1, 1, -1])
        lines = profile_csv(profile).splitlines()
        assert lines[0] == "k,C(k)"
        assert len(lines) == 5
        assert lines[1] == "0,1"
        assert lines[2] == "1,-1"

    def test_seventeen_significant_digits_roundtrip(self, rng):
        vals = random_pm1(rng, 37)
        profile = autocorrelation(vals)
        for line in profile_csv(profile).splitlines()[1:]:
            k, v = line.split(",")
            assert float(v) == profile.values[int(k)]  # 17 digits: lossless
