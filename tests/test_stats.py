import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibrand import stats
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


def pm1_array(vals):
    return np.array(vals, dtype=np.int64)


@pytest.fixture
def direct_sums(monkeypatch):
    """The direct lag sums; a fallback to them inside stats fails the test."""
    direct = stats._direct_lag_sums

    def fallback(vals):
        pytest.fail(f"FFT lag sums fell back to direct sums at n = {vals.size}")

    monkeypatch.setattr(stats, "_direct_lag_sums", fallback)
    return direct


class TestLagSums:
    """FFT lag sums against the O(n^2) direct dot products."""

    @given(st.lists(st.sampled_from((1, -1)), min_size=2, max_size=600))
    def test_fft_matches_direct(self, vals):
        v = pm1_array(vals)
        want = stats._direct_lag_sums(v).tolist()
        with mock.patch.object(stats, "_direct_lag_sums", side_effect=AssertionError):
            assert stats._truncated_lag_sums(v).tolist() == want

    @pytest.mark.parametrize(
        "vals",
        [
            [1, -1],
            [1, 1],
            [1, -1, -1],
            [-1, 1, 1],
            [(-1) ** (j * j // 3) for j in range(4097)],  # 2n-1 = 8193 > 2^13; FFT length 8640
            [1] * 20000,
            [(-1) ** j for j in range(20000)],
        ],
        ids=["n2-alt", "n2-const", "n3-a", "n3-b", "n4097", "const-2e4", "alt-2e4"],
    )
    def test_fixed_cases(self, vals, direct_sums):
        v = pm1_array(vals)
        assert stats._truncated_lag_sums(v).tolist() == direct_sums(v).tolist()

    # Each perturbation of the inverse FFT is caught by one check alone: the
    # distance to the nearest integer, s_0 = n, the parity of n-k, the bound
    # |s_k| <= n-k (a constant vector has s_k = n-k), and the direct
    # cross-check at lag n//2.
    @pytest.mark.parametrize(
        "const, lag, delta",
        [(False, 3, 0.4), (False, 0, -2.0), (False, 3, 1.0), (True, 5, 2.0), (False, 32, 2.0)],
        ids=["rounding", "lag-zero", "parity", "bound", "cross-check"],
    )
    def test_falls_back_to_direct_sums(self, monkeypatch, rng, const, lag, delta):
        v = pm1_array([1] * 64 if const else random_pm1(rng, 64))
        want = stats._direct_lag_sums(v).tolist()
        irfft = np.fft.irfft

        def perturbed(*args, **kwargs):
            out = irfft(*args, **kwargs)
            out[lag] += delta
            return out

        fallbacks = []

        def direct(vals):
            fallbacks.append(vals.size)
            return pm1_array(want)

        monkeypatch.setattr(stats.np.fft, "irfft", perturbed)
        monkeypatch.setattr(stats, "_direct_lag_sums", direct)
        assert stats._truncated_lag_sums(v).tolist() == want
        assert fallbacks == [64]

    @pytest.mark.parametrize("convention", list(Convention))
    def test_million_terms_sampled_lags(self, convention, direct_sums):
        # the CLI's --length cap; direct sums would take about 20 minutes
        n = 10**6
        vals = np.random.default_rng(2015).choice(np.array([1, -1]), n)
        start = time.perf_counter()
        c = autocorrelation(vals, convention).values
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"{elapsed:.2f} s at n = {n}"
        lags = [0, 1, 2, 3, n // 3, n // 2, n - 2, n - 1]
        lags += np.random.default_rng(7).integers(1, n, 16).tolist()
        for k in lags:
            if convention is Convention.CIRCULAR:
                want = int(vals @ np.roll(vals, -k)) / n
            else:
                want = int(vals[: n - k] @ vals[k:]) / (n - k)
            assert c[k] == want, k


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


class TestPm1Values:
    """Values are checked before the int64 cast: no truncation, no bools."""

    @pytest.mark.parametrize(
        "bad",
        [
            [1.5, -1.0, 1.0],
            [1.9, -1, 1],
            [1.0, -1.0, 1.0],
            np.ones(4, dtype=bool),
            np.array([1, -1, 1], dtype=object),
            [2**70, 1, -1],
        ],
    )
    def test_rejected_by_both_estimators(self, bad):
        for fn in (autocorrelation, aperiodic_randomness):
            with pytest.raises(ValueError, match="^sequence values must be \\+1 or -1$"):
                fn(bad)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.int64])
    def test_any_integer_dtype(self, rng, dtype):
        vals = random_pm1(rng, 50)
        if dtype is np.uint8:
            vals = [1] * 50
        arr = np.array(vals, dtype=dtype)
        for convention in Convention:
            got = autocorrelation(arr, convention).values
            assert got.tolist() == autocorrelation(vals, convention).values.tolist()
        assert aperiodic_randomness(arr) == aperiodic_randomness(vals)
