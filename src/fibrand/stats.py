"""Autocorrelation and the derived randomness measure for +1/-1 sequences.

C(k) = (1/n) * sum_j B(j) B(j+k), with the out-of-range index handled by one
of two conventions:

* CIRCULAR: indices wrap mod n; the sum always has n terms.
* LINEAR_UNBIASED: the sum stops at j = n-1-k and is divided by n-k.

The lag-k sums are exact integers (the values are +1/-1), divided once, so
each C(k) is within one ulp of the true rational value.  They come from one
real FFT pair in O(n log n), rounded to integers and checked for exactness at
run time, by whole-vector invariants of a +1/-1 vector and by direct dot
products at three fixed lags; if a check fails, the O(n^2) direct sums are
used instead.

R(x) = 1 - mean(|C(k)|, k = 1..n-1): 0 for a constant sequence, approaching
1 for an ideal random one.

``aperiodic_randomness`` gives R under the aperiodic estimator: C(k) is the
truncated lag-k sum divided by n, not by n-k, which is the formula above read
literally for a finite record with no terms past its end.  R comes from one
correctly rounded division of integers.  The truncated sums of a constant
sequence are n-k, so it gives R = 1/2 there, not 0.  Unlike the circular R,
it does not depend on how the window length meets a period of the sequence.
It is a function of its own rather than a third ``Convention``, because
callers take every ``Convention`` member to be a profile scored by
``randomness_measure``, whose R for a constant sequence is 0.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Convention",
    "AutocorrProfile",
    "aperiodic_randomness",
    "autocorrelation",
    "randomness_measure",
    "profile_csv",
]


class Convention(Enum):
    CIRCULAR = "circular"
    LINEAR_UNBIASED = "linear-unbiased"


@dataclass(frozen=True)
class AutocorrProfile:
    """C(k) for k = 0..n-1 under a named boundary convention."""

    values: np.ndarray
    convention: Convention
    n: int


def _as_pm1_array(seq) -> np.ndarray:
    vals = np.asarray(getattr(seq, "values", seq))
    if vals.ndim != 1 or vals.size < 2:
        raise ValueError("need a one-dimensional sequence of length >= 2")
    # before the cast, which would turn 1.5 into 1; bool is not an integer
    # dtype, but asarray merges bools listed among ints into an integer array
    if (
        not np.issubdtype(vals.dtype, np.integer)
        or not np.all(np.abs(vals) == 1)
        or (
            isinstance(seq, (list, tuple))
            and any(isinstance(v, (bool, np.bool_)) for v in seq)
        )
    ):
        raise ValueError("sequence values must be +1 or -1")
    return vals.astype(np.int64, copy=False)


def _direct_lag_sums(vals: np.ndarray) -> np.ndarray:
    """s_k = sum_{j < n-k} B(j) B(j+k) for k = 0..n-1, one dot product per lag.

    O(n^2); the fallback of ``_truncated_lag_sums`` and its test oracle.
    """
    n = vals.size
    sums = np.empty(n, dtype=np.int64)
    for k in range(n):
        sums[k] = vals[: n - k] @ vals[k:]
    return sums


def _fft_length(m: int) -> int:
    """The least 2^a 3^b 5^c >= m: a length numpy's FFT handles fast."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _truncated_lag_sums(vals: np.ndarray) -> np.ndarray:
    """s_k = sum_{j < n-k} B(j) B(j+k) for k = 0..n-1, as exact integers.

    One real FFT pair gives every s_k in O(n log n): the inverse transform of
    the power spectrum of B, zero-padded to at least 2n-1 so that no lag
    wraps.  The rounded sums are returned only if every exactness check
    holds: each raw value lies within 1/4 of its integer, s_0 = n, each s_k
    has the parity of n-k and |s_k| <= n-k (true of any +1/-1 vector), and
    direct dot products agree at lags 1, n//2 and n-1.  Otherwise the direct
    sums are returned.
    """
    n = vals.size
    size = _fft_length(2 * n - 1)
    spec = np.fft.rfft(vals.astype(np.float64), size)
    power = spec.real**2
    power += spec.imag**2
    del spec
    raw = np.fft.irfft(power, size)[:n]
    del power
    sums = np.rint(raw)
    exact = np.abs(raw - sums).max() < 0.25
    del raw
    sums = sums.astype(np.int64)
    overlap = np.arange(n, 0, -1)
    if (
        exact
        and sums[0] == n
        and not np.any((sums - overlap) % 2)
        and np.all(np.abs(sums) <= overlap)
        and all(sums[k] == vals[: n - k] @ vals[k:] for k in (1, n // 2, n - 1))
    ):
        return sums
    return _direct_lag_sums(vals)


def autocorrelation(seq, convention: Convention = Convention.CIRCULAR) -> AutocorrProfile:
    """Normalized autocorrelation of a +1/-1 sequence at every lag.

    Accepts a BinarySequence or any sequence of +1/-1 values.
    """
    vals = _as_pm1_array(seq)
    n = vals.size
    if convention is Convention.CIRCULAR:
        # circular lag k wraps the truncated lag n-k onto lag k
        sums = _truncated_lag_sums(vals)
        sums[1:] += sums[:0:-1]
        c = sums / n
    elif convention is Convention.LINEAR_UNBIASED:
        c = _truncated_lag_sums(vals) / (n - np.arange(n))
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return AutocorrProfile(c, convention, n)


def randomness_measure(profile: AutocorrProfile) -> float:
    """1 minus the mean absolute off-peak autocorrelation, in [0, 1]."""
    n = profile.n
    return float(1.0 - np.abs(profile.values[1:]).sum() / (n - 1))


def aperiodic_randomness(seq) -> float:
    """R = 1 - sum(|s_k|, k = 1..n-1) / (n(n-1)) from truncated lag sums s_k.

    Accepts a BinarySequence or any sequence of +1/-1 values, and raises the
    same ValueErrors as ``autocorrelation``.  In [0, 1]; exactly 1/2 for a
    constant or an alternating sequence.
    """
    vals = _as_pm1_array(seq)
    n = vals.size
    total = int(np.abs(_truncated_lag_sums(vals)[1:]).sum())
    return (n * (n - 1) - total) / (n * (n - 1))


def profile_csv(profile: AutocorrProfile) -> str:
    """CSV rows "k,C(k)" with values at 17 significant digits."""
    lines = ["k,C(k)"]
    lines.extend(f"{k},{v:.17g}" for k, v in enumerate(profile.values.tolist()))
    return "\n".join(lines)
