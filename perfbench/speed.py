"""Machine-speed probes that put job times on a fixed scale.

A shared machine's speed drifts by up to about 2x over tens of seconds, and
all code slows together.  Each probe is a fixed piece of work, owned by the
benchmark and never changed, whose speed tracks that of one or more of the
workloads.  The benchmark times a probe next to every job and scales the
job's time by ``NOMINAL_S[kind] / probe time``: the figures then read as
times on a machine that runs the probe in its nominal time, and a change to
fibrand moves them while a change in machine speed mostly does not.
"""

from time import perf_counter

import numpy as np

# Probe durations on a 2-vCPU Intel Xeon VM at its usual speed (Python 3.11,
# numpy 2.4); they set the scale of the reported times and never change.
NOMINAL_S = {
    "python": 1.5e-3,
    "numpy-dot": 1.5e-3,
}

_X = np.random.default_rng(0).choice(np.array([-1, 1]), size=8000)
_XX = np.concatenate([_X, _X])


def _python():
    # Modular arithmetic on small Python ints, as in fast doubling.  It also
    # tracks the range scan, a Python loop of numpy steps on arrays of a few
    # hundred moduli, better than a probe made of such steps.
    a, b, m = 0, 1, 1_000_003
    for i in range(7500):
        a, b = b, (a * a + b * b + i) % m
    return a


def _numpy_dot():
    # Integer dot products of +-1 vectors, as in the lag sums of autocorrelation.
    s = 0
    for k in range(0, 8000, 50):
        s += int(_X @ _XX[k : k + 8000])
    return s


_PROBES = {"python": _python, "numpy-dot": _numpy_dot}


def probe(kind):
    """Seconds the `kind` probe takes now."""
    work = _PROBES[kind]
    t0 = perf_counter()
    work()
    return perf_counter() - t0
