"""The benchmark's workloads: seeded inputs, the timed job, and its oracles.

Each workload is a closed loop with one client: the next job is issued only
after the previous one returned.  A workload object offers

* ``warm()``: the program-side set-up, run once before timing;
* ``jobs()``: an endless, seeded stream of blocks (lists) of job descriptions;
* ``prepare(job)``: builds the program's input (untimed);
* ``run(inp)``: the timed call through fibrand's public entry points;
* ``items(job)``: the work a job completes, for ``items_per_s``;
* ``check(job, inp, out)``: oracle checks (untimed), a list of problems.

The program only ever sees the generated argv or vectors, never the seed.
The oracles are the benchmark's own code, independent of the program's
algorithms: a separate sieve with the period-class rule, pair iteration and
direct integer dot products.  Sizes are stratified over log-width bins, one
job per bin in each block, and a run is whole blocks, so that the mix of job
sizes, and with it every run total, stays steady across seeds.
"""

import contextlib
import io
import itertools
import math

import numpy as np

import warmup
from fibrand import cli, stats
from fibrand.stats import Convention


def log_grid_blocks(rng, axes):
    """Endless blocks of jobs, one per cell of a grid of equal log-width bins.

    `axes` holds one (lo, hi, bins) per job parameter.  Each block covers
    every cell once, in shuffled order, as (cell, values) pairs.  Inside its
    cell a value sits at a fraction of the bin that starts at a seeded random
    point and advances every second block by a low-discrepancy (R_d) step,
    so successive blocks fill each cell evenly; the block in between takes
    the mirrored fraction 1 - f, which cancels most of the effect of the
    random start on a run's mean job size.  The mix of job sizes, and with it
    every run total, then barely depends on the seed."""
    d = len(axes)
    g = 2.0
    for _ in range(50):  # g solves g**(d + 1) == g + 1
        g = (1 + g) ** (1 / (d + 1))
    step = np.array([g ** -(a + 1) for a in range(d)])
    cells = list(itertools.product(*(range(bins) for _, _, bins in axes)))
    frac = rng.random((len(cells), d))
    while True:
        for fracs in (frac, 1.0 - frac):
            block = [
                (cell, tuple(
                    int(round(lo * (hi / lo) ** ((i + f) / bins)))
                    for i, f, (lo, hi, bins) in zip(cell, fracs[c], axes)
                ))
                for c, cell in enumerate(cells)
            ]
            yield [block[i] for i in rng.permutation(len(block))]
        frac = (frac + step) % 1.0


def run_cli(argv):
    """fibrand.cli.main in-process with stdout captured; raises on non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit directly
            code = exc.code
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ---- oracles -------------------------------------------------------------


def odd_primes(count):
    """The first `count` odd primes, by a sieve over odd numbers only."""
    limit = max(64, int(count * (math.log(count) + math.log(math.log(count + 2)))) + 64)
    while True:
        odd = np.ones(limit // 2, dtype=bool)  # odd[i] stands for 2i + 1
        odd[0] = False
        for i in range(1, (math.isqrt(limit) + 1) // 2):
            if odd[i]:
                odd[2 * i * (i + 1) :: 2 * i + 1] = False
        primes = 2 * np.flatnonzero(odd) + 1
        if primes.size >= count:
            return primes[:count]
        limit *= 2


def pair_period(m):
    """Fibonacci period mod m: steps until the pair (0, 1) recurs."""
    a, b, k = 1, 1, 1
    while a != 0 or b != 1:
        a, b = b, (a + b) % m
        k += 1
    return k


def key_bit(p):
    """An odd prime's key bit: 1 when the class rule puts its period under
    p - 1 (last digit 1 or 9) or p is 5, else 0 (period divides 2p + 2)."""
    return 1 if p == 5 or p % 10 in (1, 9) else 0


# ---- workloads -----------------------------------------------------------


class PrimeKeys:
    """keygen over seeded prime-index windows; about half the jobs repeat."""

    name = "prime-keys"
    tail_pct = 95
    item_name = "primes classified"
    probe = "python"

    def __init__(self, seed, max_start=warmup.PRIME_KEYS_MAX_START,
                 bits=(64, warmup.PRIME_KEYS_MAX_BITS)):
        self.seed = seed
        self.max_start = max_start
        self.bits = bits
        self.primes = odd_primes(max_start + bits[1] - 1)
        self.first_hex = {}

    def warm(self):
        warmup.warm(self.name)

    def jobs(self):
        # Blocks of one fresh job per (start, bits) cell plus, from the second
        # block on, the previous block's fresh jobs again.  About half the jobs
        # then repeat an earlier one, and the repeats have the same stratified
        # mix of sizes as the fresh jobs; random picks from all earlier jobs
        # made the median job time depend on the seed.
        rng = np.random.default_rng(seed=self.seed)
        previous = []
        for fresh in log_grid_blocks(rng, [(1, self.max_start, 4), (*self.bits, 4)]):
            block = [job for _, job in fresh]
            both = block + previous
            previous = block
            yield [both[i] for i in rng.permutation(len(both))]

    def prepare(self, job):
        start, bits = job
        return ["keygen", "--bits", str(bits), "--start", str(start), "--format", "hex"]

    def run(self, argv):
        return run_cli(argv)

    def items(self, job):
        return job[1]

    def check(self, job, argv, out):
        start, bits = job
        got = out.strip()
        primes = self.primes[start - 1 : start - 1 + bits]
        want = np.packbits([key_bit(int(p)) for p in primes]).tobytes().hex()
        problems = []
        if got != want:
            problems.append(f"{job}: hex {got[:16]}... expected {want[:16]}...")
        if self.first_hex.setdefault(job, got) != got:
            problems.append(f"{job}: repeated job returned a different key")
        return problems


class ModuliScan:
    """bits --kind general over seeded modulus windows."""

    name = "moduli-scan"
    tail_pct = 90
    item_name = "moduli whose period was computed"
    probe = "python"

    def __init__(self, seed, moduli=(2, 60_000), counts=(256, 1024), samples=3):
        self.seed = seed
        self.moduli = moduli
        self.counts = counts
        self.samples = samples
        self.check_rng = np.random.default_rng([seed, 1])

    def warm(self):
        warmup.warm(self.name)

    def jobs(self):
        # The start modulus sets a job's cost, so it alone is binned; the
        # count is spread inside each cell by the low-discrepancy step.  A
        # job's time follows the longest period in its window, which jumps
        # from modulus to modulus; windows of at least 256 moduli smooth it,
        # so the median job time does not depend on the seed.
        blocks = log_grid_blocks(np.random.default_rng(seed=self.seed),
                                 [(*self.moduli, 8), (*self.counts, 1)])
        for block in blocks:
            yield [job for _, job in block]

    def prepare(self, job):
        start, count = job
        return ["bits", "--kind", "general", "--count", str(count), "--start", str(start)]

    def run(self, argv):
        return run_cli(argv)

    def items(self, job):
        return job[1]

    def check(self, job, argv, out):
        start, count = job
        values = out.strip().split(",")
        if len(values) != count:
            return [f"{job}: {len(values)} values, expected {count}"]
        # Both window ends, where off-by-one faults show, and random inner moduli.
        inner = self.check_rng.choice(count, size=min(count, self.samples), replace=False)
        picks = {0, count - 1, *inner.tolist()}
        problems = []
        for i in sorted(picks):
            m = start + i
            want = "1" if pair_period(m) % 8 == 0 else "-1"
            if values[i] != want:
                problems.append(f"m={m}: bit {values[i]}, expected {want}")
        return problems


class RandomnessScore:
    """autocorrelation (both conventions), R and the circular CSV of ±1 vectors."""

    name = "randomness-score"
    tail_pct = 90
    item_name = "sequence terms scored per convention"
    probe = "numpy-dot"

    # R under (circular, linear-unbiased), as printed in the README table.
    README_R = {
        ("prime-indexed", 1, 175): ("0.9458", "0.8887"),
        ("prime-indexed", 1, 300): ("0.9506", "0.8970"),
        ("general-moduli", 2, 300): ("0.7936", "0.7762"),
    }

    def __init__(self, seed, lengths=(1000, 20_000), lags=4):
        self.seed = seed
        self.lengths = lengths
        self.lags = lags
        self.readme = None
        self.check_rng = np.random.default_rng([seed, 1])

    def warm(self):
        self.readme = warmup.warm(self.name)

    def jobs(self):
        yield [("readme", key) for key in self.README_R]
        rng = np.random.default_rng(seed=self.seed)
        for block in log_grid_blocks(rng, [(*self.lengths, 16)]):
            yield [("random", n, int(rng.integers(2**63))) for _, (n,) in block]

    def prepare(self, job):
        if job[0] == "readme":
            return self.readme[job[1]]
        _, n, vector_seed = job
        return np.random.default_rng(vector_seed).choice(np.array([-1, 1]), size=n)

    def run(self, seq):
        profiles = {c: stats.autocorrelation(seq, c) for c in Convention}
        rs = {c: stats.randomness_measure(p) for c, p in profiles.items()}
        return profiles, rs, stats.profile_csv(profiles[Convention.CIRCULAR])

    def items(self, job):
        n = len(self.readme[job[1]]) if job[0] == "readme" else job[1]
        return n * len(Convention)

    def check(self, job, seq, out):
        profiles, rs, csv = out
        x = np.asarray(getattr(seq, "values", seq), dtype=np.int64)
        n = x.size
        inner = 1 + self.check_rng.choice(n - 1, size=min(n - 1, self.lags), replace=False)
        lags = {1, n - 1, *inner.tolist()}  # the first and last lag, and random ones
        problems = []
        for c, prof in profiles.items():
            c_k = prof.values
            if prof.n != n or len(c_k) != n or c_k[0] != 1.0:
                problems.append(f"{c.value} n={n}: bad length or C(0) = {c_k[0]}")
                continue
            for k in lags:
                if c is Convention.CIRCULAR:
                    want = int(x @ np.roll(x, -k)) / n
                else:
                    want = int(x[: n - k] @ x[k:]) / (n - k)
                if abs(c_k[k] - want) > 1e-12:
                    problems.append(f"{c.value} n={n}: C({k}) = {c_k[k]}, expected {want}")
            r = 1.0 - np.abs(c_k[1:]).sum() / (n - 1)
            if abs(rs[c] - r) > 1e-12:
                problems.append(f"{c.value} n={n}: R = {rs[c]}, expected {r}")
        rows = csv.split("\n")
        if rows[0] != "k,C(k)" or len(rows) != n + 1:
            problems.append(f"n={n}: CSV has header {rows[0]!r} and {len(rows) - 1} rows")
        else:
            circular = profiles[Convention.CIRCULAR].values
            for k in lags:
                row_k, row_c = rows[k + 1].split(",")
                if int(row_k) != k or float(row_c) != circular[k]:
                    problems.append(f"n={n}: CSV row {rows[k + 1]!r} for C({k}) = {circular[k]}")
        if job[0] == "readme":
            got = tuple(f"{rs[c]:.4f}" for c in Convention)
            if got != self.README_R[job[1]]:
                problems.append(f"{job[1]}: R = {got}, README table says {self.README_R[job[1]]}")
        return problems


WORKLOADS = {w.name: w for w in (PrimeKeys, ModuliScan, RandomnessScore)}
