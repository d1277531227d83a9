"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced for a fraction of a second with tiny inputs,
where the oracles check every output position, and requires every check to
pass.  Then corrupts one result at a time (a flipped key bit, a wrong period,
a wrong autocorrelation lag) and requires the checks to catch and count it.
Runs ``run.py --trace 1`` on every workload for a second, and checks the
program's prime periods against pair iteration.  Also requires run.py's
metric names and units to match BENCHMARK.json.  Exits non-zero on the first
failure.
"""

import json
import subprocess
import sys
from time import perf_counter
from unittest import mock

import run

run.import_program()

import workloads  # noqa: E402  (needs fibrand on the path first)
from fibrand import binseq, keystream, periods, stats  # noqa: E402


def tiny(name, seed=7):
    return {
        "prime-keys": lambda: workloads.PrimeKeys(seed, max_start=300, bits=(8, 40)),
        "moduli-scan": lambda: workloads.ModuliScan(seed, moduli=(2, 400), counts=(2, 24), samples=24),
        "randomness-score": lambda: workloads.RandomnessScore(seed, lengths=(8, 64), lags=64),
    }[name]()


def expect(condition, message):
    if not condition:
        sys.exit(f"smoke: FAIL: {message}")
    print(f"smoke: ok: {message}")


def corrupt_once(fn, corrupt):
    """fn with its first result passed through `corrupt`."""
    calls = []

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(1)
        return corrupt(out) if len(calls) == 1 else out

    return wrapper


def flip_first_bit(data):
    return bytes([data[0] ^ 0x80]) + data[1:]


def wrong_period(periods):
    periods = periods.copy()
    p = int(periods[0])  # any value of the other residue class mod 8 flips the bit
    periods[0] = p + 8 - p % 8 if p % 8 else p + 1
    return periods


def wrong_lag(profile):
    values = profile.values.copy()
    values[1] += 2 / profile.n
    return stats.AutocorrProfile(values, profile.convention, profile.n)


CORRUPTIONS = {
    "prime-keys": ("a flipped key bit", keystream, "pack_bits", flip_first_bit),
    "moduli-scan": ("a wrong period", binseq, "pisano_periods_range", wrong_period),
    "randomness-score": ("a wrong autocorrelation lag", stats, "autocorrelation", wrong_lag),
}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "end-to-end metric names and units match BENCHMARK.json")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "per-layer metric names and units match BENCHMARK.json")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "workload names match BENCHMARK.json")

    primes = [int(p) for p in workloads.odd_primes(300)]
    wrong = [p for p in primes if periods.pisano_period_prime(p).period != workloads.pair_period(p)]
    expect(not wrong, f"pisano_period_prime matches pair iteration on the first 300 odd "
                      f"primes (mismatches: {wrong[:5]})")

    deadline = perf_counter() + 120
    for name in workloads.WORKLOADS:
        loops, metrics = run.end_to_end(tiny(name), 0.3, deadline)
        jobs = sum(len(loop.latencies) for loop in loops)
        expect(jobs and not any(loop.failed for loop in loops) and set(metrics) == set(run.END_TO_END),
               f"{name}: {jobs} tiny end-to-end jobs pass every check")

        proc = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name, "--seed", "7",
             "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(result["attempted"] >= 2 and result["failed"] == 0
               and set(result["metrics"]) == set(run.PER_LAYER),
               f"{name}: {result['attempted']} traced and replayed jobs pass every check "
               f"and report every per-layer metric")

        what, module, attr, corrupt = CORRUPTIONS[name]
        workload = tiny(name)
        workload.warm()
        with mock.patch.object(module, attr, corrupt_once(getattr(module, attr), corrupt)):
            loop = run.closed_loop(workload, 0.3, deadline)
        expect(loop.failed >= 1, f"{name}: {what} is caught and counted "
               f"({loop.failed} of {len(loop.latencies)} jobs failed: {loop.problems[:1]})")


if __name__ == "__main__":
    main()
