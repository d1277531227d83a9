"""fibrand benchmark: one closed-loop run of one workload.

    python3 perfbench/run.py --workload prime-keys --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; fibrand is imported from its ``src``
directory, nothing is installed.  One client sends one job at a time, in
this one process.  With ``--trace 0`` the run reports the end-to-end
metrics; job times are scaled by a machine-speed probe (see ``speed.py``)
and the unscaled figures are printed beside them.  With ``--trace 1`` it
runs the seeded job stream from its start with every public function of
fibrand wrapped (see ``spans.py``), runs each job again untraced in a fresh
interpreter (``untraced.py``) for the tracing overhead, and reports
per-layer metrics.  Human-readable lines come first; the last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``smoke.py`` tests the benchmark itself at tiny sizes; ``baseline.py`` runs
every workload over several seeds, prints each metric's spread and writes
``baseline.json``.
"""

import os

# One client, one process, no extra threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: "<module>.<function>.<stat>" from the traced run.  The
# calls, self_s and moduli stats are taken over the traced jobs and divided by
# the items those jobs complete (the unit of items_per_s), so they measure the
# work per item and not how many jobs fit in the run.  setup_s is the function's
# self time in the workload's warm-up, a fixed amount of work.
PER_LAYER = {
    "arith.fib_mod.calls": "1/item",
    "arith.fib_mod.self_s": "s/item",
    "arith.is_prime.calls": "1/item",
    "arith.is_prime.self_s": "s/item",
    "periods.pisano_period_prime.calls": "1/item",
    "periods.pisano_period_prime.self_s": "s/item",
    "periods.fib_mod_per_prime": "ratio",
    "arith.nth_prime.self_s": "s/item",
    "arith.nth_prime.setup_s": "s",
    "arith.sieve_primes.self_s": "s/item",
    "arith.sieve_primes.setup_s": "s",
    "periods.pisano_periods_range.calls": "1/item",
    "periods.pisano_periods_range.moduli": "1/item",
    "periods.pisano_periods_range.self_s": "s/item",
    "stats.autocorrelation.circular.self_s": "s/item",
    "stats.autocorrelation.linear-unbiased.self_s": "s/item",
    "stats.randomness_measure.self_s": "s/item",
    "stats.profile_csv.self_s": "s/item",
    "binseq.prime_indexed_sequence.self_s": "s/item",
    "binseq.general_moduli_sequence.self_s": "s/item",
    "keystream.keygen_from_primes.self_s": "s/item",
    "keystream.pack_bits.self_s": "s/item",
    "cli.main.self_s": "s/item",
    "trace.overhead_frac": "ratio",
}

SETUP_LAUNCHES = 7
# Jobs around each job whose median probe time scales it; a median over
# neighbours damps the probe's own jitter.
PROBE_WINDOW = 32
# A run must end within 180 s; stop issuing jobs well before that.
WALL_LIMIT_S = 150


def import_program():
    """Import fibrand from this checkout's src, never from an installed copy."""
    if not (SRC / "fibrand" / "__init__.py").is_file():
        sys.exit(f"error: no fibrand sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fibrand

    if Path(fibrand.__file__).resolve().parent != SRC / "fibrand":
        sys.exit(f"error: imported fibrand from {fibrand.__file__}, not {SRC}")


def measure_setup(workload):
    """Fresh interpreters importing fibrand.cli and warming up, median over
    launches: (wall seconds, CPU seconds, CPU seconds scaled by the python
    speed probe).  CPU time leaves out the waits for a CPU to start or wake
    the new process on, which made wall times of launches far noisier."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
        f"import fibrand.cli, warmup; warmup.warm({workload!r})"
    )
    wall, cpu, scaled = [], [], []
    for launch in range(SETUP_LAUNCHES + 1):  # the first launch only warms file caches
        probe_s = statistics.median(speed.probe("python") for _ in range(3))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        dt = perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        used = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        if launch:
            wall.append(dt)
            cpu.append(used)
            scaled.append(used * speed.NOMINAL_S["python"] / probe_s)
    return statistics.median(wall), statistics.median(cpu), statistics.median(scaled)


class Loop:
    """Results of one closed loop: per-job latency, probe time and check outcomes."""

    def __init__(self):
        self.latencies = []
        self.probes = []
        self.job_items = []
        self.failed = 0
        self.problems = []

    def record(self, latency, items, problems):
        self.latencies.append(latency)
        self.job_items.append(items)
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def scaled(self, kind):
        """Latencies times NOMINAL_S / the median probe of the PROBE_WINDOW
        jobs around each job."""
        half = PROBE_WINDOW // 2
        return [
            t * speed.NOMINAL_S[kind] / statistics.median(self.probes[max(0, i - half) : i + half])
            for i, t in enumerate(self.latencies)
        ]


def run_job(workload, job):
    """Run one job and check its output: (seconds, problems found)."""
    inp = workload.prepare(job)
    t0 = perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # a job that raises counts as failed, the loop goes on
        return perf_counter() - t0, [f"{job}: raised {exc!r}"]
    dt = perf_counter() - t0
    try:
        return dt, workload.check(job, inp, out)
    except Exception as exc:  # malformed output can break the oracle's parsing
        return dt, [f"{job}: check raised {exc!r}"]


def closed_loop(workload, budget_s, deadline, run_one=run_job):
    """Issue the workload's jobs one at a time through `run_one`, block by
    block, until `budget_s` seconds of job time are spent.  A block once begun
    is finished, so a run's mix of job sizes is whole blocks."""
    loop = Loop()
    busy = 0.0
    for block in workload.jobs():
        if busy >= budget_s:
            break
        for job in block:
            if perf_counter() > deadline:
                return loop
            loop.probes.append(speed.probe(workload.probe))
            dt, problems = run_one(workload, job)
            busy += dt
            loop.record(dt, workload.items(job), problems)
    return loop


def job_stats(latencies, items, tail_pct):
    """items per second, median latency, tail percentile, and jobs beyond the tail."""
    p_tail = float(statistics.quantiles(latencies, n=1000, method="inclusive")[tail_pct * 10 - 1])
    return (
        sum(items) / sum(latencies),
        statistics.median(latencies),
        p_tail,
        sum(1 for t in latencies if t > p_tail),
    )


def end_to_end(workload, seconds, deadline):
    setup_wall, setup_cpu, setup_scaled = measure_setup(workload.name)
    workload.warm()
    loop = closed_loop(workload, seconds, deadline)
    n = len(loop.latencies)
    rate, p50, p_tail, beyond = job_stats(loop.scaled(workload.probe), loop.job_items,
                                          workload.tail_pct)
    raw_rate, raw_p50, raw_tail, _ = job_stats(loop.latencies, loop.job_items, workload.tail_pct)
    metrics = {
        "setup_s": setup_scaled,
        "items_per_s": rate,
        "job_p50_ms": 1e3 * p50,
        "job_tail_ms": 1e3 * p_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"CPU time, median of {SETUP_LAUNCHES} fresh-interpreter launches; "
                   f"unscaled {setup_cpu:.4f} s, wall {setup_wall:.4f} s",
        "items_per_s": f"{workload.item_name} per second of job time, "
                       f"{sum(loop.job_items)} in {n} jobs; unscaled {raw_rate:.4f}",
        "job_p50_ms": f"median of {n} jobs; unscaled {1e3 * raw_p50:.4f} ms",
        "job_tail_ms": f"p{workload.tail_pct}, {beyond} of {n} jobs beyond it; "
                       f"unscaled {1e3 * raw_tail:.4f} ms",
        "peak_rss_mb": "peak resident memory of this process",
    }
    if beyond < 10:
        print(f"warning: only {beyond} jobs beyond p{workload.tail_pct}", file=sys.stderr)
    print(f"times scaled to the nominal speed of the {workload.probe!r} probe "
          f"(median probe {1e3 * statistics.median(loop.probes):.4f} ms, "
          f"nominal {1e3 * speed.NOMINAL_S[workload.probe]:.4f} ms)")
    for name, value in metrics.items():
        print(f"{name:<13} {value:>12.4f} {END_TO_END[name]:<4} {notes[name]}")
    print(f"{'failed_frac':<13} {loop.failed / n:>12.4f}      {loop.failed} of {n} jobs failed")
    return [loop], {name: (value, END_TO_END[name]) for name, value in metrics.items()}


def per_layer(workload, seconds, deadline):
    """Trace the seeded job stream from its start, while this process's
    program state is still fresh, so caches fill as they would untraced.
    Each job is then run untraced in a second fresh interpreter
    (``untraced.py``); the two sides alternate job by job, so drift in
    machine speed cancels out of the tracing overhead."""
    from spans import Tracer

    tracer = Tracer()
    plain = Loop()
    replay = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "untraced.py"), "--workload", workload.name,
         "--seed", str(workload.seed)],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )

    def run_both(workload, job):
        tracer.job = len(plain.latencies)
        dt, problems = run_job(workload, job)
        replay.stdin.write("\n")
        replay.stdin.flush()
        plain_dt, plain_problems = json.loads(replay.stdout.readline())
        plain.record(plain_dt, workload.items(job), plain_problems)
        return dt, problems

    try:
        with tracer:
            tracer.job = "setup"
            workload.warm()
            replay.stdout.readline()  # the replay has warmed up too
            traced = closed_loop(workload, seconds / 2, deadline, run_both)
        replay.stdin.close()
        replay.wait(timeout=30)
    finally:
        if replay.poll() is None:
            replay.kill()
            replay.wait()
    if replay.returncode:
        sys.exit(f"error: untraced replay exited with code {replay.returncode}")
    k = len(traced.latencies)
    overhead = sum(traced.latencies) / sum(plain.latencies) - 1

    items = sum(traced.job_items)
    calls, self_s, moduli, leaf_under = tracer.summary(lambda job: job != "setup")
    _, setup_self_s, _, _ = tracer.summary(lambda job: job == "setup")
    classified = calls["periods.pisano_period_prime"]
    attempts = leaf_under["arith.fib_mod", "periods.pisano_period_prime"]
    per_stat = {
        "calls": lambda fn: calls[fn] / items,
        "self_s": lambda fn: self_s[fn] / items,
        "moduli": lambda fn: moduli[fn] / items,
        "setup_s": lambda fn: setup_self_s[fn],
    }
    special = {
        "periods.fib_mod_per_prime": attempts / classified if classified else 0.0,
        "trace.overhead_frac": overhead,
    }
    values = {}
    for name in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        values[name] = special[name] if name in special else per_stat[stat](fn)

    total = sum(self_s.values())
    print(f"traced {k} jobs ({items} {workload.item_name}) from a fresh start, "
          f"each also run untraced; {len(tracer.spans)} spans, {total:.3f} s self time "
          f"in fibrand during jobs, {sum(setup_self_s.values()):.3f} s in warm-up")
    print("self time in jobs by function:")
    for fn, t in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {fn:<45} {t:>9.4f} s {100 * t / total:>5.1f}% {calls[fn]:>9} calls")
    by_module = defaultdict(float)
    for fn, t in self_s.items():
        by_module[fn.split(".")[0]] += t
    print("self time in jobs by module: " + ", ".join(
        f"{mod} {100 * t / total:.1f}%" for mod, t in sorted(by_module.items(), key=lambda kv: -kv[1])))
    print(f"periods.fib_mod_per_prime: {attempts} fib_mod attempts / {classified} classified primes")
    for name, value in values.items():
        print(f"{name:<46} {value:>14.6g} {PER_LAYER[name]}")
    return [traced, plain], {name: (value, PER_LAYER[name]) for name, value in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + WALL_LIMIT_S

    import_program()
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"python {sys.version.split()[0]}, numpy {np.__version__}, nproc {os.cpu_count()}")
    measure = per_layer if args.trace else end_to_end
    loops, metrics = measure(workload, args.seconds, deadline)
    failed = sum(loop.failed for loop in loops)
    for problem in [p for loop in loops for p in loop.problems][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(loop.latencies) for loop in loops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
