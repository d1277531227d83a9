"""Run every workload over several seeds, print each metric's spread, and
optionally write the result as a baseline.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Each run is ``run.py`` in its own process with the ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric the script prints the
median, the quartiles and the spread (interquartile distance over median)
next to the metric's bound, then does one traced run per workload for the
per-layer metrics.  The written file also records the commit, CPU count,
CPU model and the Python and numpy versions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="seeds as 1-10 or 1,4,7")
    parser.add_argument("--out", type=Path, help="write the baseline JSON here")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    info = machine()
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    results = {w: [] for w in workloads}
    for seed in args.seeds:  # workloads interleaved, so slow spells hit all of them
        for w in workloads:
            results[w].append(run(w, seed, seconds, 0))
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in results[w][-1]["metrics"].items()), flush=True)

    report = {"machine": info, "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for w in workloads:
        runs = results[w]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {},
        }
        print(f"{w}: {entry['failed']} of {entry['attempted']} jobs failed")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": values,
            }
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER BOUND")
            print(f"  {name:<12} {med:>12.4f} {unit:<4} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {spread:.3f} bound {bound} {flag}")
        traced = run(w, args.seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["correct"] = entry["correct"] and traced["correct"]
        report["workloads"][w] = entry

    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
