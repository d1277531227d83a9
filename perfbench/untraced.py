"""Untraced side of a traced run, in a fresh interpreter, driven job by job.

    python3 perfbench/untraced.py --workload prime-keys --seed 1

Warms up and prints one line.  Then, for every line read from stdin, runs
the next job of the workload's seeded stream without the tracer and answers
with one JSON line: the job's seconds and the problems its checks found.
``run.py --trace 1`` runs each job here right after running it traced, so
the tracing overhead compares the same jobs, from the same fresh program
state, at nearly the same moment.
"""

import argparse
import itertools
import json
import sys

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    run.import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm()
    print("ready", flush=True)
    jobs = itertools.chain.from_iterable(workload.jobs())
    while sys.stdin.readline():
        print(json.dumps(run.run_job(workload, next(jobs))), flush=True)


if __name__ == "__main__":
    main()
