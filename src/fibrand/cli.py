"""Command-line interface.

Subcommands:

* table       prime/period/label/sign rows for consecutive odd primes
* bits        the +1/-1 sequences (prime-indexed or general-moduli)
* randomness  autocorrelation profile and the measure R
* keygen      key material from the prime-indexed sequence
* verify      invariant suites (table, bound, class-theorem, oracle)

stdout carries data, stderr carries diagnostics.  Exit codes: 0 success,
1 invariant violation, 2 usage error.
"""

import argparse
import json
import os
import sys

from .arith import nth_prime, sieve_primes
from .binseq import general_moduli_sequence, prime_indexed_sequence, to_lines
from .keystream import keygen_from_primes
from .periods import (
    ClassificationError,
    expected_equality_moduli,
    pisano_period_bruteforce,
    pisano_period_prime,
    verify_period_bound,
)
from .stats import Convention, autocorrelation, profile_csv, randomness_measure

__all__ = ["main", "build_parser"]

COUNT_CAP = 10**6

CSV_TABLE_HEADER = "prime,period,in_terms_of_p,binary_value"

# Frozen regression reference: classification of the first 25 odd primes,
# independently recomputed by brute-force iteration.  `verify --suite table`
# checks the live code against these rows.
KNOWN_FIRST_ROWS = (
    (3, 8, "2p+2", -1),
    (5, 20, "5(p-1)", 1),
    (7, 16, "2p+2", -1),
    (11, 10, "p-1", 1),
    (13, 28, "2p+2", -1),
    (17, 36, "2p+2", -1),
    (19, 18, "p-1", 1),
    (23, 48, "2p+2", -1),
    (29, 14, "(p-1)/2", 1),
    (31, 30, "p-1", 1),
    (37, 76, "2p+2", -1),
    (41, 40, "p-1", 1),
    (43, 88, "2p+2", -1),
    (47, 32, "(2p+2)/3", -1),
    (53, 108, "2p+2", -1),
    (59, 58, "p-1", 1),
    (61, 60, "p-1", 1),
    (67, 136, "2p+2", -1),
    (71, 70, "p-1", 1),
    (73, 148, "2p+2", -1),
    (79, 78, "p-1", 1),
    (83, 168, "2p+2", -1),
    (89, 44, "(p-1)/2", 1),
    (97, 196, "2p+2", -1),
    (101, 50, "(p-1)/2", 1),
)


def _check_count(value: int, what: str = "count") -> None:
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    if value > COUNT_CAP:
        raise ValueError(f"{what} must be <= {COUNT_CAP}, got {value}")


def _table_rows(count: int):
    for i in range(1, count + 1):
        rec = pisano_period_prime(nth_prime(i))
        yield rec.modulus, rec.period, rec.ratio_label, rec.bit


def cmd_table(args) -> int:
    _check_count(args.count)
    rows = list(_table_rows(args.count))
    if args.format == "csv":
        print(CSV_TABLE_HEADER)
        for p, period, label, bit in rows:
            print(f"{p},{period},{label},{bit}")
    elif args.format == "json":
        print(json.dumps([
            {"prime": p, "period": n, "in_terms_of_p": label, "binary_value": bit}
            for p, n, label, bit in rows
        ]))
    else:
        print(f"{'prime':>7} {'period':>7}  {'in terms of p':<13} {'binary':>6}")
        for p, period, label, bit in rows:
            print(f"{p:>7} {period:>7}  {label:<13} {bit:>+6d}")
    return 0


def _build_sequence(kind: str, count: int, start: int | None):
    if kind == "primes":
        return prime_indexed_sequence(count, 1 if start is None else start)
    return general_moduli_sequence(count, 2 if start is None else start)


def cmd_bits(args) -> int:
    _check_count(args.count)
    seq = _build_sequence(args.kind, args.count, args.start)
    if args.format == "csv":
        print(",".join(str(v) for v in seq.values))
    else:
        print(to_lines(seq))
    return 0


def cmd_randomness(args) -> int:
    if args.length < 2:
        raise ValueError(f"length must be >= 2, got {args.length}")
    _check_count(args.length, "length")
    convention = Convention(args.convention)
    seq = _build_sequence(args.kind, args.length, args.start)
    profile = autocorrelation(seq, convention)
    r = randomness_measure(profile)
    if args.format == "csv":
        print(profile_csv(profile))
        print(
            f"R = {r:.4f} (kind = {args.kind}, n = {profile.n}, "
            f"convention = {convention.value})",
            file=sys.stderr,
        )
    else:
        print(f"kind = {args.kind}")
        print(f"n = {profile.n}")
        print(f"convention = {convention.value}")
        print(f"R = {r:.4f}")
    return 0


def cmd_keygen(args) -> int:
    _check_count(args.bits, "bits")
    key = keygen_from_primes(args.bits, args.start)
    if args.format == "hex":
        print(key.hex())
    elif args.format == "raw":
        sys.stdout.buffer.write(key.to_bytes())
        sys.stdout.buffer.flush()
    else:
        print(f"# origin: {key.origin.describe()}")
        print(key.bit_string())
    return 0


def _verify_table() -> tuple[bool, str]:
    for i, expected in enumerate(KNOWN_FIRST_ROWS, start=1):
        rec = pisano_period_prime(nth_prime(i))
        actual = (rec.modulus, rec.period, rec.ratio_label, rec.bit)
        if actual != expected:
            return False, f"row {i}: computed {actual}, reference {expected}"
    return True, f"{len(KNOWN_FIRST_ROWS)} reference rows reproduced"


def _verify_bound(limit: int) -> tuple[bool, str]:
    checks = verify_period_bound(limit)
    for c in checks:
        if not c.bound_met:
            return False, f"m={c.modulus}: period {c.period} exceeds 6m"
    actual_eq = [c.modulus for c in checks if c.equality]
    expected_eq = expected_equality_moduli(limit)
    if actual_eq != expected_eq:
        return False, (
            f"equality moduli {actual_eq} differ from 2*5^n set {expected_eq}"
        )
    return True, f"period <= 6m for all m <= {limit}; equality exactly at {actual_eq}"


def _verify_class_theorem(limit: int) -> tuple[bool, str]:
    count = 0
    for p in sieve_primes(limit - 1):
        if p in (2, 5):
            continue
        try:
            rec = pisano_period_prime(p)
        except ClassificationError as exc:
            return False, str(exc)
        bound = p - 1 if p % 10 in (1, 9) else 2 * p + 2
        if bound % rec.period != 0:
            return False, f"p={p}: period {rec.period} does not divide {bound}"
        count += 1
    return True, f"{count} primes below {limit} all fall in the two divisor classes"


def _verify_oracle(limit: int) -> tuple[bool, str]:
    count = 0
    for p in sieve_primes(limit - 1):
        if p == 2:
            continue
        fast = pisano_period_prime(p).period
        slow = pisano_period_bruteforce(p)
        if fast != slow:
            return False, f"p={p}: order search gives {fast}, iteration gives {slow}"
        count += 1
    return True, f"order search matches brute-force iteration on {count} primes"


_SUITES = {
    "table": lambda limit: _verify_table(),
    "bound": _verify_bound,
    "class-theorem": _verify_class_theorem,
    "oracle": _verify_oracle,
}

_SUITE_DEFAULT_LIMITS = {
    "table": 0,
    "bound": 10**4,
    "class-theorem": 10**5,
    "oracle": 10**4,
}


def cmd_verify(args) -> int:
    limit = args.limit if args.limit is not None else _SUITE_DEFAULT_LIMITS[args.suite]
    if args.suite != "table":
        if limit < 3:
            raise ValueError(f"limit must be >= 3, got {limit}")
        if limit > COUNT_CAP:
            raise ValueError(f"limit must be <= {COUNT_CAP}, got {limit}")
    ok, detail = _SUITES[args.suite](limit)
    status = "pass" if ok else "FAIL"
    print(f"{args.suite}: {status} ({detail})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibrand",
        description=(
            "Fibonacci / Gopala-Hemachandra residue periods mod m, their "
            "two-class structure over odd primes, derived +1/-1 sequences, "
            "autocorrelation randomness, and key material."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "table",
        help="period classification rows for consecutive odd primes",
        description=(
            "Emit prime, period, period-in-terms-of-p and the +1/-1 sign for "
            "consecutive odd primes starting at 3 (2 sits outside the "
            "two-class structure and is excluded)."
        ),
    )
    p_table.add_argument("--count", type=int, required=True, help="number of primes")
    p_table.add_argument("--format", choices=("csv", "text", "json"), default="csv")
    p_table.set_defaults(func=cmd_table)

    p_bits = sub.add_parser(
        "bits",
        help="+1/-1 sequence values",
        description=(
            "primes: sign of the period class over consecutive odd primes "
            "(--start is a 1-based prime index, 1 means p=3). "
            "general: +1 iff the period is a multiple of 8, over consecutive "
            "moduli (--start is the first modulus, default 2); the sign "
            "choice is a convention and does not affect autocorrelation."
        ),
    )
    p_bits.add_argument("--kind", choices=("primes", "general"), required=True)
    p_bits.add_argument("--count", type=int, required=True)
    p_bits.add_argument("--start", type=int, default=None,
                        help="prime index (primes) or first modulus (general)")
    p_bits.add_argument("--format", choices=("csv", "text"), default="csv")
    p_bits.set_defaults(func=cmd_bits)

    p_rand = sub.add_parser(
        "randomness",
        help="autocorrelation profile and randomness measure R",
        description=(
            "Build a sequence, compute C(k) under the chosen boundary "
            "convention, and report R = 1 - mean|C(k)|.  csv format prints "
            "the k,C(k) rows to stdout and R to stderr."
        ),
    )
    p_rand.add_argument("--kind", choices=("primes", "general"), required=True)
    p_rand.add_argument("--length", type=int, required=True)
    p_rand.add_argument("--start", type=int, default=None)
    p_rand.add_argument(
        "--convention",
        choices=[c.value for c in Convention],
        default=Convention.CIRCULAR.value,
    )
    p_rand.add_argument("--format", choices=("text", "csv"), default="text")
    p_rand.set_defaults(func=cmd_randomness)

    p_key = sub.add_parser(
        "keygen",
        help="deterministic key material from the prime-indexed sequence",
        description=(
            "Map the prime-indexed sequence to bits (+1 -> 1, -1 -> 0). "
            "text prints the bit string with the origin descriptor on a "
            "comment line; hex/raw pack bits MSB-first, zero-padded."
        ),
    )
    p_key.add_argument("--bits", type=int, required=True, help="number of key bits")
    p_key.add_argument("--start", type=int, default=1, help="1-based prime index")
    p_key.add_argument("--format", choices=("text", "hex", "raw"), default="text")
    p_key.set_defaults(func=cmd_keygen)

    p_verify = sub.add_parser(
        "verify",
        help="run an invariant suite, exit nonzero on violation",
        description=(
            "table: recompute the first 25 classification rows against the "
            "frozen reference. bound: period <= 6m with equality exactly at "
            "2*5^n. class-theorem: every odd prime's period divides p-1 or "
            "2p+2 per its last digit. oracle: order search equals "
            "brute-force iteration on every odd prime below the limit."
        ),
    )
    p_verify.add_argument(
        "--suite", choices=("table", "bound", "class-theorem", "oracle"), required=True
    )
    p_verify.add_argument("--limit", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer closed the pipe (e.g. | head); swallow the
        # rest of the output instead of dying with a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
