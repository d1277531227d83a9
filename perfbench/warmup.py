"""Program-side warm-up of each workload, done before timing starts.

Kept apart from the benchmark's other modules so that a fresh interpreter
measuring set-up time imports only fibrand and this file.  Calls go through
module attributes, so a tracer installed around the warm-up sees them.
"""

from fibrand import arith, binseq

# Largest odd-prime index a prime-keys job reads: start + bits - 1.
PRIME_KEYS_MAX_START = 100_000
PRIME_KEYS_MAX_BITS = 1024

# The README's randomness table: (kind, first index or modulus, length).
README_SEQUENCES = (
    ("prime-indexed", 1, 175),
    ("prime-indexed", 1, 300),
    ("general-moduli", 2, 300),
)


def warm(workload):
    """Fill the program's caches the workload's jobs use; return set-up inputs."""
    if workload == "prime-keys":
        arith.nth_prime(PRIME_KEYS_MAX_START + PRIME_KEYS_MAX_BITS - 1)
    elif workload == "randomness-score":
        build = {
            "prime-indexed": binseq.prime_indexed_sequence,
            "general-moduli": binseq.general_moduli_sequence,
        }
        return {key: build[key[0]](key[2], key[1]) for key in README_SEQUENCES}
    return None
