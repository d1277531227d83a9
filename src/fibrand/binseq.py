"""Binary (+1/-1) sequences derived from period classifications.

Two constructions:

* prime-indexed: walk the odd primes 3, 5, 7, ... and emit +1 for the p-1
  period family (p = 5 included, since 20 = 5(p-1)) and -1 for the 2p+2
  family, read from the proven class theorem, not from a computed period;
* general-moduli: walk consecutive integers m >= 2 and emit +1 when the
  period is a multiple of 8, else -1.

The sign choices are measurement conventions: autocorrelation is a product
of pairs, so a global sign flip changes nothing downstream.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith import _check_int, _odd_primes_upto
from .periods import _CLASS_SIGN, _prime_class, pisano_periods_range

__all__ = [
    "SequenceKind",
    "BinarySequence",
    "prime_indexed_sequence",
    "general_moduli_sequence",
    "to_lines",
    "to_bit_string",
]


class SequenceKind(Enum):
    PRIME_INDEXED = "prime-indexed"
    GENERAL_MODULI = "general-moduli"


@dataclass(frozen=True)
class BinarySequence:
    """Ordered +1/-1 values with enough provenance to regenerate them.

    ``start`` is the first prime for PRIME_INDEXED and the first modulus
    for GENERAL_MODULI.
    """

    values: tuple[int, ...]
    kind: SequenceKind
    start: int

    def __post_init__(self):
        if not self.values:
            raise ValueError("empty sequence")
        if not all(
            type(v) is not bool and isinstance(v, (int, np.integer)) and v in (1, -1)
            for v in self.values
        ):
            raise ValueError("sequence values must be +1 or -1")

    @property
    def length(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def prime_indexed_sequence(count: int, start_index: int = 1) -> BinarySequence:
    """+1/-1 over ``count`` consecutive odd primes, by the proven class theorem.

    ``start_index`` is 1-based into the odd primes, so the default start is
    p = 3 and index 25 is p = 101.  It is capped at 1e6, like the CLI counts,
    because the sieve behind it grows with start + count.
    """
    count = _check_int(count, "count", 1)
    first = _check_int(start_index, "start index", 1, 10**6) - 1
    primes = _odd_primes_upto(first + count)[first : first + count].tolist()
    bits = tuple(_CLASS_SIGN[_prime_class(p)] for p in primes)
    return BinarySequence(bits, SequenceKind.PRIME_INDEXED, primes[0])


def general_moduli_sequence(count: int, start_modulus: int = 2) -> BinarySequence:
    """+1/-1 over consecutive integer moduli: +1 iff 8 divides the period.

    Covers primes and composites alike, starting at the smallest valid
    modulus by default.
    """
    count = _check_int(count, "count", 1)
    start_modulus = _check_int(start_modulus, "start modulus", 2)
    periods = pisano_periods_range(start_modulus + count - 1, start_modulus)
    bits = tuple(np.where(periods % 8 == 0, 1, -1).tolist())
    return BinarySequence(bits, SequenceKind.GENERAL_MODULI, start_modulus)


def to_lines(seq: BinarySequence) -> str:
    """One value per line, rendered as "+1" / "-1"."""
    return "\n".join("+1" if v == 1 else "-1" for v in seq.values)


def to_bit_string(seq: BinarySequence) -> str:
    """Compact string of '1'/'0' characters (+1 -> '1', -1 -> '0')."""
    return "".join("1" if v == 1 else "0" for v in seq.values)
