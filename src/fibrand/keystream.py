"""Deterministic key material from the classification sequences.

Keys are never stored: a KeyMaterial carries the origin descriptor that
regenerates it bit for bit, and the generation itself is a pure function.
The +1 -> 1, -1 -> 0 mapping is monotone so a bit string reads directly as
the sign column of the underlying classification.
"""

from dataclasses import dataclass

import numpy as np

from .arith import GHParams, _check_int, gh_term
from .binseq import SequenceKind, prime_indexed_sequence

__all__ = [
    "KeyOrigin",
    "KeyMaterial",
    "keygen_from_primes",
    "regenerate",
    "pack_bits",
    "gh_residue_stream",
]


@dataclass(frozen=True)
class KeyOrigin:
    """Everything needed to regenerate a key deterministically.

    ``start`` is the 1-based odd-prime index for PRIME_INDEXED material.
    """

    kind: SequenceKind
    start: int
    count: int

    def describe(self) -> str:
        return f"kind={self.kind.value} start={self.start} count={self.count}"


@dataclass(frozen=True)
class KeyMaterial:
    bits: tuple[int, ...]
    origin: KeyOrigin

    def bit_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def to_bytes(self) -> bytes:
        return pack_bits(self.bits)

    def hex(self) -> str:
        return self.to_bytes().hex()


def keygen_from_primes(count_bits: int, start_prime_index: int = 1) -> KeyMaterial:
    """Key bits from the prime-indexed sequence, +1 -> 1 and -1 -> 0."""
    seq = prime_indexed_sequence(count_bits, start_prime_index)
    bits = tuple(1 if v == 1 else 0 for v in seq.values)
    start = _check_int(start_prime_index, "start index")  # KeyOrigin holds Python ints
    origin = KeyOrigin(SequenceKind.PRIME_INDEXED, start, len(bits))
    return KeyMaterial(bits, origin)


def regenerate(origin: KeyOrigin) -> KeyMaterial:
    """Rebuild the exact KeyMaterial a descriptor came from."""
    if origin.kind is not SequenceKind.PRIME_INDEXED:
        raise ValueError(f"no key derivation defined for {origin.kind.value}")
    return keygen_from_primes(origin.count, origin.start)


def pack_bits(bits) -> bytes:
    """Pack a bit list MSB-first; a final partial byte is zero-padded right."""
    try:
        values = np.asarray(bits)
    except ValueError:  # ragged nesting
        values = None
    if values is None or values.ndim != 1 or values.dtype.kind not in "biuf":
        # compare element by element, as Python does
        values = np.fromiter(bits, dtype=object, count=len(bits))
    is_bit = (values == 0) | (values == 1)
    if not is_bit.all():
        i = int(np.argmin(is_bit))
        raise ValueError(f"bit {i} is {bits[i]!r}, expected 0 or 1")
    return np.packbits(values.astype(np.uint8)).tobytes()


def gh_residue_stream(
    params: GHParams, m: int, count: int, start_n: int = 0
) -> list[int]:
    """[GH(start_n), ..., GH(start_n + count - 1)] mod m.

    The first two terms come from ``gh_term``'s fast doubling; the rest
    follow the recurrence.
    """
    count = _check_int(count, "count", 1)
    start_n = _check_int(start_n, "start index", 0)
    m = _check_int(m, "modulus", 2)
    params = tuple(_check_int(v, "seed") for v in params)
    if params[0] % m == 0 and params[1] % m == 0:
        raise ValueError("zero seed pair generates the degenerate zero sequence")
    a = gh_term(params, start_n, m)
    if count == 1:
        return [a]
    b = gh_term(params, start_n + 1, m)
    out = [a, b]
    for _ in range(count - 2):
        a, b = b, (a + b) % m
        out.append(b)
    return out
