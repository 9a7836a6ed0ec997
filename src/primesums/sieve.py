"""Prime generation via a segmented odds-only sieve of Eratosthenes.

The sieve walks the odd numbers in segments of SEGMENT_BYTES one-byte
flags and clears composites with slice assignment, which runs at C
speed.  It holds only the base primes up to sqrt(limit), found by the
same sieve, and one segment at a time, so primes stream out in
ascending order without the whole range ever being in memory.  A limit
whose one-byte-per-odd-number flags would exceed BUDGET_BYTES (2 GiB, a
fixed limit past about 4.3 * 10^9) raises SieveMemoryError before any
prime is produced.
"""

import itertools
import math
from typing import Iterator

BUDGET_BYTES = 1 << 31
SEGMENT_BYTES = 1 << 18


class SieveMemoryError(MemoryError):
    """The sieve limit lies past what BUDGET_BYTES of flags would cover."""


def sieve_bytes_needed(limit: int) -> int:
    """Flag bytes, one per odd number, that a sieve up to limit covers."""
    if limit < 2:
        return 0
    return (limit + 1) // 2


def _odd_segments(limit: int) -> Iterator[tuple]:
    """Yield (first, flags) segments covering the odd numbers 1 .. limit.

    flags[i] is 1 exactly when first + 2*i is prime.  The limit is
    checked when this is called, not when the first segment is drawn.
    """
    needed = sieve_bytes_needed(limit)
    if needed > BUDGET_BYTES:
        raise SieveMemoryError(
            f"sieve to {limit} needs {needed} bytes, budget is {BUDGET_BYTES}"
        )
    root = math.isqrt(limit)
    base = list(_odd_primes(root)) if root >= 3 else []
    return _sieve_segments(needed, base)


def _sieve_segments(size: int, base: list) -> Iterator[tuple]:
    # flag index i covers the odd number 2*i + 1, so the odd multiples
    # of p from p*p on sit at indices p*p // 2, p*p // 2 + p, ...
    for lo in range(0, size, SEGMENT_BYTES):
        hi = min(lo + SEGMENT_BYTES, size)
        flags = bytearray(b"\x01") * (hi - lo)
        if lo == 0:
            flags[0] = 0  # 1 is not prime
        for p in base:
            start = p * p // 2
            if start >= hi:
                break
            if start < lo:
                start += (lo - start + p - 1) // p * p
            flags[start - lo :: p] = bytes((hi - start + p - 1) // p)
        yield 2 * lo + 1, flags


def _odd_primes(limit: int) -> Iterator[int]:
    """The odd primes <= limit, ascending; the limit is checked when called."""
    return itertools.chain.from_iterable(
        itertools.compress(range(first, first + 2 * len(flags), 2), flags)
        for first, flags in _odd_segments(limit)
    )


def iter_primes(limit: int) -> Iterator[int]:
    """Every prime p <= limit, ascending, as a stream.

    Raises SieveMemoryError when called, before any prime is produced,
    if limit lies past the fixed sieve budget.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit < 2:
        return iter(())
    return itertools.chain((2,), _odd_primes(limit))


def primes_up_to(limit: int) -> list:
    """Every prime p <= limit, as an ascending list."""
    return list(iter_primes(limit))


def prime_count(limit: int) -> int:
    """pi(limit): the number of primes <= limit."""
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit < 2:
        return 0
    return 1 + sum(flags.count(1) for _, flags in _odd_segments(limit))
