"""Prime generation via a segmented odds-only sieve of Eratosthenes.

The sieve walks the odd numbers in segments of SEGMENT_BYTES one-byte
flags and clears composites with slice assignment, which runs at C
speed.  It holds only the base primes up to sqrt(limit), found by the
same sieve, and one segment at a time, so primes stream out in
ascending order without the whole range ever being in memory: at most
the base primes, one segment of flags and one sub-block's list of
primes.  A table needs one pass: counting.count_rows sieves once, up to
its largest row's root, raises each sub-block's primes to the k-th
power and pushes that one list through every open row's window, so no
block is kept once the rows have taken it.

Primes leave the sieve in one way only, prime_blocks: each sub-block of
BLOCK_ODDS flags selects from the fixed list of even offsets 0, 2, 4,
... with itertools.compress, and the sub-block's first odd number is
added to each offset kept.  So an int is made for each prime, not for
each odd number, and the primes come out as one ascending list per
sub-block, which iter_primes, primes_up_to and counting.count_rows read.

A limit whose one-byte-per-odd-number flags would exceed BUDGET_BYTES
(2 GiB, a fixed limit past about 4.3 * 10^9) raises SieveMemoryError
before any prime is produced.
"""

import itertools
import math
from typing import Iterator

BUDGET_BYTES = 1 << 31
SEGMENT_BYTES = 1 << 18
# odd numbers per extraction sub-block; it divides SEGMENT_BYTES
BLOCK_ODDS = 1 << 13
_EVEN_OFFSETS = list(range(0, 2 * BLOCK_ODDS, 2))


class SieveMemoryError(MemoryError):
    """The sieve limit lies past what BUDGET_BYTES of flags would cover."""


def sieve_bytes_needed(limit: int) -> int:
    """Flag bytes, one per odd number, that a sieve up to limit covers."""
    if limit < 2:
        return 0
    return (limit + 1) // 2


def check_budget(limit: int) -> None:
    """Raise SieveMemoryError if a sieve up to limit needs over BUDGET_BYTES of flags."""
    needed = sieve_bytes_needed(limit)
    if needed > BUDGET_BYTES:
        raise SieveMemoryError(
            f"sieve to {limit} needs {needed} bytes, budget is {BUDGET_BYTES}"
        )


def _odd_segments(limit: int) -> Iterator[tuple]:
    """Yield (first, flags) segments covering the odd numbers 1 .. limit.

    flags[i] is 1 exactly when first + 2*i is prime.  The limit is
    checked when this is called, not when the first segment is drawn.
    """
    check_budget(limit)
    root = math.isqrt(limit)
    blocks = _odd_prime_blocks(_odd_segments(root)) if root >= 3 else ()
    base = list(itertools.chain.from_iterable(blocks))
    return _sieve_segments(sieve_bytes_needed(limit), base)


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


def _odd_prime_blocks(segments: Iterator[tuple]) -> Iterator[list]:
    """The odd primes flagged in segments, one ascending list per sub-block."""
    for first, flags in segments:
        for i in range(0, len(flags), BLOCK_ODDS):
            # the last sub-block may be short; compress stops with it
            chosen = itertools.compress(_EVEN_OFFSETS, flags[i : i + BLOCK_ODDS])
            yield list(map((first + 2 * i).__add__, chosen))


def prime_blocks(limit: int) -> Iterator[list]:
    """Every prime p <= limit, ascending, as a stream of lists.

    Each list holds the primes of one sub-block of BLOCK_ODDS odd
    numbers (2 comes first, on its own); a list may be empty.  Raises
    SieveMemoryError when called, before any prime is produced, if limit
    lies past the fixed sieve budget.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit < 2:
        return iter(())
    return itertools.chain(([2],), _odd_prime_blocks(_odd_segments(limit)))


def iter_primes(limit: int) -> Iterator[int]:
    """Every prime p <= limit, ascending, as a stream.

    Raises SieveMemoryError when called, before any prime is produced,
    if limit lies past the fixed sieve budget.
    """
    return itertools.chain.from_iterable(prime_blocks(limit))


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
