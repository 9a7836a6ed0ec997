"""Prime generation via an odds-only sieve of Eratosthenes.

The sieve stores one byte per odd number and clears composites with
slice assignment, which runs at C speed.  A request for more than
BUDGET_BYTES (2 GiB, a fixed limit) of flags raises SieveMemoryError
before anything is allocated, instead of stalling the machine in the
allocator.
"""

import itertools
import math

BUDGET_BYTES = 1 << 31


class SieveMemoryError(MemoryError):
    """Sieve allocation would exceed BUDGET_BYTES."""


def sieve_bytes_needed(limit: int) -> int:
    """Bytes the flag array for primes up to limit will allocate."""
    if limit < 2:
        return 0
    return (limit + 1) // 2


def _odd_flags(limit: int) -> bytearray:
    # flags[i] covers the odd number 2*i + 1
    needed = sieve_bytes_needed(limit)
    if needed > BUDGET_BYTES:
        raise SieveMemoryError(
            f"sieve to {limit} needs {needed} bytes, budget is {BUDGET_BYTES}"
        )
    size = needed
    flags = bytearray(b"\x01") * size
    flags[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            if start < size:
                count = (size - start + p - 1) // p
                flags[start::p] = b"\x00" * count
    return flags


def primes_up_to(limit: int) -> list:
    """Every prime p <= limit, as an ascending list.

    Raises SieveMemoryError before allocating if the flag array would
    exceed BUDGET_BYTES.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit < 2:
        return []
    flags = _odd_flags(limit)
    return [2, *itertools.compress(range(1, 2 * len(flags), 2), flags)]


def prime_count(limit: int) -> int:
    """pi(limit): the number of primes <= limit."""
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit < 2:
        return 0
    return 1 + sum(_odd_flags(limit))
