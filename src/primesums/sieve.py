"""Prime generation via an odds-only sieve of Eratosthenes.

The sieve stores one byte per odd number and clears composites with
slice assignment, which runs at C speed.  A memory guard estimates the
allocation up front so that an oversized request fails cleanly instead
of stalling the machine in the allocator.
"""

import itertools
import math

DEFAULT_BUDGET_BYTES = 1 << 31


class SieveMemoryError(MemoryError):
    """Sieve allocation would exceed the configured byte budget."""


def sieve_bytes_needed(limit: int) -> int:
    """Bytes the flag array for primes up to limit will allocate."""
    if limit < 2:
        return 0
    return (limit + 1) // 2


def _odd_flags(limit: int, budget_bytes: int) -> bytearray:
    # flags[i] covers the odd number 2*i + 1
    needed = sieve_bytes_needed(limit)
    if needed > budget_bytes:
        raise SieveMemoryError(
            f"sieve to {limit} needs {needed} bytes, budget is {budget_bytes}"
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


def primes_up_to(limit: int, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> list:
    """Every prime p <= limit, as an ascending list.

    Raises SieveMemoryError before allocating if the flag array would
    exceed budget_bytes.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit < 2:
        return []
    flags = _odd_flags(limit, budget_bytes)
    return [2, *itertools.compress(range(1, 2 * len(flags), 2), flags)]


def prime_count(limit: int, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> int:
    """pi(limit): the number of primes <= limit."""
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit < 2:
        return 0
    return 1 + sum(_odd_flags(limit, budget_bytes))
