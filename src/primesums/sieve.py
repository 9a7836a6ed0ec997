"""Prime generation via a segmented odds-only sieve of Eratosthenes.

The sieve walks the odd numbers in segments of one-byte flags and
clears composites with slice assignment, which runs at C speed.  It
holds only the base primes up to sqrt(limit), found by the same sieve,
and one segment at a time, so primes stream out in ascending order
without the whole range ever being in memory: at most the base primes,
one segment of flags and one sub-block's list of primes.

A segment costs one Python-level slice assignment per base prime, so
segment_bytes sizes the segments by the limit: the power of two
nearest 64 * sqrt(limit), clamped to SEGMENT_BYTES .. 8 * SEGMENT_BYTES
(2^18 .. 2^21 flags).  Sieving to 10^9 took 6.3 s in 2^18-byte
segments, 3.8 s in 2^21 and 4.9 s in 2^22 (CPython 3.11, 2 vCPUs);
to 3.16 * 10^8, 1.5 s in 2^18 and 1.1 s in 2^20.  The lower clamp keeps
small sieves small: every row of the paper's tables sieves below
3.2 * 10^7 in 2^18-byte segments, where 2^21 raised a whole k = 2
table's peak memory from 17 to 22 MB at no gain in time.

Primes leave the sieve in one way only, sieve_blocks: the prime 2 on its
own, then one (first, flags) block per sub-block of BLOCK_ODDS odd
numbers, where flags[i] is 1 exactly when first + 2*i is prime.  The
reader chooses what a block costs.  count_flags counts its primes in
C, which is all counting.count_rows needs of most blocks.

A block is read by number, so that its reader never indexes the flags:
primes_from(first, flags, n) gives its primes from n on, ascending;
primes_below(first, flags, n) its primes below n, descending;
count_primes(first, flags, lo, hi) counts its primes p with
lo <= p < hi in C; and block_end(first, flags) is the number below
which every number is sieved once the block is out.  n may lie
anywhere, before, inside or past the block.  primes_from selects from
the fixed list of even offsets 0, 2, 4, ... with itertools.compress and
adds the odd number the read starts at to each offset kept, in C, so
an int is made for each prime, not for each odd number.  Every prime
that Python reads as an int leaves the sieve through it:
primes_from(first, flags, first) is a whole block's primes, which
iter_primes chains block by block and primes_up_to lists.  The one
other reader of whole blocks is the duplicate search, whose
duplicates._search_prefix reads each block's primes in numpy, as the
indices of its flags, into one uint64 array.

A limit whose one-byte-per-odd-number flags would exceed BUDGET_BYTES
(2 GiB, a fixed limit past about 4.3 * 10^9) raises SieveMemoryError
before any prime is produced.
"""

import itertools
import math
from operator import add
from typing import Iterator

BUDGET_BYTES = 1 << 31
# the smallest segment; segment_bytes gives one to eight times it
SEGMENT_BYTES = 1 << 18
# odd numbers per sub-block, the unit in which primes leave the sieve;
# it divides every segment
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


def segment_bytes(limit: int) -> int:
    """The flags in each segment of a sieve up to limit (see above).

    The power of two nearest 64 * sqrt(limit), clamped to
    SEGMENT_BYTES .. 8 * SEGMENT_BYTES, so BLOCK_ODDS divides it.
    """
    target = 64 * math.isqrt(limit)
    size = 1 << max(target.bit_length() - 1, 0)
    if 3 * size < 2 * target:
        size *= 2  # 2 * size is the nearer
    return min(max(size, SEGMENT_BYTES), 8 * SEGMENT_BYTES)


def _segment_blocks(size: int, base: list, segment: int) -> Iterator[tuple]:
    """Sieve the first size odd numbers a segment at a time, and yield each segment's sub-blocks."""
    # flag index i covers the odd number 2*i + 1, so the odd multiples
    # of p from p*p on sit at indices p*p // 2, p*p // 2 + p, ...
    for lo in range(0, size, segment):
        hi = min(lo + segment, size)
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
        for i in range(0, hi - lo, BLOCK_ODDS):
            # the last sub-block may be short
            yield 2 * (lo + i) + 1, flags[i : i + BLOCK_ODDS]
        del flags  # drop it before the next segment is made


def count_flags(flags) -> int:
    """The primes that flags mark: the number of its bytes that are 1.

    Each flag is 0 or 1, so the flags read as one little-endian int
    have one set bit per prime, counted in C.
    """
    return int.from_bytes(flags, "little").bit_count()


def _index(first: int, n: int) -> int:
    """The index of the first flag whose number is n or more, if the block has one."""
    return max(0, (n - first + 1) // 2)


def primes_from(first: int, flags, n: int) -> Iterator[int]:
    """The block's primes from n on, ascending, made as they are read.

    flags holds at most BLOCK_ODDS flags, as each block of sieve_blocks does.
    """
    i = _index(first, n)
    return map(add, itertools.compress(_EVEN_OFFSETS, flags[i:]), itertools.repeat(first + 2 * i))


def primes_below(first: int, flags, n: int) -> Iterator[int]:
    """The block's primes below n, descending, made as they are read."""
    i = min(_index(first, n), len(flags))
    return itertools.compress(range(first + 2 * i - 2, first - 1, -2), reversed(flags[:i]))


def count_primes(first: int, flags, lo: int, hi: int) -> int:
    """The number of the block's primes p with lo <= p < hi."""
    return count_flags(flags[_index(first, lo) : _index(first, hi)])


def block_end(first: int, flags) -> int:
    """Every number below this is sieved once the block and those before it are out."""
    return first + 2 * len(flags) - 1


def sieve_blocks(limit: int) -> Iterator[tuple]:
    """Every prime p <= limit, ascending, as a stream of (first, flags) blocks.

    flags[i] is 1 exactly when first + 2*i is prime.  The first block
    is (2, b"\x01"), the prime 2 on its own; each later one is a
    sub-block of BLOCK_ODDS odd numbers, from 1 on, so a block covers
    the numbers below its block_end that the blocks before it do not.
    The call checks the budget and sieves the base primes up to
    sqrt(limit); each segment is sieved as its first sub-block is drawn.
    Raises SieveMemoryError when called, before any block is produced,
    if limit lies past the fixed sieve budget.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit < 2:
        return iter(())
    check_budget(limit)
    base = list(iter_primes(math.isqrt(limit)))[1:]  # the odd base primes
    blocks = _segment_blocks(sieve_bytes_needed(limit), base, segment_bytes(limit))
    return itertools.chain(((2, b"\x01"),), blocks)


def iter_primes(limit: int) -> Iterator[int]:
    """Every prime p <= limit, ascending, as a stream.

    Raises SieveMemoryError when called, before any prime is produced,
    if limit lies past the fixed sieve budget.
    """
    return itertools.chain.from_iterable(
        primes_from(first, flags, first) for first, flags in sieve_blocks(limit)
    )


def primes_up_to(limit: int) -> list:
    """Every prime p <= limit, as an ascending list."""
    return list(iter_primes(limit))


def prime_count(limit: int) -> int:
    """pi(limit): the number of primes <= limit."""
    return sum(count_flags(flags) for _, flags in sieve_blocks(limit))
