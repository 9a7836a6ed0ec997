import math
import tracemalloc
from bisect import bisect_right
from functools import lru_cache

import pytest

import primesums
from golden import trial_primes
from primesums import sieve
from primesums.arith import integer_kth_root
from primesums.counting import count_up_to
from primesums.sieve import (
    BLOCK_ODDS,
    SEGMENT_BYTES,
    SieveMemoryError,
    block_end,
    count_primes,
    iter_primes,
    prime_count,
    primes_below,
    primes_from,
    primes_up_to,
    segment_bytes,
    sieve_blocks,
    sieve_bytes_needed,
)


def segment_edges(limit):
    """The odd numbers that start the second and later segments of a sieve up to limit."""
    size = segment_bytes(limit)
    return range(2 * size + 1, limit + 1, 2 * size)


# the first three segment edges of a sieve a little past them
EDGES = list(segment_edges(7 * SEGMENT_BYTES)[:3])
# and extraction sub-block j at 2 * BLOCK_ODDS * j + 1
BLOCK_EDGES = [2 * BLOCK_ODDS * j + 1 for j in (1, 2, 3)]


def test_small_examples():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(1) == []
    assert primes_up_to(0) == []
    assert primes_up_to(2) == [2]
    eleven = primes_up_to(31)
    assert len(eleven) == 11
    assert eleven[-1] == 31
    assert type(primes_up_to(10)) is list
    assert type(primes_up_to(1)) is list
    assert "PrimeList" not in primesums.__all__


@pytest.mark.parametrize("limit", [2, 3, 10, 97, 100, 541, 1000, 7919, 10000])
def test_matches_trial_division(limit):
    assert primes_up_to(limit) == trial_primes(limit)


def test_matches_trial_division_large():
    assert primes_up_to(10 ** 5) == trial_primes(10 ** 5)


def test_prefix_property():
    big = primes_up_to(10 ** 4)
    for limit in (10, 100, 1234, 9973):
        small = primes_up_to(limit)
        assert big[: len(small)] == small


@pytest.mark.parametrize(
    "limit,expected", [(0, 0), (1, 0), (2, 1), (10, 4), (1000, 168), (10 ** 6, 78498)]
)
def test_prime_count(limit, expected):
    assert prime_count(limit) == expected


def test_prime_count_agrees_with_list():
    for limit in (0, 1, 2, 3, 4, 100, 4096, 65537):
        assert prime_count(limit) == len(primes_up_to(limit))


def test_memory_budget_guard():
    needed = sieve_bytes_needed(10 ** 9)
    assert needed == (10 ** 9 + 1) // 2
    # every limit here is over the fixed 2 GiB budget: one at or under
    # it would really allocate the flags
    with pytest.raises(SieveMemoryError) as info:
        primes_up_to(10 ** 13)
    assert str(10 ** 13) in str(info.value)
    assert "budget is 2147483648" in str(info.value)
    with pytest.raises(SieveMemoryError):
        prime_count(10 ** 13)
    # one byte over the budget
    assert sieve_bytes_needed(2 ** 32 + 1) == 2 ** 31 + 1
    with pytest.raises(SieveMemoryError):
        primes_up_to(2 ** 32 + 1)
    # the guard is MemoryError, so resource handling catches it
    assert issubclass(SieveMemoryError, MemoryError)


def test_rejects_negative_limit():
    with pytest.raises(ValueError):
        primes_up_to(-1)
    with pytest.raises(ValueError):
        prime_count(-5)


# covers each edge's limits and the square of the first prime past its root
ORACLE_LIMIT = (math.isqrt(EDGES[-1]) + 20) ** 2


@lru_cache(maxsize=None)
def oracle_primes():
    return trial_primes(ORACLE_LIMIT)


def check_against_trial_division(limit):
    assert limit <= ORACLE_LIMIT
    expected = oracle_primes()[: bisect_right(oracle_primes(), limit)]
    assert primes_up_to(limit) == expected
    assert list(iter_primes(limit)) == expected
    assert prime_count(limit) == len(expected)


@pytest.mark.parametrize("offset", [-2, 0, 2])
@pytest.mark.parametrize("edge", EDGES + BLOCK_EDGES)
def test_limits_at_segment_edges(edge, offset):
    # offset -2 fills whole segments or sub-blocks exactly; 0 and 2 start a new one
    if edge in EDGES and offset >= 0:
        assert edge in segment_edges(edge + offset)
    check_against_trial_division(edge + offset)


@pytest.mark.parametrize("limit", [2, 3, BLOCK_EDGES[0], EDGES[0] - 1 + 2 * BLOCK_ODDS])
def test_prime_blocks_follow_the_sub_blocks(limit):
    blocks = [list(primes_from(first, flags, first)) for first, flags in sieve_blocks(limit)]
    assert blocks[0] == [2]
    # list i holds the odd primes from 2 * BLOCK_ODDS * (i - 1) + 1 on
    for i, block in enumerate(blocks[1:], 1):
        first = 2 * BLOCK_ODDS * (i - 1) + 1
        assert all(first <= p < first + 2 * BLOCK_ODDS for p in block)
    assert len(blocks) == 1 + math.ceil(sieve_bytes_needed(limit) / BLOCK_ODDS)
    assert [p for block in blocks for p in block] == primes_up_to(limit)
    assert list(iter_primes(limit)) == primes_up_to(limit)


@pytest.mark.parametrize("odds", [1, 3, 8])
def test_reads_by_number_next_to_block_edges(monkeypatch, odds):
    # the block of 2, the block holding 1, a middle block and the last
    # block, which holds one odd number: short unless blocks hold one
    monkeypatch.setattr(sieve, "BLOCK_ODDS", odds)
    limit = 2 * odds * 7 + 2
    blocks = list(sieve_blocks(limit))
    assert len(blocks[-1][1]) == 1
    primes = trial_primes(limit + 10)
    assert [p for first, flags in blocks for p in primes_from(first, flags, 0)] == trial_primes(limit)
    for first, flags in (blocks[0], blocks[1], blocks[len(blocks) // 2], blocks[-1]):
        end = block_end(first, flags)
        # the block's primes are those of its parity from first up to end
        own = [p for p in primes if first <= p < end and p % 2 == first % 2]
        numbers = range(first - 3, end + 4)
        for n in numbers:
            assert list(primes_from(first, flags, n)) == [p for p in own if p >= n]
            assert list(primes_below(first, flags, n)) == [p for p in reversed(own) if p < n]
            for hi in numbers:
                assert count_primes(first, flags, n, hi) == len([p for p in own if n <= p < hi])
    # the odd blocks meet end to end, and the last reaches the limit
    odd = blocks[1:]
    assert [block_end(*a) + 1 for a in odd[:-1]] == [first for first, _ in odd[1:]]
    assert block_end(*blocks[0]) == 3
    assert block_end(*blocks[-1]) >= limit


@pytest.mark.parametrize("edge", EDGES)
def test_prime_squares_next_to_segment_edges(edge):
    primes = oracle_primes()
    root = math.isqrt(edge)
    before = primes[bisect_right(primes, root) - 1]  # before^2 < edge
    after = primes[bisect_right(primes, root)]  # after^2 > edge
    assert before * before < edge < after * after
    for p in (before, after):
        # at p * p, p is the last base prime and its square the last number
        for limit in (p * p - 2, p * p, p * p + 2):
            check_against_trial_division(limit)


def traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_segment_is_alive_at_a_time():
    # each segment is dropped before the next is made, so eight segments
    # peak where one does, not one segment higher
    one = traced_peak(lambda: prime_count(2 * SEGMENT_BYTES))
    eight = traced_peak(lambda: prime_count(16 * SEGMENT_BYTES))
    assert segment_bytes(16 * SEGMENT_BYTES) == SEGMENT_BYTES
    assert eight < one + SEGMENT_BYTES // 2


def test_refusal_comes_before_the_first_prime():
    # the call itself raises: not even the prime 2 is handed out
    with pytest.raises(SieveMemoryError, match="budget is 2147483648"):
        iter_primes(2 ** 32 + 1)
    with pytest.raises(SieveMemoryError, match="budget is 2147483648"):
        sieve_blocks(2 ** 32 + 1)
    with pytest.raises(SieveMemoryError, match="budget is 2147483648"):
        count_up_to(10 ** 30, 2)


def test_segment_sizes_follow_the_limit():
    # the power of two nearest 64 * sqrt(limit), from 2^18 to 2^21 flags
    assert SEGMENT_BYTES == 1 << 18
    # the root of every paper table's last row keeps the smallest
    for x, k in [(10 ** 15, 2), (10 ** 20, 3), (10 ** 32, 5), (10 ** 38, 10), (10 ** 38, 20)]:
        assert segment_bytes(integer_kth_root(x, k)) == 1 << 18
    assert segment_bytes(10 ** 8) == 1 << 19
    assert segment_bytes(integer_kth_root(10 ** 17, 2)) == 1 << 20
    assert segment_bytes(10 ** 9) == 1 << 21
    # the clamps
    assert segment_bytes(0) == segment_bytes(2) == segment_bytes(10 ** 7) == 1 << 18
    assert segment_bytes(2 ** 32) == segment_bytes(10 ** 30) == 1 << 21


def test_block_odds_divides_every_segment():
    sizes = {segment_bytes(limit) for j in range(60) for limit in (4 ** j, 3 * 4 ** j)}
    assert sizes == {SEGMENT_BYTES << i for i in range(4)}
    assert all(size % BLOCK_ODDS == 0 for size in sizes)


@pytest.mark.parametrize("offset", [-2, 0, 2])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_limits_at_the_edges_of_larger_segments(monkeypatch, j, offset):
    # with the smallest segment at 2^10 flags, a limit past ~10^4 takes
    # the largest, 2^13, so its edges are those of the larger segments
    monkeypatch.setattr(sieve, "SEGMENT_BYTES", 1 << 10)
    edge = 2 * (1 << 13) * j + 1
    limit = edge + offset
    size = segment_bytes(limit)
    assert size == 8 * sieve.SEGMENT_BYTES
    # each segment starts a sub-block, one every size // BLOCK_ODDS blocks
    blocks = list(sieve_blocks(limit))[1:]
    firsts = [first for first, _ in blocks[:: size // BLOCK_ODDS]]
    assert firsts == list(range(1, limit + 1, 2 * size))
    assert all(len(flags) == BLOCK_ODDS for _, flags in blocks[:-1])
    expected = trial_primes(limit)
    assert primes_up_to(limit) == expected
    assert list(iter_primes(limit)) == expected
    assert prime_count(limit) == len(expected)
