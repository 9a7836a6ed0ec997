import random
import tracemalloc
from bisect import bisect_right
from collections import Counter

import pytest

from golden import (
    COUNT_TABLES,
    bisect_count,
    direct_sums,
    length_counts,
    naive_window_count,
    sweep_count,
    window_sums,
)
from primesums import counting, sieve
from primesums.arith import UINT128_MAX, integer_kth_root
from primesums.counting import (
    count_rows,
    count_sums,
    count_up_to,
    start_runs,
)
from primesums.enumeration import enumerate_sums, length_histogram
from primesums.prefix import PowerPrefixSums, build, build_from_primes
from primesums.sieve import (
    BLOCK_ODDS,
    SEGMENT_BYTES,
    iter_primes,
    primes_up_to,
    segment_bytes,
    sieve_blocks,
)


@pytest.mark.parametrize(
    "x,k,expected",
    [
        (10 ** 3, 2, 37),
        (1000, 3, 10),
        (10 ** 6, 3, 186),
        (10 ** 20, 20, 10),
        (3, 2, 0),
        (0, 2, 0),
    ],
)
def test_count_examples(x, k, expected):
    assert count_sums(build(x, k)).count == expected


@pytest.mark.parametrize("x,k,expected", [(1000, 3, 4), (3, 2, 0), (100, 2, 4)])
def test_max_run_length_examples(x, k, expected):
    assert count_sums(build(x, k)).max_run_length == expected


def test_report_fields():
    report = count_sums(build(1000, 3))
    assert report == (1000, 3, 10, 4, 4)
    assert report.prime_count == 4


def test_exhaustive_against_naive_windows():
    # every x up to 2000 for the small exponents; the acceptance suite
    # pushes the same comparison to 10^4
    for k in (2, 3, 4, 5):
        rows = sorted(n for n, _, _ in direct_sums(2000, k))
        for x in range(0, 2001, 7):
            assert count_sums(build(x, k)).count == bisect_right(rows, x)
    assert naive_window_count(1999, 2) == count_sums(build(1999, 2)).count


def test_random_cases_match_enumerator():
    rng = random.Random(1234)
    for _ in range(20):
        k = rng.randrange(2, 21)
        x = rng.randrange(2, 10 ** 8)
        ps = build(x, k)
        assert count_sums(ps).count == sum(1 for _ in enumerate_sums(ps))


def test_nondecreasing_in_x():
    previous = -1
    for x in range(0, 30000, 311):
        current = count_sums(build(x, 2)).count
        assert current >= previous
        previous = current


def test_lower_bound_invariants():
    for x, expected, _, _ in COUNT_TABLES[3][:6]:
        report = count_sums(build(x, 3))
        assert report.count == expected
        assert report.count >= report.prime_count
        m = report.max_run_length
        assert report.count >= m * (m - 1) // 2


def test_pointer_never_lags_when_first_powers_exceed_x():
    # windows of length 1 already exceed x for every prime > x^(1/k);
    # those primes are excluded by construction, so each start counts
    # at least itself
    ps = build(50, 2)
    report = count_sums(ps)
    assert report.prime_count == 4  # 2, 3, 5, 7
    assert report.count == sum(1 for _ in enumerate_sums(ps))


def test_primes_past_the_root_are_not_counted():
    # 11^2 > 50 gives 11 a run of length 0, which starts no sum
    assert count_sums(build_from_primes([2, 3, 5, 7, 11], 2, 50)) == count_sums(build(50, 2))
    assert count_sums(build_from_primes([11, 13], 2, 50)) == (50, 2, 0, 0, 0)


@pytest.mark.parametrize(
    "powers,x,expected",
    [
        ([4, 9, 25, 49], 100, [4, 3, 2, 1]),
        ([4, 9, 25, 49], 30, [2, 1, 1]),
        ([4, 9, 25, 49], 3, []),
        ([], 100, []),
    ],
)
def test_run_lengths_examples(powers, x, expected):
    # start_runs hands over each start's run, the sums it reaches
    primes = [integer_kth_root(q, 2) for q in powers]
    assert [len(ends) for _, _, ends in start_runs(primes, 2, x)] == expected
    assert [len(ends) for _, _, ends in start_runs(iter(primes), 2, x)] == expected


def test_run_lengths_reads_one_power_past_the_first_run():
    # enumerate | head needs the first run before the whole stream is read
    read = []

    def primes():
        for p in (2, 3, 5, 7, 11, 13):
            read.append(p)
            yield p

    runs = start_runs(primes(), 2, 40)
    assert next(runs) == (2, 0, [4, 13, 38])  # 4 + 9 + 25
    assert read == [2, 3, 5, 7]


@pytest.mark.parametrize("trim", [1, 2, 3, 4, 4096])
def test_window_powers_past_x(monkeypatch, trim):
    # a power past x completes every run longer than L = 1, so it ends the
    # row's sweep with one start open; the runs 4, 3 and 2 of the first
    # three starts add 3 + 2 + 1 terms past their first
    monkeypatch.setattr(counting, "TRIM_STARTS", trim)
    row = counting._Row(100, 2)
    assert row.crossovers == [10]  # L = 1
    row.push([2, 3, 5], [4, 9, 25])
    assert (row.count, row.first, row.window is None) == (0, 0, False)
    row.push([7, 11, 13], [49, 121, 169])
    # a finished row holds no primes, not even through leaving
    assert (row.count, row.first, row.window, row.leaving) == (6, 4, None, None)
    row.push([17], [289])  # the sweep is over
    assert (row.count, row.first) == (6, 4)
    # x + 1, with no prime, ends a row whose primes stop before it
    row = counting._Row(100, 2)
    row.push([2, 3, 5, 7], [4, 9, 25, 49])
    row.push((), (101,))
    assert (row.count, row.first, row.window) == (6, 4, None)


def test_window_at_the_top_of_uint64():
    # the window holds these primes in 8-byte unsigned ints, and x + 1 = 2^128 ends it
    primes = [18446744073709551533, 18446744073709551557]
    x = UINT128_MAX
    ps = build_from_primes(primes, 2, x)
    expected = window_sums(primes, 2, x)
    assert [(r.n, r.start_index, r.length) for r in enumerate_sums(ps)] == expected
    rows = [
        (ft - fb, b, m)
        for b, (p, fb, ends) in enumerate(start_runs(primes, 2, x))
        for m, ft in enumerate(ends, 1)
    ]
    assert rows == expected == [(primes[0] ** 2, 0, 1), (primes[1] ** 2, 1, 1)]
    assert [len(ends) for _, _, ends in start_runs(primes, 2, x)] == [1, 1]
    assert count_sums(ps) == sweep_count(primes, 2, x)


@pytest.mark.parametrize("trim", [1, 2, 7])
def test_start_runs_across_trims(monkeypatch, trim):
    # the prefix sums and the window's primes behind the start are dropped
    # every TRIM_STARTS starts
    monkeypatch.setattr(counting, "TRIM_STARTS", trim)
    for x, k in ((10 ** 6, 2), (10 ** 9, 3)):
        rows = [
            (ft - fb, p, m)
            for p, fb, ends in start_runs(iter_primes(integer_kth_root(x, k)), k, x)
            for m, ft in enumerate(ends, 1)
        ]
        assert rows == direct_sums(x, k)


@pytest.mark.parametrize("trim", [1, 2, 7])
def test_count_rows_across_window_drops(monkeypatch, trim):
    # a row's window drops the primes of the starts behind it every trim
    # starts, within and across sieve blocks
    monkeypatch.setattr(counting, "TRIM_STARTS", trim)
    check_against_the_sweep([10 ** 8, 10 ** 10, 10 ** 12], 2)


def prefix_counts(xs, k):
    return [count_sums(build(x, k)) for x in xs]


def second_segment(limit):
    """The odd number that starts the second segment of a sieve up to limit."""
    return 2 * segment_bytes(limit) + 1


# a sieve up to a few times this number has segments of the smallest size
SEGMENT_EDGE = second_segment(4 * SEGMENT_BYTES)


@pytest.mark.parametrize("offset", [-2, 0, 2])
def test_count_up_to_roots_at_sieve_segment_edges(offset):
    # the streamed primes cross from the sieve's first segment into its second
    root = SEGMENT_EDGE + offset
    assert second_segment(root) == SEGMENT_EDGE
    x = root * root
    assert count_up_to(x, 2) == count_sums(build(x, 2))


# the odd number that starts the sieve's second segment, and the ones
# that start extraction sub-blocks 1, 2 and 3
EDGES = [SEGMENT_EDGE] + [2 * BLOCK_ODDS * j + 1 for j in (1, 2, 3)]


@pytest.mark.parametrize("edge", EDGES)
def test_count_rows_with_roots_at_block_edges(edge):
    # one table whose rows end just before, on and just after the edge,
    # so the sieve stops on it and the rows are cut next to it
    xs = [(edge + offset) ** 2 for offset in (-2, 0, 2)]
    assert second_segment(edge + 2) == SEGMENT_EDGE
    assert list(count_rows(xs, 2)) == prefix_counts(xs, 2)
    assert list(count_rows(xs[:1], 2)) == prefix_counts(xs[:1], 2)


@pytest.mark.parametrize("k", [2, 3, 64])
def test_count_rows_below_the_first_power(k):
    # no prime has p^k <= x below 2^k, with or without later rows
    xs = [0, 1, 2 ** k - 1]
    reports = list(count_rows(xs, k))
    assert reports == [(x, k, 0, 0, 0) for x in xs] == prefix_counts(xs, k)
    xs += [x for x in (2 ** k, 3 ** k - 1, 3 ** k, 5 ** k + 2 ** k) if x <= UINT128_MAX]
    assert list(count_rows(xs, k)) == prefix_counts(xs, k)


def test_count_rows_at_the_largest_exponent_and_x():
    xs = [2 ** 64, 3 ** 64 + 2 ** 64, 10 ** 38, UINT128_MAX]
    assert list(count_rows(xs, 64)) == prefix_counts(xs, 64)


def test_count_rows_edge_cases():
    assert list(count_rows([], 2)) == []
    assert list(count_rows([100, 100], 2)) == prefix_counts([100, 100], 2)
    with pytest.raises(ValueError, match="ascending"):
        next(count_rows([1000, 100], 2))
    # a row out of range raises once the rows before it are out
    rows = count_rows([10 ** 3, 10 ** 39, 10 ** 40], 2)
    assert next(rows) == count_sums(build(10 ** 3, 2))
    with pytest.raises(ValueError, match="128-bit"):
        next(rows)


def test_table_sieves_once_to_the_largest_root(monkeypatch):
    # every row reads the same sieve pass; one pass per row would call
    # sieve_blocks once for each of the ten rows
    limits = []

    def recorded(limit):
        limits.append(limit)
        return sieve_blocks(limit)

    monkeypatch.setattr(counting, "sieve_blocks", recorded)
    xs = [10 ** e for e in range(3, 13)]
    assert [r.count for r in count_rows(xs, 2)] == [c for _, c, _, _ in COUNT_TABLES[2][:10]]
    assert limits == [10 ** 6]


def test_finished_row_releases_the_shared_powers():
    # the 10^3 row closes within the first sieve block, and each block's
    # powers are dropped once every open row has taken them, so only the
    # 10^12 row's window (~3,400 powers) outlives a block; holding all
    # 78,498 powers of the 10^12 row would take about 3 MB
    tracemalloc.start()
    try:
        reports = list(count_rows([10 ** 3, 10 ** 12], 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.count for r in reports] == [37, 8867094]
    assert peak < 2 * 2 ** 20


def traced(f):
    """f() and its traced peak, in bytes."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_run_costs_eight_bytes_a_term():
    # the window holds each open start's prime in 8 bytes, where a Python-int
    # power and its deque slot took about 40: the 26,121 terms of this first
    # run add ~0.16 MB to the sieve's own peak, against ~1 MB as powers
    x, k = 10 ** 31, 5
    report, peak = traced(lambda: count_up_to(x, k))
    _, sieve_peak = traced(lambda: sum(1 for _ in sieve_blocks(integer_kth_root(x, k))))
    assert report.max_run_length == 26121
    assert peak - sieve_peak < 12 * 26121


def swept(xs, k):
    """sweep_count for each x of xs, over the primes up to the largest root."""
    primes = primes_up_to(integer_kth_root(max(xs, default=0), k))
    return [sweep_count(primes, k, x) for x in xs]


def check_against_the_sweep(xs, k):
    expected = swept(xs, k)
    assert list(count_rows(xs, k)) == expected
    assert [count_up_to(x, k) for x in xs] == expected
    # one prefix array serves every row: primes past a row's root add nothing
    if xs:
        ps = build(xs[-1], k)
        assert [count_sums(PowerPrefixSums(x, k, ps.primes, ps.f)) for x in xs] == expected


def crossovers(x, k):
    return counting._Row(x, k).crossovers


# odd numbers that start extraction sub-blocks 5 and 40, and the sieve's second segment
CROSSOVER_EDGES = [2 * BLOCK_ODDS * i + 1 for i in (5, 40)] + [SEGMENT_EDGE]


@pytest.mark.parametrize("edge", CROSSOVER_EDGES)
def test_crossovers_next_to_block_edges(edge):
    # the row x = j * g^2 has its crossover g_j = floor(sqrt(x / j)) on g,
    # so pi(g) is counted up to just before, on and just after the edge
    xs = sorted(j * (edge + offset) ** 2 for j in (1, 2, 3) for offset in (-2, 0, 2))
    assert second_segment(integer_kth_root(xs[-1], 2)) == SEGMENT_EDGE
    for j in (1, 2, 3):
        for offset in (-2, 0, 2):
            assert crossovers(j * (edge + offset) ** 2, 2)[j - 1] == edge + offset
    check_against_the_sweep(xs, 2)


@pytest.mark.parametrize("k", [2, 3, 5, 64])
def test_rows_below_twice_the_first_power(k):
    # below 2 * 2^k no run has two terms, and g_2 < 2 holds no prime
    xs = sorted({*range(2 ** k - 1, 2 ** k + 40), 2 * 2 ** k - 1, 2 * 2 ** k})
    assert all(len(crossovers(x, k)) == 1 for x in xs)
    check_against_the_sweep(xs, k)


def test_rows_with_one_and_two_crossovers():
    # L, the number of crossovers, is 1 below 514089 = 717^2, where
    # g_1 - g_2 = 717 - 506 first reaches 32 ln 717; the floors make it
    # drop back to 1 at a few rows up to 518399, and it is 3 from 3065288
    xs = [10 ** 5, 514088, 514089, 514098, 518399, 518400, 3065287, 3065288]
    assert [len(crossovers(x, 2)) for x in xs] == [1, 1, 2, 1, 1, 2, 2, 3]
    check_against_the_sweep(xs, 2)


@pytest.mark.parametrize("k", [2, 3, 5, 64])
def test_crossovers_that_reach_the_first_run(k):
    # below 2^k + 3^k the first run has one term and L is 1, so no long
    # run is left to sweep
    xs = [2 ** k, 2 ** k + 1, 3 ** k - 1, 3 ** k, 2 ** k + 3 ** k - 1]
    assert all(len(crossovers(x, k)) == 1 for x in xs)
    assert [report.max_run_length for report in count_rows(xs, k)] == [1] * len(xs)
    check_against_the_sweep(xs, k)


@pytest.mark.parametrize("k,x,L", [(2, 10 ** 10, 29), (3, 10 ** 15, 32), (5, 10 ** 32, 357)])
def test_crossovers_capped_by_the_terms(k, x, L):
    # L follows from (x, k) alone; over a prefix array of n primes, with
    # n up to L, every run is bounded by the list and not by x
    assert len(crossovers(x, k)) == L
    for n in (1, 2, 5, 12, 29):
        primes = primes_up_to(113)[:n]
        report = count_sums(build_from_primes(primes, k, x))
        assert report == sweep_count(primes, k, x)
        assert report.max_run_length == n


@pytest.mark.parametrize(
    "primes,x",
    [
        ([2, 3, 5], 10 ** 30),
        ([2, 3, 5], UINT128_MAX),
        ([2 ** 62 - 1, 2 ** 62 + 1], (2 ** 62 + 1) ** 2),
        (primes_up_to(113), UINT128_MAX),
    ],
)
def test_count_sums_over_a_list_short_for_its_x(primes, x):
    # by (x, k) alone L would run to tens of millions of crossovers
    # here; count_sums takes none, and bisects once per length up to
    # the list's length, which bounds every run
    ps = build_from_primes(primes, 2, x)
    assert count_sums(ps) == sweep_count(primes, 2, x)
    assert length_histogram(ps) == length_counts(primes, 2, x)


@pytest.mark.parametrize("x", [10 ** 11, 10 ** 12])
def test_many_crossovers_in_one_sub_block(x):
    # past the first few, a square row's crossovers are a few primes
    # apart, and one sub-block of the sieve holds ten or more of them
    per_block = Counter((g - 1) // (2 * BLOCK_ODDS) for g in crossovers(x, 2))
    assert max(per_block.values()) >= 10
    check_against_the_sweep([10 ** 10, x], 2)


def test_largest_exponent_up_to_the_largest_x():
    xs = [2 ** 64 - 1, 2 ** 64, 3 ** 64 - 1, 3 ** 64, 3 ** 64 + 2 ** 64, 2 ** 127, UINT128_MAX]
    check_against_the_sweep(xs, 64)


@pytest.mark.parametrize("block", [1, 8, 64])
def test_small_blocks_put_many_crossovers_in_reach(monkeypatch, block):
    # L does not depend on the block size; the 56 primes around the
    # 10^10 square row's 29th crossover span some 300 odd numbers, so
    # with blocks of a few odd numbers one prefix runs over many blocks
    monkeypatch.setattr(sieve, "BLOCK_ODDS", block)
    assert len(crossovers(10 ** 10, 2)) == 29
    check_against_the_sweep([10 ** e for e in range(3, 11)], 2)
    check_against_the_sweep([10 ** e for e in range(3, 12)], 3)
    check_against_the_sweep([10 ** e for e in range(5, 21, 3)], 5)


@pytest.mark.parametrize(
    "x,block", [(1667870710, 4), (1881612017, 8), (2015160493, 3), (2247426938, 1)]
)
def test_prefix_that_ends_on_a_block_edge(monkeypatch, x, block):
    # in these rows one crossover's prefix ends just where the kept
    # blocks are cut, and a later crossover's primes start there
    monkeypatch.setattr(sieve, "BLOCK_ODDS", block)
    check_against_the_sweep([x], 2)


@pytest.mark.parametrize("k,top", [(2, 10 ** 12), (3, 10 ** 15), (5, 10 ** 25), (10, None), (20, None)])
def test_tables_match_two_sweeps(k, top):
    # the paper's rows up to top (all of them without one), each counted
    # by bisection per start and by the two-pointer sweep
    xs = [x for x, _, _, _ in COUNT_TABLES[k] if top is None or x <= top]
    primes = primes_up_to(integer_kth_root(xs[-1], k))
    expected = [bisect_count(primes, k, x) for x in xs]
    assert list(count_rows(xs, k)) == expected
    assert [sweep_count(primes, k, x) for x in xs] == expected


def test_square_row_at_ten_to_the_sixteen():
    # past the paper's table, and equal to a full sweep's count
    assert count_up_to(10 ** 16, 2) == (10 ** 16, 2, 2837367708, 59066, 5761455)
