import random
from bisect import bisect_right

import pytest

from golden import COUNT_TABLES, direct_sums, naive_window_count
from primesums.counting import count_sums, count_up_to, max_run_length, run_lengths
from primesums.enumeration import enumerate_sums
from primesums.prefix import build
from primesums.sieve import SEGMENT_BYTES


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
    ps = build(x, k)
    assert max_run_length(ps) == expected
    assert count_sums(ps).max_run_length == expected


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


@pytest.mark.parametrize(
    "powers,x,expected",
    [
        ([4, 9, 25, 49], 100, [4, 3, 2, 1]),
        ([4, 9, 25, 49], 30, [2, 1, 1, 0]),
        ([4, 9, 25, 49], 3, [0, 0, 0, 0]),
        ([], 100, []),
    ],
)
def test_run_lengths_examples(powers, x, expected):
    assert list(run_lengths(powers, x)) == expected
    assert list(run_lengths(iter(powers), x)) == expected


def test_run_lengths_reads_one_power_past_the_first_run():
    # enumerate | head needs the first run before the whole stream is read
    read = []

    def powers():
        for p in (2, 3, 5, 7, 11, 13):
            read.append(p)
            yield p * p

    runs = run_lengths(powers(), 40)
    assert next(runs) == 3  # 4 + 9 + 25
    assert read == [2, 3, 5, 7]


@pytest.mark.parametrize("offset", [-2, 0, 2])
def test_count_up_to_roots_at_sieve_segment_edges(offset):
    # the streamed primes cross from the sieve's first segment into its second
    root = 2 * SEGMENT_BYTES + 1 + offset
    x = root * root
    assert count_up_to(x, 2) == count_sums(build(x, 2))
