import random
from collections import Counter

import pytest

from golden import INITIAL_ELEMENTS, WORKED_CUBE_PAIRS, direct_sums
from primesums.bounds import per_length_bound
from primesums.counting import count_sums
from primesums.enumeration import enumerate_sums, length_histogram, smallest_elements
from primesums.prefix import build


def test_worked_cube_example_order():
    reps = list(enumerate_sums(build(1000, 3)))
    assert [(r.n, r.start_prime) for r in reps] == WORKED_CUBE_PAIRS
    # start indices ascend, lengths ascend within one start
    assert [(r.start_index, r.length) for r in reps] == [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 1), (1, 2), (1, 3),
        (2, 1), (2, 2),
        (3, 1),
    ]


def test_empty_stream_below_smallest_square():
    assert list(enumerate_sums(build(3, 2))) == []


def test_square_values_to_100():
    reps = list(enumerate_sums(build(100, 2)))
    assert [r.n for r in reps] == [4, 13, 38, 87, 9, 34, 83, 25, 74, 49]
    assert sorted({r.n for r in reps}) == INITIAL_ELEMENTS[2][:10]


@pytest.mark.parametrize("x,k", [(1000, 3), (100, 2), (10 ** 4, 2), (10 ** 5, 5)])
def test_matches_direct_summation_oracle(x, k):
    reps = list(enumerate_sums(build(x, k)))
    assert [(r.n, r.start_prime, r.length) for r in reps] == direct_sums(x, k)


def test_every_representation_verifies():
    ps = build(10 ** 5, 2)
    primes = ps.primes
    for rep in enumerate_sums(ps):
        run = primes[rep.start_index : rep.start_index + rep.length]
        assert rep.n == sum(p ** 2 for p in run)
        assert rep.n <= 10 ** 5
        assert rep.start_prime == run[0]
        assert rep.k == 2


def test_stream_length_equals_count():
    rng = random.Random(21)
    for _ in range(15):
        k = rng.randrange(2, 8)
        x = rng.randrange(2, 10 ** 6)
        ps = build(x, k)
        assert sum(1 for _ in enumerate_sums(ps)) == count_sums(ps).count


def test_monotone_in_x():
    small = Counter(r.n for r in enumerate_sums(build(5000, 2)))
    large = Counter(r.n for r in enumerate_sums(build(20000, 2)))
    assert all(large[n] >= c for n, c in small.items())


def test_early_close_is_clean():
    stream = enumerate_sums(build(10 ** 6, 2))
    first = next(stream)
    assert first.n == 4
    stream.close()


def test_histogram_worked_examples():
    assert length_histogram(build(1000, 3)) == {1: 4, 2: 3, 3: 2, 4: 1}
    assert length_histogram(build(100, 2)) == {1: 4, 2: 3, 3: 2, 4: 1}
    assert length_histogram(build(3, 2)) == {}


def test_histogram_totals_and_per_length_cap():
    for x, k in ((10 ** 5, 2), (10 ** 6, 3), (10 ** 7, 5)):
        ps = build(x, k)
        hist = length_histogram(ps)
        assert sum(hist.values()) == count_sums(ps).count
        direct = Counter(r.length for r in enumerate_sums(ps))
        assert hist == dict(direct)
        for m, count in hist.items():
            assert count <= per_length_bound(x, k, m)


def test_smallest_elements_match_reference():
    for k, expected in INITIAL_ELEMENTS.items():
        assert smallest_elements(k, len(expected)) == expected


def test_smallest_elements_edges():
    assert smallest_elements(2, 0) == []
    assert smallest_elements(2, 1) == [4]


def test_smallest_elements_at_128_bit_edge():
    assert smallest_elements(64, 3) == [2 ** 64, 3 ** 64, 2 ** 64 + 3 ** 64]
    with pytest.raises(ValueError, match="only 3 values below 2\\^128"):
        smallest_elements(64, 10)
