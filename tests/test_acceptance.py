"""Acceptance suite: ten checks, one test each, run with pytest -v.

Each test asserts exact values (tolerances are stated inline where one
is allowed) plus a stopwatch assertion where the check carries a wall
time budget.  Reference values live in golden.py.
"""

import random
import time
from bisect import bisect_right

from golden import (
    CONSTANTS,
    COUNT_TABLES,
    CROSS_CUBES,
    CROSS_SQUARES,
    CROSS_VALUE,
    DUPLICATE_SQUARES,
    INITIAL_ELEMENTS,
    WORKED_CUBE_F,
    WORKED_CUBE_PAIRS,
    direct_sums,
)
from primesums.arith import UINT128_MAX, checked_pow, integer_kth_root
from primesums.bounds import floor_lower_bound, floor_upper_bound, c_constant, per_length_bound
from primesums.counting import count_rows, count_sums, count_up_to
from primesums.duplicates import find_cross_power_duplicates, find_duplicates
from primesums.enumeration import enumerate_sums, length_histogram, smallest_elements
from primesums.prefix import build

class stopwatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.started
        if exc == (None, None, None):
            assert self.elapsed < self.budget, (
                f"took {self.elapsed:.1f}s, budget {self.budget}s"
            )


def test_01_worked_cube_example():
    with stopwatch(1.0):
        ps = build(1000, 3)
        assert ps.f == WORKED_CUBE_F
        reps = list(enumerate_sums(ps))
        assert [(r.n, r.start_prime) for r in reps] == WORKED_CUBE_PAIRS
        assert count_sums(ps).count == 10


def test_02_count_tables_exact():
    # every row through count_rows, one call per table as table prints
    # them, and the largest square row through count_up_to as count
    # prints it; test_03 checks the prefix-array count on the largest
    # square rows
    with stopwatch(60.0):
        checked = 0
        for k, rows in COUNT_TABLES.items():
            reports = list(count_rows([x for x, _, _, _ in rows], k))
            assert [(r.x, r.count) for r in reports] == [(x, n) for x, n, _, _ in rows], k
            checked += len(reports)
        assert checked == 107
        assert count_up_to(10 ** 15, 2).count == 665005737


def test_03_extended_square_counts():
    with stopwatch(60.0):
        assert count_sums(build(10 ** 12, 2)).count == 8867094
        assert count_sums(build(10 ** 15, 2)).count == 665005737


def test_04_bound_columns_every_cell():
    for k, rows in COUNT_TABLES.items():
        for x, _, upper, lower in rows:
            assert floor_upper_bound(x, k) == upper, (x, k)
            assert floor_lower_bound(x, k) == lower, (x, k)


def test_05_constants_to_two_decimals():
    for k, (printed, half_square) in CONSTANTS.items():
        assert abs(c_constant(k) - printed) <= 0.01, k
        assert (k + 1) ** 2 / 2 == half_square


def test_06_forty_square_duplicates():
    with stopwatch(300.0):
        groups = find_duplicates(10 ** 12, 2)
    assert len(groups) == 40
    found = [(g.n, frozenset(m.start_prime for m in g.members)) for g in groups]
    assert found == DUPLICATE_SQUARES
    assert groups[0].n == 14720439
    assert groups[-1].n == 854350226239


def test_07_cross_power_witness():
    with stopwatch(1.0):
        groups = find_cross_power_duplicates(10 ** 5, {2, 3})
    assert [g.n for g in groups] == [CROSS_VALUE]
    squares, cubes = groups[0].members
    assert (squares.start_prime, squares.length) == CROSS_SQUARES
    assert (cubes.start_prime, cubes.length) == CROSS_CUBES
    assert squares.k == 2 and cubes.k == 3


def test_08_initial_elements():
    for k, expected in INITIAL_ELEMENTS.items():
        assert smallest_elements(k, len(expected)) == expected, k


def test_09_property_suite():
    with stopwatch(120.0):
        # (a) counter equals enumerator length: exhaustively to 10^4,
        # then 100 random larger configurations
        for k in (2, 3, 4, 5):
            values = sorted(n for n, _, _ in direct_sums(10 ** 4, k))
            ps = build(10 ** 4, k)
            assert count_sums(ps).count == len(values)
            for x in range(10 ** 4 + 1):
                assert count_sums(build(x, k)).count == bisect_right(values, x)
        rng = random.Random(0x5EED)
        for _ in range(100):
            k = rng.randrange(2, 21)
            x = rng.randrange(4, 10 ** 10)
            ps = build(x, k)
            report = count_sums(ps)
            assert report.count == sum(1 for _ in enumerate_sums(ps))
            # (c) per-length caps, (d) coarse lower bounds
            hist = length_histogram(ps)
            assert sum(hist.values()) == report.count
            for m, cnt in hist.items():
                assert cnt <= per_length_bound(x, k, m)
            assert report.count >= report.prime_count
            m = report.max_run_length
            assert report.count >= m * (m - 1) // 2
        # (b) the naive quadratic window scan agrees
        for k in (2, 3, 4, 5):
            assert count_sums(build(10 ** 4, k)).count == len(direct_sums(10 ** 4, k))
        # (e) k-th root round trip on random 128-bit inputs
        for _ in range(10 ** 5):
            x = rng.randrange(0, UINT128_MAX + 1)
            k = rng.randrange(1, 128)
            r = integer_kth_root(x, k)
            if k == 1:
                assert r == x
                continue
            assert checked_pow(r, k) <= x
            try:
                assert checked_pow(r + 1, k) > x
            except (OverflowError, ValueError):
                pass  # (r+1)^k needs more than 128 bits, so it exceeds x


def test_10_duplicate_absence_spot_checks():
    assert find_duplicates(10 ** 12, 3) == []
    assert find_duplicates(10 ** 15, 5) == []
    assert find_duplicates(10 ** 25, 10) == []
    assert find_duplicates(10 ** 38, 20) == []
