import random

import pytest

from golden import is_prime_trial, trial_primes
from primesums.arith import integer_kth_root
from primesums.counting import count_sums
from primesums.prefix import build, build_from_primes, check_power
from primesums.sieve import SieveMemoryError, primes_up_to


def test_worked_cube_array():
    ps = build(1000, 3)
    assert ps.f == [0, 8, 35, 160, 503]
    assert ps.primes == [2, 3, 5, 7]
    assert ps.x == 1000 and ps.k == 3


def test_tiny_and_square_arrays():
    assert build(3, 2).f == [0]
    assert build(100, 2).f == [0, 4, 13, 38, 87]
    assert build(0, 2).f == [0]


def test_type_invariants_random():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randrange(2, 11)
        x = rng.randrange(2, 10 ** 6)
        ps = build(x, k)
        assert ps.f[0] == 0
        assert len(ps.f) == len(ps.primes) + 1
        assert all(a < b for a, b in zip(ps.f, ps.f[1:]))
        for i, p in enumerate(ps.primes):
            assert ps.f[i + 1] - ps.f[i] == p ** k


def test_deterministic_rebuild():
    assert build(54321, 3) == build(54321, 3)


def test_domain_errors():
    for bad_k in (0, 1, 65, -3):
        with pytest.raises(ValueError):
            build(100, bad_k)
        with pytest.raises(ValueError):
            check_power(bad_k)
    with pytest.raises(ValueError):
        build(-1, 2)
    with pytest.raises(ValueError):
        build(2 ** 128, 2)


def test_build_respects_sieve_budget():
    with pytest.raises(SieveMemoryError):
        build(10 ** 30, 2)


def test_build_from_primes_range_errors():
    # one check of the smallest p and the largest p^k covers the list
    with pytest.raises(ValueError):
        build_from_primes([-3, 2, 3], 2, 100)
    with pytest.raises(ValueError):
        build_from_primes([2, 3, 2 ** 64], 2, 100)
    with pytest.raises(OverflowError):
        build_from_primes([3, 2 ** 63], 3, 2 ** 128 - 1)
    assert build_from_primes([], 2, 100).f == [0]
    # every reader takes the list to ascend: over [3, 2, 5] the sweep
    # and the enumeration would disagree about the one run up to 4, 2^2
    for primes in ([3, 2, 5], [2, 2, 3], [2, 3, 5, 7, 5]):
        with pytest.raises(ValueError, match="ascending"):
            build_from_primes(primes, 2, 4)


def test_prefix_past_128_bits_still_counts():
    # fourth powers of primes just below 2^31 push the running sum f
    # past 2^128 after seventeen terms or so, while every window that
    # is counted stays within x
    primes = [p for p in range(2 ** 31 - 1201, 2 ** 31) if is_prime_trial(p)]
    assert len(primes) >= 20
    x = 2 ** 128 - 1
    ps = build_from_primes(primes, 4, x)
    assert ps.f[-1] > x
    naive = sum(
        1
        for b in range(len(primes))
        for t in range(b + 1, len(primes) + 1)
        if sum(p ** 4 for p in primes[b:t]) <= x
    )
    assert count_sums(ps).count == naive


def test_build_from_primes_matches_build():
    ps = build(10 ** 4, 3)
    again = build_from_primes(trial_primes(21), 3, 10 ** 4)
    assert again.f == ps.f


@pytest.mark.parametrize("x,k", [(10 ** 6, 2), (10 ** 12, 3), (10 ** 20, 5)])
def test_build_equals_build_from_the_sieved_list(x, k):
    # build leaves the range check to sieve_limit, build_from_primes scans the list
    ps = build(x, k)
    again = build_from_primes(primes_up_to(integer_kth_root(x, k)), k, x)
    assert ps.primes == again.primes
    assert ps.f == again.f
