import pytest

import primesums
from golden import trial_primes
from primesums.sieve import (
    SieveMemoryError,
    prime_count,
    primes_up_to,
    sieve_bytes_needed,
)


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
