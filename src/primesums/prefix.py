"""Prefix sums of k-th powers of primes.

With primes p_1 < p_2 < ... the array f satisfies f[0] = 0 and
f[i] = p_1^k + ... + p_i^k, so every sum of consecutive prime powers
p_{b+1}^k + ... + p_t^k is the difference f[t] - f[b], which
window_sum reads and a Representation records.  build holds the
primes and f as lists of Python ints, which hand-built lists share
through build_from_primes.  The duplicate searches read the whole
array, which duplicates._search_prefix makes with the primes as one
uint64 array('Q'): below x = 2^63 f is a second one, g = f mod 2^64,
and from 2^63 on it is _prefix_sums' list.  counting.starts_by_length
reads the hunt's f through window_sum, whose 2^64 wrap makes g's
windows exact, and the hunt reads every other window in numpy.
Counting needs only the stream of powers (counting.count_up_to), and
enumeration keeps f only for the current run (counting.start_runs).
sieve_limit maps (x, k) to the sieve limit for all of them.
"""

from itertools import accumulate, islice, repeat
from operator import ge
from typing import NamedTuple

from .arith import check_uint64, check_uint128, checked_pow, integer_kth_root
from .sieve import check_budget, primes_up_to

K_MIN = 2
K_MAX = 64

_WRAP = 1 << 64


def check_power(k: int) -> int:
    if not K_MIN <= k <= K_MAX:
        raise ValueError(f"power k must be in {K_MIN}..{K_MAX}, got {k}")
    return k


def window_sum(f, m: int):
    """The sum of the m terms from start b, f[b + m] - f[b], as a function of b.

    It rises with b, as the powers do, so it can key a bisection, as in
    counting.starts_by_length.  f is a list of ints, or the duplicate
    search's array('Q') g = f mod 2^64, whose difference wraps below 0
    when the sums between pass 2^64: adding 2^64 back reads every window
    below 2^64 of g exactly.
    """

    def window(b):
        n = f[b + m] - f[b]
        return n if n >= 0 else n + _WRAP

    return window


class Representation(NamedTuple):
    """One witness that n is a sum of consecutive prime k-th powers.

    start_index is the 0-based position b of the first prime in the
    run, so the run covers primes[b : b + length] and
    n = f[b + length] - f[b].
    """

    n: int
    k: int
    start_index: int
    length: int
    start_prime: int


class PowerPrefixSums(NamedTuple):
    """Primes whose k-th power fits under x, with running power sums.

    f has len(primes) + 1 entries: f[0] = 0 and f[i] - f[i-1] is the
    k-th power of the i-th prime, so f is strictly increasing.  Those
    that duplicates._search_prefix makes hold the primes in array('Q'),
    and below x = 2^63 f too, as f mod 2^64.
    """

    x: int
    k: int
    primes: list
    f: list


def _prefix_sums(primes: list, k: int, x: int) -> PowerPrefixSums:
    f = list(accumulate(map(pow, primes, repeat(k)), initial=0))
    return PowerPrefixSums(x=x, k=k, primes=primes, f=f)


def build_from_primes(primes: list, k: int, x: int) -> PowerPrefixSums:
    """Prefix sums over an explicit strictly ascending list of primes.

    The list is kept as it is, not copied.  Every reader of the sums
    takes the list to ascend, so one that does not is refused.  Its
    first p and its last p^k then range-check the whole list; f itself
    may pass 2^128, because callers only ever use differences of f
    bounded by x.
    """
    check_power(k)
    if any(map(ge, primes, islice(primes, 1, None))):
        raise ValueError("primes must be strictly ascending")
    if primes:
        check_uint64(primes[0], "base")
        checked_pow(primes[-1], k)
    return _prefix_sums(primes, k, x)


def sieve_limit(x: int, k: int) -> int:
    """floor(x^(1/k)), the largest p whose p^k can be <= x.

    Only primes up to it can appear in a sum bounded by x, so every
    sieve for (x, k) stops there.  Raises ValueError if k or x is out of
    range and SieveMemoryError if the sieve is past its budget.
    """
    check_power(k)
    check_uint128(x, "x")
    root = integer_kth_root(x, k)
    check_budget(root)
    return root


def build(x: int, k: int) -> PowerPrefixSums:
    """Prefix sums covering every prime whose k-th power is <= x."""
    # sieve_limit checks k and x < 2^128, so every sieved prime lies
    # below 2^64 and its power is at most x
    return _prefix_sums(primes_up_to(sieve_limit(x, k)), k, x)
