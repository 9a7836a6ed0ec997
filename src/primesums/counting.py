"""Counting runs of consecutive prime powers without enumerating them.

The count (with multiplicity) is the number of pairs b < t with
f[t] - f[b] <= x.  Because f is strictly increasing, the admissible
ends for each start b form a contiguous range b+1 .. T(b), and T(b)
never decreases as b grows.  run_ends sweeps one pointer across the
array once to produce every T(b), so the whole count costs O(pi) after
the prefix array exists; enumeration, the length histogram and the
duplicate search consume the same sweep.
"""

from bisect import bisect_right
from itertools import islice
from typing import Iterator, NamedTuple

from .prefix import PowerPrefixSums


class CountReport(NamedTuple):
    x: int
    k: int
    count: int  # runs of length >= 1 with sum <= x, with multiplicity
    max_run_length: int  # longest run starting at the first prime
    prime_count: int  # primes with p^k <= x


def max_run_length(ps: PowerPrefixSums) -> int:
    """Largest m with p_1^k + ... + p_m^k <= x."""
    return bisect_right(ps.f, ps.x) - 1


def run_ends(ps: PowerPrefixSums) -> Iterator[int]:
    """For each start b in order, the largest end T(b) with f[T(b)] - f[b] <= x.

    T(b) >= b always holds: while the pointer lags behind b, f[t + 1]
    <= f[b] is within the cap, so it catches up on its own.
    """
    f = ps.f
    x = ps.x
    last = len(f) - 1
    t = 0
    for fb in islice(f, last):
        cap = x + fb
        while t < last and f[t + 1] <= cap:
            t += 1
        yield t


def count_sums(ps: PowerPrefixSums) -> CountReport:
    n_primes = len(ps.primes)
    # the sum of T(b) - b over every start b
    total = sum(run_ends(ps)) - n_primes * (n_primes - 1) // 2
    return CountReport(
        x=ps.x,
        k=ps.k,
        count=total,
        max_run_length=max_run_length(ps),
        prime_count=n_primes,
    )
