"""Counting runs of consecutive prime powers without enumerating them.

The count (with multiplicity) is the sum, over every start b, of the
length of the longest run p_{b+1}^k + ... + p_{b+m}^k that stays <= x.
Because the powers are positive, the end of that run never moves back
as b grows, so run_lengths sweeps a window once across an ascending
stream of powers: it adds each new power, and while the window sum
exceeds x the first start's run is complete.  The sweep holds only the
current window, so count_up_to needs no prime list and no prefix array:
the sieve's stream of primes feeds it directly, and the count costs
O(pi(x^(1/k))) time in O(sqrt(x^(1/k))) memory plus the longest run.
Counting a prefix array, the length histogram, enumeration and the
duplicate search consume the same sweep.
"""

from bisect import bisect_right
from collections import Counter, deque
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

from .arith import check_uint128, integer_kth_root
from .prefix import PowerPrefixSums, check_power
from .sieve import iter_primes


class CountReport(NamedTuple):
    x: int
    k: int
    count: int  # runs of length >= 1 with sum <= x, with multiplicity
    max_run_length: int  # longest run starting at the first prime
    prime_count: int  # primes with p^k <= x


def max_run_length(ps: PowerPrefixSums) -> int:
    """Largest m with p_1^k + ... + p_m^k <= x."""
    return bisect_right(ps.f, ps.x) - 1


def run_lengths(powers: Iterable[int], x: int) -> Iterator[int]:
    """For each start in order, the most consecutive powers from it summing to <= x.

    powers is any ascending iterable of positive p^k; it is read lazily,
    one power past the first start's run before that run is yielded.
    A power above x on its own gives its start a run of length 0.
    """
    window = deque()
    total = 0
    for power in powers:
        window.append(power)
        total += power
        while total > x:
            # the window before this power was the first start's run
            yield len(window) - 1
            total -= window.popleft()
    # every remaining start runs to the end of the stream
    yield from range(len(window), 0, -1)


def run_lengths_of(ps: PowerPrefixSums) -> Iterator[int]:
    """run_lengths over the k-th powers of the primes of ps."""
    return run_lengths(map(pow, ps.primes, repeat(ps.k)), ps.x)


def _report(x: int, k: int, runs: Counter) -> CountReport:
    """The CountReport of a Counter mapping run length to its number of starts."""
    return CountReport(
        x=x,
        k=k,
        count=sum(m * starts for m, starts in runs.items()),
        # ascending powers: the first start has the longest run
        max_run_length=max(runs, default=0),
        prime_count=sum(runs.values()),
    )


def count_sums(ps: PowerPrefixSums) -> CountReport:
    return _report(ps.x, ps.k, Counter(run_lengths_of(ps)))


def count_up_to(x: int, k: int) -> CountReport:
    """count_sums(build(x, k)) from a stream of primes, without the prefix array.

    Holds the sieve's base primes up to sqrt(x^(1/k)), one sieve segment
    and the current window.
    """
    check_power(k)
    check_uint128(x, "x")
    powers = map(pow, iter_primes(integer_kth_root(x, k)), repeat(k))
    return _report(x, k, Counter(run_lengths(powers, x)))
