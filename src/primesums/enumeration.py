"""Streaming enumeration of consecutive prime-power sums.

Every n <= x of the form p_{b+1}^k + ... + p_t^k is emitted exactly
once per witness (b, t), ordered by start index and then length:
counting.start_runs walks b and hands over each start's prime with the
prefix sums of its run.  The stream is a generator, so a billion
representations never need to sit in memory at once.  The CLI's
enumerate and smallest_elements read start_runs over the sieve's
stream of primes, without the prime list or the prefix array;
enumerate_sums reads it over the primes of a PowerPrefixSums.
"""

from typing import Iterator

from .arith import UINT128_MAX
from .counting import start_runs, starts_by_length
from .prefix import PowerPrefixSums, Representation, sieve_limit
from .sieve import iter_primes


def enumerate_sums(ps: PowerPrefixSums) -> Iterator[Representation]:
    """Yield every representation with n <= x, b ascending, length ascending.

    Closing the generator early is safe.
    """
    k = ps.k
    for b, (p, fb, ends) in enumerate(start_runs(ps.primes, k, ps.x)):
        for m, ft in enumerate(ends, 1):
            yield Representation(ft - fb, k, b, m, p)


def length_histogram(ps: PowerPrefixSums) -> dict:
    """Map run length m to the number of representations of that length.

    Only lengths with a nonzero count appear.  A start whose run has r
    terms contributes one representation of every length 1..r, so the
    count for m is c_m of counting.starts_by_length, the number of
    starts whose first m terms sum to at most x.  Runs shorten as b
    grows, so every length up to the first start's run occurs.
    """
    return dict(enumerate(starts_by_length(ps), 1))


def smallest_elements(k: int, count: int) -> list:
    """The count smallest distinct representable values, ascending.

    Multiplies the search bound by 16 until enough distinct values are
    found; any bound x captures every representable n <= x, so the first
    count values of the sorted distinct set are final.  The bound stops
    at 2^128 - 1, and asking for more values than lie below it raises
    ValueError.
    """
    if count < 1:
        return []
    x = 1 << (k + 4)
    while True:
        x = min(x, UINT128_MAX)
        primes = iter_primes(sieve_limit(x, k))
        seen = {ft - fb for _, fb, ends in start_runs(primes, k, x) for ft in ends}
        if len(seen) >= count:
            return sorted(seen)[:count]
        if x == UINT128_MAX:
            raise ValueError(
                f"only {len(seen)} values below 2^128 are sums of consecutive"
                f" prime powers for k={k}, {count} requested"
            )
        x <<= 4
