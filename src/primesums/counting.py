"""Counting runs of consecutive prime powers without enumerating them.

The count (with multiplicity) is the sum, over every start b, of the
length of the longest run p_{b+1}^k + ... + p_{b+m}^k that stays <= x.
Because the powers are positive, the end of that run never moves back
as b grows, so run_lengths sweeps a window once across an ascending
stream of powers: it adds each new power, and while the window sum
exceeds x the first start's run is complete.  The sweep holds only the
current window, so counting needs no prime list and no prefix array:
the sieve's stream of primes feeds it directly, and the count costs
O(pi(x^(1/k))) time in O(sqrt(x^(1/k))) memory plus the longest run.

count_rows counts a whole table from one sieve pass: the sieve runs once,
up to the largest row's root, and every row sweeps its own window over
the shared powers, so the primes are found and raised to the k-th power
once per table, not once per row.  Its memory is the sieve's base primes
and one segment, each row's window, and the powers between the slowest
and the fastest row.  count_up_to is its one-row case.  Counting a
prefix array, the length histogram and the duplicate search consume
the same sweep.

Enumeration streams too: start_runs drives run_lengths over a stream of
primes and keeps the prefix sums only from the current start on, so
each start's sums come out as soon as its run is known, in the memory
of the longest run.  It is the one loop that turns runs into sums, for
enumeration.enumerate_sums and the CLI's enumerate alike.

A report comes straight from the runs, in start order: the count is
their sum, prime_count the number of nonzero runs, and max_run_length
the first run, which is the longest because the powers ascend.
"""

from bisect import bisect_right
from collections import deque
from itertools import chain, islice, repeat, tee
from typing import Iterable, Iterator, NamedTuple

from .prefix import PowerPrefixSums, check_power, sieve_limit
from .sieve import SieveMemoryError, prime_blocks

# starts each row drains per lockstep round of count_rows
BATCH_STARTS = 1 << 10
# powers per item of count_rows' tee: tee buffers items in links of 57,
# so a link of whole sieve blocks would hold ~57,000 powers at any lag
SHARED_POWERS = 1 << 8
# starts start_runs yields between drops of the prefix sums behind them
TRIM_STARTS = 1 << 12


class CountReport(NamedTuple):
    x: int
    k: int
    count: int  # runs of length >= 1 with sum <= x, with multiplicity
    max_run_length: int  # longest run starting at the first prime
    prime_count: int  # primes with p^k <= x


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


def start_runs(primes: Iterable[int], k: int, x: int) -> Iterator[tuple]:
    """For each start b with a run, in order: (p, f[b], [f[b+1], ..., f[b+run]]).

    p is the start's prime and f the prefix sums of the k-th powers of
    primes, an ascending iterable read lazily by run_lengths, so the
    sums from b are f[b+1] - f[b], ..., f[b+run] - f[b].  Only the
    prefix sums from the current start on are kept, trimmed every
    TRIM_STARTS starts.  The first start whose power exceeds x ends the
    stream, since no later start has a run either.
    """
    starts = deque()
    sums = [0]
    head = 0  # sums[head] is f[b] of the current start b

    def powers():
        total = 0
        for p in primes:
            power = p ** k
            total += power
            starts.append(p)
            sums.append(total)
            yield power

    for run in run_lengths(powers(), x):
        if not run:
            return
        yield starts.popleft(), sums[head], sums[head + 1 : head + run + 1]
        head += 1
        if head == TRIM_STARTS:
            del sums[:head]
            head = 0


def run_lengths_of(ps: PowerPrefixSums) -> Iterator[int]:
    """run_lengths over the k-th powers of the primes of ps."""
    return run_lengths(map(pow, ps.primes, repeat(ps.k)), ps.x)


class _Tally:
    """A running CountReport of one row's runs, drained a batch at a time.

    The runs come in start order, so the first is the longest (the
    powers ascend), their sum is the count and the number of nonzero
    runs the primes.
    """

    __slots__ = ("x", "runs", "count", "starts", "first")

    def __init__(self, x: int, runs: Iterator[int]):
        self.x = x
        self.runs = runs
        self.count = 0
        self.starts = 0
        self.first = 0

    def drain(self, size: int) -> bool:
        """Add up to size more runs; True once the runs are used up."""
        batch = list(islice(self.runs, size))
        if batch and not self.starts:
            self.first = batch[0]
        self.count += sum(batch)
        # runs of 0, for powers above x, come last and start no sum
        self.starts += len(batch) - batch.count(0)
        return len(batch) < size

    def report(self, k: int) -> CountReport:
        return CountReport(self.x, k, self.count, self.first, self.starts)


def count_sums(ps: PowerPrefixSums) -> CountReport:
    tally = _Tally(ps.x, run_lengths_of(ps))
    while not tally.drain(BATCH_STARTS):
        pass
    return tally.report(ps.k)


def _powers_up_to(pieces: Iterator[list], x: int) -> Iterator[list]:
    """The leading lists of ascending powers, cut after the last power <= x."""
    for powers in pieces:
        if powers and powers[-1] > x:
            yield powers[: bisect_right(powers, x)]
            return
        yield powers


def count_rows(xs: Iterable[int], k: int) -> Iterator[CountReport]:
    """count_sums(build(x, k)) for each x of the ascending xs, from one sieve pass.

    The k-th powers of the sieved primes are shared through itertools.tee,
    in lists of SHARED_POWERS, and every row runs its own run_lengths
    over the powers up to its x.  The rows are drained in lockstep,
    BATCH_STARTS starts at a time, so the tee buffers only the powers
    between the slowest and the fastest row.  A row's report is yielded
    as soon as its runs are done, and the row is dropped with its tee
    iterator, which no longer holds the buffer.

    The sieve stops at the last row whose x is in range and whose sieve
    is within budget; the first row that is not raises its own error
    once the rows before it are out.
    """
    check_power(k)
    xs = list(xs)
    if any(a > b for a, b in zip(xs, xs[1:])):
        raise ValueError(f"rows must be ascending, got {xs}")
    limits = []
    error = None
    for x in xs:
        try:
            limits.append(sieve_limit(x, k))
        except (ValueError, SieveMemoryError) as err:
            error = err
            break
    if limits:
        blocks = prime_blocks(limits[-1])
        shared = (
            list(map(pow, primes[i : i + SHARED_POWERS], repeat(k)))
            for primes in blocks
            for i in range(0, len(primes), SHARED_POWERS)
        )
        tallies = [
            _Tally(x, run_lengths(chain.from_iterable(_powers_up_to(stream, x)), x))
            for x, stream in zip(xs, tee(shared, len(limits)))
        ]
        while tallies:
            done = [tally.drain(BATCH_STARTS) for tally in tallies]
            # ascending rows have nondecreasing start counts, so they end in order
            while done and done[0]:
                del done[0]
                yield tallies.pop(0).report(k)
    if error is not None:
        raise error


def count_up_to(x: int, k: int) -> CountReport:
    """count_sums(build(x, k)) from a stream of primes, without the prefix array.

    The one-row case of count_rows.
    """
    return next(count_rows([x], k))
