"""Counting runs of consecutive prime powers without enumerating them.

The count (with multiplicity) is the sum, over every start b, of the
length of the longest run p_{b+1}^k + ... + p_{b+m}^k that stays <= x.
Because the powers are positive, the end of that run never moves back
as b grows, so a _Window sweeps once across an ascending stream of
powers: it adds each new power, and while the window sum exceeds x the
first start's run is complete.  _Window.runs is the package's only
two-pointer loop.  The sweep holds only the current window, so counting
needs no prime list and no prefix array: the sieve's stream of primes
feeds it directly, and the count costs O(pi(x^(1/k))) time in
O(sqrt(x^(1/k))) memory plus the longest run.

count_rows counts a whole table from one sieve pass: the sieve runs once,
up to the largest row's root, each sub-block's primes are raised to the
k-th power once, and that list of powers is pushed, row by row, through
the window of every row still open.  A row whose x the block's last
power passes takes the powers up to its x, found by one bisect_right,
and reports; the rows ascend, so they close in order.  No power waits
for a slower row, so the memory is the sieve's base primes and one
segment, one block's powers, and each open row's window.  count_up_to
is its one-row case, and count_sums pushes a prefix array's primes
through the same loop.  The length histogram, which the duplicate
search reads, runs a window over the powers up to x.

Enumeration streams too: start_runs drives run_lengths over a stream of
primes and keeps the prefix sums only from the current start on, so
each start's sums come out as soon as its run is known, in the memory
of the longest run.  It is the one loop that turns runs into sums, for
enumeration.enumerate_sums and the CLI's enumerate alike.

A report comes straight from the runs, in start order: only powers <= x
enter a window, so every start has a run of at least one term.  The
count is the runs' sum, prime_count the number of starts, and
max_run_length the first run, which is the longest because the powers
ascend.
"""

from bisect import bisect_right
from collections import deque
from itertools import repeat, takewhile
from typing import Iterable, Iterator, NamedTuple

from .prefix import PowerPrefixSums, check_power, sieve_limit
from .sieve import BLOCK_ODDS, SieveMemoryError, prime_blocks

# starts start_runs yields between drops of the prefix sums behind them
TRIM_STARTS = 1 << 12


class CountReport(NamedTuple):
    x: int
    k: int
    count: int  # runs of length >= 1 with sum <= x, with multiplicity
    max_run_length: int  # longest run starting at the first prime
    prime_count: int  # primes with p^k <= x


class _Window:
    """The powers of the starts whose runs are still open, and their sum."""

    __slots__ = ("x", "open", "total")

    def __init__(self, x: int):
        self.x = x
        self.open = deque()
        self.total = 0

    def runs(self, powers: Iterable[int]) -> Iterator[int]:
        """Push ascending positive powers; yield the run of each start they complete.

        powers is read lazily, one power past a start's run before that
        run is yielded.  The sum is stored when powers is used up, so
        each call must be run out before the next.  A power above x on
        its own gives its start a run of length 0.
        """
        window = self.open
        x = self.x
        total = self.total
        for power in powers:
            window.append(power)
            total += power
            while total > x:
                # the window before this power was the first start's run
                yield len(window) - 1
                total -= window.popleft()
        self.total = total

    def rest(self) -> range:
        """The runs of the open starts once the stream has ended: each runs to its end."""
        return range(len(self.open), 0, -1)


def run_lengths(powers: Iterable[int], x: int) -> Iterator[int]:
    """For each start in order, the most consecutive powers from it summing to <= x.

    powers is any ascending iterable of positive p^k; it is read lazily,
    one power past the first start's run before that run is yielded.
    A power above x on its own gives its start a run of length 0.
    """
    window = _Window(x)
    yield from window.runs(powers)
    yield from window.rest()


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
    """run_lengths over the k-th powers <= x of the primes of ps."""
    return run_lengths(takewhile(ps.x.__ge__, map(pow, ps.primes, repeat(ps.k))), ps.x)


class _Tally(_Window):
    """One row's window, with the sum of the runs it has completed and the first of them."""

    __slots__ = ("count", "first")

    def __init__(self, x: int):
        super().__init__(x)
        self.count = self.first = 0

    def push(self, powers: Iterable[int]) -> None:
        """Push ascending powers, all <= x, through the window."""
        runs = self.runs(powers)
        if not self.count:
            # no start has completed its run before these
            self.count = self.first = next(runs, 0)
        self.count += sum(runs)

    def report(self, k: int, primes: int) -> CountReport:
        """The row's report, once primes powers in all have been pushed."""
        # each open start runs to the end; the first of them is the
        # first start, unless an earlier one has completed its run
        rest = self.rest()
        first = self.first or len(rest)
        return CountReport(self.x, k, self.count + sum(rest), first, primes)


def _reports(xs: list, k: int, blocks: Iterable[list]) -> Iterator[CountReport]:
    """A report for each x of the ascending xs, from ascending lists of primes.

    Each list's primes are raised to the k-th power once, and the powers
    are pushed through the window of every open row in turn.  A row
    whose x the list's last power passes takes the powers up to its x
    and is reported at once; the rows ascend, so they close in order,
    and the rows still open when the lists run out report then.
    """
    tallies = deque(map(_Tally, xs))
    seen = 0  # primes in the lists before this one
    for primes in blocks:
        powers = list(map(pow, primes, repeat(k)))
        while powers and tallies and powers[-1] > tallies[0].x:
            tally = tallies.popleft()
            cut = bisect_right(powers, tally.x)
            tally.push(powers[:cut])
            yield tally.report(k, seen + cut)
        for tally in tallies:
            tally.push(powers)
        seen += len(powers)
    for tally in tallies:
        yield tally.report(k, seen)


def count_sums(ps: PowerPrefixSums) -> CountReport:
    """The CountReport of ps, its primes pushed in lists of BLOCK_ODDS."""
    blocks = (ps.primes[i : i + BLOCK_ODDS] for i in range(0, len(ps.primes), BLOCK_ODDS))
    return next(_reports([ps.x], ps.k, blocks))


def count_rows(xs: Iterable[int], k: int) -> Iterator[CountReport]:
    """count_sums(build(x, k)) for each x of the ascending xs, from one sieve pass.

    The sieve's sub-blocks of primes are the lists _reports pushes
    through the rows' windows.  The sieve stops at the last row whose x
    is in range and whose sieve is within budget; the first row that is
    not raises its own error once the rows before it are out.
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
    # the roots ascend with the rows; with none in range there is nothing to sieve
    yield from _reports(xs[: len(limits)], k, prime_blocks(max(limits, default=0)))
    if error is not None:
        raise error


def count_up_to(x: int, k: int) -> CountReport:
    """count_sums(build(x, k)) from a stream of primes, without the prefix array.

    The one-row case of count_rows.
    """
    return next(count_rows([x], k))
