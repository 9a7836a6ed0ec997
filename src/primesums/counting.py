"""Counting runs of consecutive prime powers without enumerating them.

The count (with multiplicity) is the sum, over every start b, of
run_b, the length of the longest run p_b^k + ... + p_{b+m-1}^k that
stays <= x.  Because the powers are positive, the end of that run never
moves back as b grows.  A row of count_rows sweeps a window of primes
once across the ascending powers: it adds each new power, and while the
window sum exceeds x the first start's run is complete.  The sweep
holds only the window, so it needs no prime list and no prefix array.
It holds the window as its primes, 8 bytes an open start, and the sum
of their powers as one int: each prime is raised to the k-th power
again, in C, as its start leaves.

Runs shrink as the start grows, and most starts have runs of a few
terms, which follow from prime counts alone.  Let c_j be the number of
starts whose first j terms sum to at most x.  Then, for any L,

    count = c_1 + ... + c_L + sum over b of max(run_b - L, 0).

The sum on the right needs only the starts with runs longer than L, so
a row's sweep stops at the first run of L terms or fewer; the first
run, the longest, is max_run_length.  Each c_j is found at its
crossover g_j = floor((x/j)^(1/k)): a start past g_j has j terms above
g_j^k, and a start whose j-th term is at most g_j has j terms at most
g_j^k, so c_j is pi(g_j) - j + 1 plus those of the next j - 1 starts
whose sums stay <= x, and only the 2j - 2 primes around g_j decide it.
c_1 = pi(x^(1/k)) is prime_count.

L balances the two costs.  A crossover costs about 24 to 33 us
(CPython 3.11, 2 vCPUs), three quarters of it in _Prefix.cover reading
the primes around g_j: the paper's k = 2, 3 and 5 tables read 194k,
73k and 66k primes there, against 147k, 118k and 208k starts swept.
It saves the sweep of the starts between g_{j+1} and g_j, about
(g_j - g_{j+1}) / ln g_j of them, at about 0.42 us each, the window's
second raising of each leaving prime included.  So a crossover pays
while it replaces some 60 to 80 starts or more.  The balance is flat,
though: the three tables count in the same time, within noise (0.41 to
0.46 s in all), with a crossover kept while it replaces anything from
16 to 256 starts, and 512 and 1024 took 0.56 and 0.68 s.  L is the
first j at which g_j - g_{j+1} < 32 ln g_j, so it follows from (x, k)
alone: it is 1089 for x = 10^15, k = 2, 468 for 10^20, k = 3, 357 for
10^32, k = 5, and 1 for every square row below 514089 = 717^2.

count_rows counts a whole table from one sieve pass up to the largest
row's root.  The sieve hands over each sub-block's flags, and this
module reads them only through the sieve's reads by number: a position
is a number, never a place in the flags, so it stays valid after its
block is dropped.  pi(g) is a running count of the primes up to g, made
in C.  A sub-block's primes are extracted and raised to the k-th power
only while some row still sweeps.  The crossovers read one running
prefix of powers, which holds only the primes they read: it starts
from the primes up to a crossover g, read backwards from g, and grows
forwards from the number just past it as later crossovers read
further; where their primes overlap, each prime is raised and summed
once.  A sub-block's flags are kept only while a crossover may still
read its primes, and a row is reported, in order, as soon as its sweep
is over and its crossovers are counted.  The memory is the sieve's base
primes and one segment, of 2^18 to 2^21 one-byte flags by the limit
(2^18 up to about 3.8 * 10^7, 2^21 from about 6 * 10^8 on), one
block's primes and powers, each sweeping row's window at 8 bytes an
open start, and the flags and prefix around the last L primes and the
pending crossovers.  So a row's first run, the widest window, costs 8
bytes a term: 8.2 MB for the 1,030,417 terms at x = 10^27, k = 3.
count_up_to is the one-row case.
A prefix array f needs none of this: the sums f[b + m] - f[b] of m
terms rise with the start b, so starts_by_length takes each c_m by one
bisection of them.  count_sums adds the c_m up, and the length
histogram and the duplicate search read them as they are.

Enumeration streams too, but reads its own prefix sums, which it has
to hand over anyway: start_runs keeps the sums f only from the current
start on, and reads primes until the last sum passes f[b] + x or the
primes run out, so each start's sums come out as soon as its run is
known, in the memory of the longest run.  It is the one loop that turns
runs into sums, for enumeration.enumerate_sums and the CLI's enumerate
alike.
"""

import math
from array import array
from bisect import bisect_right
from collections import deque
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple

from .arith import integer_kth_root
from .prefix import PowerPrefixSums, check_power, sieve_limit, window_sum
from .sieve import (
    SieveMemoryError,
    block_end,
    count_flags,
    count_primes,
    primes_below,
    primes_from,
    sieve_blocks,
)

# starts between drops of what a row's sweep and start_runs keep of the
# starts behind them
TRIM_STARTS = 1 << 12


class CountReport(NamedTuple):
    x: int
    k: int
    count: int  # runs of length >= 1 with sum <= x, with multiplicity
    max_run_length: int  # longest run starting at the first prime
    prime_count: int  # primes with p^k <= x


def start_runs(primes: Iterable[int], k: int, x: int) -> Iterator[tuple]:
    """For each start b with a run, in order: (p, f[b], [f[b+1], ..., f[b+run]]).

    p is the start's prime and f the prefix sums of the k-th powers of
    primes, an ascending iterable of primes below 2^64, so the sums from
    b are f[b+1] - f[b], ..., f[b+run] - f[b].  primes is read lazily,
    one prime past a start's run before that run is yielded.  Only the
    primes, 8 bytes each, and the prefix sums from the current start on
    are kept, trimmed together every TRIM_STARTS starts.  The runs end
    at the first start whose power exceeds x, or with the primes.
    """
    starts = array("Q")
    sums = [0]
    total = 0
    head = 0  # starts[head] is the current start b's prime and sums[head] its f[b]
    end = x  # f[b] + x, the last sum the current start's run can reach
    for p in primes:
        total += p ** k
        starts.append(p)
        sums.append(total)
        while total > end:
            # the sums before this one are the current start's run
            if head == len(starts) - 1:
                return  # p^k > x: no start from p on has a run
            yield starts[head], sums[head], sums[head + 1 : -1]
            head += 1
            if head == TRIM_STARTS:
                del starts[:head]
                del sums[:head]
                head = 0
            end = sums[head] + x
    # the primes ran out: every open start's run reaches the last of them
    for b in range(head, len(starts)):
        yield starts[b], sums[b], sums[b + 1 :]


def starts_by_length(ps: PowerPrefixSums) -> list:
    """[c_1, ..., c_M], where c_m counts the starts whose first m terms sum to <= x.

    A start with m terms up to x has m - 1 too, and the sums of m terms
    rise with the start, so c_m is one bisection of them over the first
    c_{m-1} starts.  The list stops at the first m with no start, so M
    is the first start's run.
    """
    x, f = ps.x, ps.f
    counts = []
    reach = len(f)
    while True:
        m = len(counts) + 1
        reach = bisect_right(range(min(reach, len(f) - m)), x, key=window_sum(f, m))
        if not reach:
            return counts
        counts.append(reach)


def report_of(ps: PowerPrefixSums, counts: list) -> CountReport:
    """The CountReport of ps from its counts, starts_by_length(ps)."""
    return CountReport(ps.x, ps.k, sum(counts), len(counts), counts[0] if counts else 0)


def count_sums(ps: PowerPrefixSums) -> CountReport:
    """The CountReport of ps, from starts_by_length."""
    return report_of(ps, starts_by_length(ps))


class _Row:
    """One row: the sweep of its long runs and the counts at its crossovers.

    crossovers[j - 1] is g_j = floor((x/j)^(1/k)) for j = 1 .. L, where
    L is the first j at which g_j - g_{j+1} < 32 ln g_j.  count adds up
    max(run - L, 0) over the swept starts and c_j at each crossover.
    count_rows drives the rows from the sieve's blocks.

    The sweep holds the primes of the starts whose runs are still open
    in the array window, 8 bytes a start, after those of fewer than
    TRIM_STARTS starts that have left; width counts the open starts and
    total is the sum of their powers.  leaving raises each prime to the
    k-th power again, in C, as its start leaves: it maps pow over the
    array itself, so it also reads the primes pushed after it was made.
    It stops after TRIM_STARTS primes, which are then deleted, and
    leaving is made again from the first prime left.
    """

    __slots__ = (
        "x", "k", "crossovers", "count", "first", "primes", "open",
        "window", "width", "leaving", "total",
    )

    def __init__(self, x: int, k: int):
        g = [integer_kth_root(x, k)]
        # a crossover is counted while it replaces 32 or more starts (see above)
        while 1 < g[-1]:
            after = integer_kth_root(x // (len(g) + 1), k)
            if g[-1] - after < 32 * math.log(g[-1]):
                break
            g.append(after)
        self.x = x
        self.k = k
        self.crossovers = g
        self.count = self.first = self.primes = 0
        self.open = len(g)  # crossovers not yet counted
        self.window = array("Q")  # None once the sweep is over
        self.width = 0
        self.leaving = map(pow, self.window, repeat(k, TRIM_STARTS))
        self.total = 0

    @property
    def root(self) -> int:
        return self.crossovers[0]

    def push(self, primes: Iterable[int], powers: Iterable[int]) -> None:
        """Sweep ascending primes until a run of L terms or fewer completes.

        primes are below 2^64 and go into the window at once.  powers
        holds their k-th powers in order, and may end with one past x
        that has no prime, as x + 1 ends a row.  While a power takes the
        window past x, the first open start's run is complete: it is the
        window before that power.  The first run to complete is the
        first start's, the longest.  A power past x completes every run
        longer than L >= 1, so the sweep ends before the window empties;
        the powers after it are not read.
        """
        window = self.window
        if window is None:
            return
        x, long = self.x, len(self.crossovers)
        count, first = self.count, self.first
        width, leaving, total = self.width, self.leaving, self.total
        window.extend(primes)
        for power in powers:
            total += power
            while total > x:
                first = first or width
                if width <= long:
                    # no later run is longer; leaving holds the window too
                    self.count, self.first = count, first
                    self.window = self.leaving = None
                    return
                count += width - long
                try:
                    total -= next(leaving)
                except StopIteration:
                    del window[:TRIM_STARTS]
                    leaving = map(pow, window, repeat(self.k, TRIM_STARTS))
                    total -= next(leaving)
                width -= 1
            width += 1
        self.count, self.first = count, first
        self.width, self.leaving, self.total = width, leaving, total

    def cross(self, j: int, below: int, f: list, base: int) -> None:
        """Count c_j, the starts whose first j terms sum to at most x.

        below is pi(g_j), and f[i] - f[0] is the sum of the powers of
        the primes with indices base .. base + i - 1.  The starts before
        below - j + 1 have j terms up to g_j, and those from below on
        have none, so only the starts from below - j + 1 to below - 1
        can go either way.  Their sums rise with the start, so one
        bisection finds the first past x.  A start whose j terms run
        past the primes of f is past x too: the primes f lacks lie past
        the row's root or the end of the stream.
        """
        lo = max(0, below - j + 1)
        hi = min(below, base + len(f) - j)
        if lo < hi:
            window = window_sum(f, j)
            lo = base + bisect_right(range(hi - base), self.x, lo - base, key=window)
        self.count += lo
        if j == 1:
            self.primes = lo
        self.open -= 1

    def done(self) -> bool:
        return self.window is None and not self.open

    def report(self) -> CountReport:
        return CountReport(self.x, self.k, self.count, self.first, self.primes)


class _Block(NamedTuple):
    """One block of the sieve, and the number of primes up to its end."""

    stop: int
    first: int
    flags: bytes  # bytes-like: a sub-block's flags are a bytearray slice


class _Crossover(NamedTuple):
    """A crossover g_j of a row, once the sieve has passed g_j."""

    a: int  # the first prime index its undecided starts read
    b: int  # the index past the last one
    below: int  # pi(g_j)
    j: int
    row: _Row
    g: int


class _Prefix:
    """Running sums of the powers of a stretch of consecutive primes.

    sums[i] - sums[0] is the sum of the powers of the primes with
    indices base .. base + i - 1, and end is the number just past the
    stretch: the next prime is the first from end on.  The stretch
    starts empty, before 2.
    """

    __slots__ = ("k", "base", "sums", "end")

    def __init__(self, k: int):
        self.k = k
        self.base = 0
        self.sums = [0]
        self.end = 2

    def cover(self, kept: deque, start: _Crossover, b: int) -> None:
        """Extend the sums over the primes from start.a to b - 1 that kept holds.

        If start.a lies outside the stretch, a new one begins there: the
        primes from start.a up to start's crossover are read backwards
        from it, so no prime between the old stretch and start.a is
        extracted.
        """
        top = self.base + len(self.sums) - 1
        if not self.base <= start.a <= top:
            back = chain.from_iterable(
                primes_below(first, flags, start.g + 1) for _, first, flags in reversed(kept)
            )
            primes = list(islice(back, start.below - start.a))
            primes.reverse()
            self.base, top, self.end = start.a, start.below, start.g + 1
            self.sums = list(accumulate(map(pow, primes, repeat(self.k)), initial=0))
        if top < b:
            ahead = chain.from_iterable(
                primes_from(first, flags, self.end) for _, first, flags in kept
            )
            primes = list(islice(ahead, b - top))
            if primes:
                self.sums += accumulate(map(pow, primes, repeat(self.k)), initial=self.sums.pop())
                self.end = primes[-1] + 1

    def trim(self, low: int) -> None:
        """Drop the sums of the primes before index low.

        A stretch that ends before low is left with no sums; every
        later crossover reads from low on, so cover replaces it first.
        """
        if low > self.base:
            del self.sums[: low - self.base]
            self.base = low


def _reports(rows: list, k: int, limit: int) -> Iterator[CountReport]:
    """A report for each of the ascending rows, from one sieve pass up to limit.

    Every block's primes are counted in C, and extracted and raised to
    the k-th power while some row still sweeps.  A crossover at g takes
    pi(g) from the count of the primes up to g, and its undecided starts
    from one running prefix of powers, which extracts only the primes
    the crossovers read.  A block is kept only while a crossover may
    still need its primes.  A row is reported once its sweep is over
    and its crossovers are counted; the rows ascend, so they complete in
    order.
    """
    unreported = deque(rows)
    sweeping = list(rows)
    marks = sorted(
        ((g, j, row) for row in rows for j, g in enumerate(row.crossovers, 1)),
        key=itemgetter(0),
    )
    reach = max((len(row.crossovers) for row in rows), default=1)
    m = 0  # marks[m:] lie past the blocks so far
    waiting = []  # crossovers passed but not counted
    kept = deque()
    prefix = _Prefix(k)
    seen = 0  # primes in the blocks so far
    # an empty block past the limit ends the stream: every row ends and
    # every crossover is passed before it
    for first, flags in chain(sieve_blocks(limit), ((limit + 2, b""),)):
        end = block_end(first, flags)  # every number below end is sieved
        kept.append(_Block(seen + count_flags(flags), first, flags))
        if sweeping:
            primes = list(primes_from(first, flags, first))
            powers = list(map(pow, primes, repeat(k)))
            for row in sweeping:
                row.push(primes, powers)
                if row.root < end:
                    # every prime up to the root is pushed: x + 1 ends the row
                    row.push((), (row.x + 1,))
            sweeping = [row for row in sweeping if row.window is not None]
        below, counted = seen, 0  # below counts the primes before the number counted
        while m < len(marks) and marks[m][0] < end:
            g, j, row = marks[m]
            m += 1
            below += count_primes(first, flags, counted, g + 1)
            counted = g + 1
            waiting.append(_Crossover(max(0, below - j + 1), below + j - 1, below, j, row, g))
        seen = kept[-1].stop
        if waiting:
            # a row's primes past its root add nothing to its sums
            ready = [c for c in waiting if c.b <= seen or c.row.root < end]
            if ready:
                waiting = [c for c in waiting if not (c.b <= seen or c.row.root < end)]
                _count_ready(ready, waiting, kept, prefix)
        # a crossover not yet passed needs primes from seen - reach + 1 on
        low = min(min([c.a for c in waiting], default=seen), seen - reach + 1)
        while kept and kept[0].stop <= low:
            kept.popleft()
        prefix.trim(low)
        while unreported and unreported[0].done():
            yield unreported.popleft().report()


def _count_ready(ready: list, waiting: list, kept: deque, prefix: _Prefix) -> None:
    """Count the ready crossovers, in the order of the first prime each reads.

    Crossovers whose primes overlap are covered at once.  The prefix
    starts no later than the first prime a waiting crossover reads:
    that one reads every prime from there to past the kept blocks.
    """
    low = min(waiting, key=attrgetter("a"), default=None)
    ready.sort(key=attrgetter("a"))
    i = 0
    while i < len(ready):
        start, b, n = ready[i], ready[i].b, i + 1
        while n < len(ready) and ready[n].a < b:
            b = max(b, ready[n].b)
            n += 1
        prefix.cover(kept, start if low is None or start.a <= low.a else low, b)
        for crossover in ready[i:n]:
            crossover.row.cross(crossover.j, crossover.below, prefix.sums, prefix.base)
        i = n


def count_rows(xs: Iterable[int], k: int) -> Iterator[CountReport]:
    """count_sums(build(x, k)) for each x of the ascending xs, from one sieve pass.

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
    rows = [_Row(x, k) for x in xs[: len(limits)]]
    # the roots ascend with the rows; with none in range there is nothing to sieve
    yield from _reports(rows, k, max(limits, default=0))
    if error is not None:
        raise error


def count_up_to(x: int, k: int) -> CountReport:
    """count_sums(build(x, k)) from a stream of primes, without the prefix array.

    The one-row case of count_rows.
    """
    return next(count_rows([x], k))
