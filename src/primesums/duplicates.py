"""Integers with more than one representation as a consecutive run.

Every run is a window f[b+m] - f[b] of the prefix sums.  The search
sorts 64-bit keys instead of the sums: with g = f mod 2^64, a window's
key g[b+m] - g[b] is n mod 2^64, which is n itself when x < 2^64.  g
is the running sum of the primes' k-th powers in uint64, which wrap
at 2^64 as g does, so it is made in numpy from the primes alone.  The
starts whose run has m or more terms are 0 .. reach-1, with reach
c_m of counting.starts_by_length, and form the block (k, m); one numpy
subtraction gives all its keys, and sorting the keys and comparing
neighbours finds every key that repeats.  A second neighbour mask over
those keeps each once: the keys are sorted already, and np.unique
would sort them again and load numpy.ma.

Every search for groups by x goes through _hunt: find_duplicates,
find_cross_power_duplicates and the CLI's duplicates and cross call it,
and it checks the cap and every exponent's sieve limit before the first
prefix is built, builds one per exponent, and returns them with the
groups, from which the CLI prints its expanded sums.  count_with_distinct
(distinct_count, count --distinct) checks the cap and builds its own.

Below x = 2^63 the searches by x take their keys straight from the sieve's
blocks: _search_prefix makes the primes as one uint64 array('Q'), from
numpy's indices of each block's flags, and g as their wrapping running
sum in a second one, which it holds as f.  A bisection reads a window
of at most 2x < 2^64, which g gives exactly, so the primes and sums
are never held as Python ints.  Hand-built lists and x from 2^63 on
keep build's lists, whose f is exact, and g is made from them.  An
array('Q') reads as Python ints, as a list does, so both run the same
code: f is read only through prefix.window_sum, which adds back the
2^64 a window of g wraps by, and numpy views the arrays in place.

The search runs one class of run lengths per pass.  Let M_k be the
largest M whose Carmichael function divides k (24 for k = 2, 240 for
k = 4, 2 for odd k) and G the M_k of the leading exponent, the one
with the most keys (the only one, in a search of one exponent), or
the gcd of every exponent's M_k, as told below.  Then p^k = 1 (mod G)
for every p prime to G, so a run of such powers with m terms has
n = m (mod G), and equal sums have lengths in one class mod G.  The
index e is one past the last power that is not 1 (mod G), read from
the list itself: 2 for the squares of primes, whose 4 and 9 share a
factor with 24.  Class r holds the starts from e
on of every block (k, m) with m = r (mod G), and the few windows that
start before e and have n = r (mod G); those are one small chunk of
the class's keys, matched on their exact sums.  Any other exponent k'
of a cross search works mod g = gcd(G, M_k'), which divides M_k': its
e is read mod g, its windows before e join the class of their exact
sum, and its blocks from e on join each of the G/g classes r = m
(mod g), among which lies the class of every sum they hold.  So a
pass sorts about keys/G keys of the leading exponent and keys/g of
each other, all runs of one sum share a class, and a run that G/g
passes hold is kept once.  Those copies cost keys and passes, so G is
the leading M_k only while they add at most an eighth to the keys
sorted, and else the gcd of every M_k, with which nothing is copied:
a cross search of squares and cubes up to 10^12 or more sorts 24
classes, each with half the cubes' few keys, while {4, 5}, whose
fifth powers would be copied 120 times, and {12, 13} or {36, 37},
with M_k of 65520 and 138181680 over a few dozen keys, sort 2.

One rule cuts a class to the in-memory cap.  A piece with more keys
than the cap, the whole class first, is cut into value slices,
P = ceil(keys / cap) in all: slice i holds the sums from v_i up to
v_{i+1}, where the runs from the piece's smallest sum up to v_i are
i/P of those from it up to its largest sum, by the shape of their
count, v^(2/(k+1)) / (ln v)^(2k/(k+1)).  The slices are made one at
a time, in ascending order, so a piece never holds all of them.  For
fixed m the sums rise with b, so a block's part of a slice is one
range of starts, found by bisection on the exact sums.  The shape only
estimates where the runs lie, so a slice that still holds more than
the cap is cut by the same rule, and so on until each piece fits or
holds one value.  The bounds lie above the smallest sum and at most
the largest, so every cut makes at least two pieces.

Equal sums share a pass, so each pass's repeated keys are searched
back into its own ranges.  These are cut into pieces whose sums span
less than 2^64 (one piece when x < 2^64), where the keys minus the
first key ascend as the exact sums do.  The windows found are regrouped
on their exact Python-int sums, which drops windows that only share a
key, and checked by direct summation.  The cross-power search sorts
the keys of every exponent together and keeps the groups that span two
exponents.  This module imports numpy when it loads, and it is loaded
only by a duplicate search: neither the package nor the CLI's other
commands import it, so they do not pay for loading numpy.
"""

from array import array
from bisect import bisect_left
from math import exp, gcd, log
from operator import index
from typing import NamedTuple

import numpy as np

from .counting import report_of, starts_by_length
from .prefix import _WRAP, PowerPrefixSums, Representation, build, sieve_limit, window_sum
from .sieve import sieve_blocks

DEFAULT_MAX_IN_MEMORY = 50_000_000

# below this x every window a bisection reads, at most 2x, is below 2^64
_EXACT_BELOW = 1 << 63


class DuplicateGroup(NamedTuple):
    """A value n together with all of its representations."""

    n: int
    members: tuple  # two or more Representation, sorted by (k, start_prime)


def _power_modulus(k: int) -> int:
    """M_k, the largest M whose Carmichael function divides k.

    The Carmichael function of q^a is q^(a-1) (q - 1) for an odd prime
    q, and 1, 2 and 2^(a-2) for 2, 4 and 2^a with a >= 3.  So M_k takes
    q^(1 + v_q(k)) for every prime q with q - 1 | k, and one more 2
    when k is even.
    """
    modulus = 2 if k % 2 == 0 else 1
    for q in range(2, k + 2):
        if k % (q - 1) == 0 and all(q % d for d in range(2, q)):
            power = q
            while k % power == 0:
                power *= q
            modulus *= power
    return modulus


def _slice_bounds(low: int, top: int, k: int, count: int) -> list:
    """v_1 <= ... <= v_{count-1} in (low, top], which cut the runs from low to top in count slices.

    The runs up to v number about v^(2/(k+1)) / (ln v)^(2k/(k+1)), so
    with u = ln v the slices hold equal shares of e^(2 s(u) / (k+1))
    between low and top, s(u) = u - k ln u.  s falls below u = k, and
    there it is continued as u - k ln k, which gives the bare power
    v^(2/(k+1)) for v < e^k.  Each u_i is found by bisection between
    ln low and ln top, with the same bracket and steps for every i, so
    the bounds ascend for every low, top, k and count; 24 steps place
    them to 2^-24 of that bracket.
    """

    def s(u: float) -> float:
        return u - k * log(max(u, k))

    bottom, peak = log(max(low, 1)), log(top)
    # the share of e^(2 s(u) / (k+1)) up to top that lies below low
    floor = exp(2 * (s(bottom) - s(peak)) / (k + 1))
    bounds = []
    for i in range(1, count):
        target = s(peak) + (k + 1) / 2 * log(floor + (1 - floor) * i / count)
        lo, hi = bottom, peak
        for _ in range(24):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if s(mid) < target else (lo, mid)
        bounds.append(min(max(int(exp(hi)), low + 1), top))
    return bounds


def _span(ps_by_k: dict, parts: list, windows: list) -> tuple:
    """The smallest and the largest sum of a piece.

    A part's sums rise from its start lo to hi - 1.  The list of ends
    is freed on return, before the search sorts the pieces.
    """
    sums = [n for n, *_ in windows]
    for k, m, lo, hi in parts:
        window = window_sum(ps_by_k[k].f, m)
        sums += [window(lo), window(hi - 1)]
    return min(sums), max(sums)


def _within_cap(ps_by_k: dict, parts: list, windows: list, max_in_memory: int):
    """(parts, windows) of one class, cut by the count's shape until each fits the cap.

    A piece with more keys than the cap is cut into ceil(keys / cap)
    value slices at the bounds of _slice_bounds, and a slice still past
    the cap is cut again.  The slices are made one at a time, in
    ascending order: a part's share of the slice below v runs from its
    next start to its first start with a sum of v or more.  A piece
    that holds a single value is not cut: its runs share a pass.
    """
    keys = len(windows) + sum(hi - lo for *_, lo, hi in parts)
    if keys > max_in_memory:
        low, high = _span(ps_by_k, parts, windows)
    if keys <= max_in_memory or low == high:
        yield parts, windows
        return
    bounds = _slice_bounds(low, high, min(ps_by_k), -(-keys // max_in_memory))
    rest, windows, taken = list(parts), sorted(windows), 0
    for v in [*bounds, high + 1]:
        piece = []
        for i, (k, m, lo, hi) in enumerate(rest):
            window = window_sum(ps_by_k[k].f, m)
            if lo < hi and window(lo) < v:
                end = hi if window(hi - 1) < v else bisect_left(range(hi), v, lo, key=window)
                piece.append((k, m, lo, end))
                rest[i] = (k, m, end, hi)
        # (v,) sorts before every window whose sum is v or more
        end = bisect_left(windows, (v,), taken)
        if piece or end > taken:  # equal bounds leave a slice empty
            yield from _within_cap(ps_by_k, piece, windows[taken:end], max_in_memory)
        taken = end


def _power_sums(primes, k: int, g) -> None:
    """Fill g, a zeroed uint64 array one longer than the uint64 primes, with f mod 2^64.

    g[0] stays 0, and then g runs over the sum of the primes' k-th
    powers, both wrapping at 2^64.
    """
    np.power(primes, k, out=g[1:])
    np.cumsum(g[1:], out=g[1:])


def _search_prefix(x: int, k: int) -> PowerPrefixSums:
    """The prefix sums that the search up to x reads.

    Below 2^63 they come straight from the sieve's blocks, as two
    array('Q'): the primes, and as f the sums g = f mod 2^64, which are
    exact on every window of at most 2x.  From 2^63 on they are build's
    lists.
    """
    if x >= _EXACT_BELOW:
        return build(x, k)
    primes = array("Q")
    for first, flags in sieve_blocks(sieve_limit(x, k)):
        primes.frombytes((np.flatnonzero(np.frombuffer(flags, np.uint8)) * 2 + first).tobytes())
    g = array("Q", [0]) * (len(primes) + 1)
    _power_sums(np.asarray(primes), k, np.asarray(g))
    return PowerPrefixSums(x, k, primes, g)


def _keys(ps: PowerPrefixSums, modulus: int) -> tuple:
    """g = f mod 2^64 of ps, as a uint64 array, and its index e.

    The search's own prefix sums hold g as f, which the array shares; a
    list's g is made from one uint64 array of its primes.
    """
    primes = np.asarray(ps.primes, dtype=np.uint64)
    # as lambda(G) divides k, p^k = 1 (mod G) exactly when p is prime to G
    others = np.flatnonzero(np.gcd(primes, modulus) > 1)
    if isinstance(ps.f, array):
        keys = np.asarray(ps.f)
    else:
        keys = np.zeros(len(primes) + 1, dtype=np.uint64)
        _power_sums(primes, ps.k, keys)
    return keys, int(others[-1]) + 1 if len(others) else 0


def _modulus(counts_by_k: dict) -> int:
    """G: M_k of the leading exponent, the one with the most keys, or the gcd of every M_k.

    The leading exponent's M_k is taken unless copying the other
    exponents' blocks to its classes, G/gcd(G, M_k) copies each, would
    add more than an eighth to the keys the passes sort.  A search of
    one exponent copies nothing.
    """
    keys = {k: sum(counts) for k, counts in counts_by_k.items()}
    modulus = _power_modulus(max(keys, key=keys.get))
    copied = sum(n * (modulus // gcd(modulus, _power_modulus(k)) - 1) for k, n in keys.items())
    if 8 * copied > sum(keys.values()):
        return gcd(*map(_power_modulus, keys))
    return modulus


def _passes(ps_by_k: dict, counts_by_k: dict, max_in_memory: int, keys_of: dict):
    """(r, parts, windows) per pass of class r, which holds every run whose sum is r mod G.

    G is _modulus's, M_k of the leading exponent or the gcd.  parts
    are ranges (k, m, lo, hi) of starts, windows are (n, k, b, m) with b
    before e.  Another exponent's parts join each class r = m (mod
    gcd(G, M_k)), so a pass may also hold its runs of other sums.  A
    class past the cap is cut by value, so the runs of one sum still
    share a pass.  Before the first pass, keys_of[k] is set to the keys
    of each exponent, from _keys.
    """
    modulus = _modulus(counts_by_k)
    classes = {}
    for k, ps in ps_by_k.items():
        step = gcd(modulus, _power_modulus(k))
        keys_of[k], e = _keys(ps, step)
        for m, reach in enumerate(counts_by_k[k], 1):
            if e < reach:
                for r in range(m % step, modulus, step):
                    classes.setdefault(r, ([], []))[0].append((k, m, e, reach))
            window = window_sum(ps.f, m)
            for b in range(min(e, reach)):
                n = window(b)
                classes.setdefault(n % modulus, ([], []))[1].append((n, k, b, m))
    for r in sorted(classes):
        for parts, windows in _within_cap(ps_by_k, *classes[r], max_in_memory):
            yield r, parts, windows


def _repeated_keys(keys_of: dict, parts: list, windows: list):
    """Sorted distinct keys that two or more windows of the pass share."""
    size = sum(hi - lo for *_, lo, hi in parts)
    out = np.empty(size + len(windows), dtype=np.uint64)
    pos = 0
    for k, m, lo, hi in parts:
        g = keys_of[k]
        np.subtract(g[lo + m : hi + m], g[lo:hi], out=out[pos : pos + hi - lo])
        pos += hi - lo
    out[size:] = [n % _WRAP for n, *_ in windows]
    out.sort()
    repeats = out[1:][out[1:] == out[:-1]]  # a key once for each window past its first
    # np.unique would sort again, and load numpy.ma
    first = np.empty(len(repeats), dtype=bool)
    first[:1] = True
    np.not_equal(repeats[1:], repeats[:-1], out=first[1:])
    return repeats[first]


def _hits(window, g, m: int, lo: int, hi: int, repeated):
    """Starts in lo..hi-1 whose length-m window has one of the repeated keys."""
    while lo < hi:
        # the piece lo..end-1 has sums below window(lo) + 2^64
        top = window(lo) + _WRAP
        end = hi if window(hi - 1) < top else bisect_left(range(hi), top, lo, key=window)
        keys = g[lo + m : end + m] - g[lo:end]
        targets = repeated - keys[0]
        keys -= keys[0]  # the exact sums minus window(lo), ascending
        pos = np.minimum(np.searchsorted(keys, targets), len(keys) - 1)
        yield from (pos[keys[pos] == targets] + lo).tolist()
        lo = end


def _verified_member(ps: PowerPrefixSums, n: int, b: int, m: int) -> Representation:
    primes = ps.primes
    k = ps.k
    direct = sum(p ** k for p in primes[b : b + m])
    if direct != n:
        raise RuntimeError(
            f"representation check failed: run at index {b} length {m}"
            f" sums to {direct}, expected {n}"
        )
    return Representation(n, k, b, m, primes[b])


def _check_cap(max_in_memory) -> None:
    """Refuse a cap that is not an integer (TypeError) or is below 1 (ValueError)."""
    if index(max_in_memory) < 1:
        raise ValueError(f"max_in_memory must be positive, got {max_in_memory}")


def _duplicate_groups(ps_by_k: dict, counts_by_k: dict, max_in_memory: int) -> list:
    """Values with two runs under one exponent, or runs under two of several exponents.

    counts_by_k holds starts_by_length of each prefix array.
    """
    _check_cap(max_in_memory)
    keys_of = {}
    rows_by_n = {}
    for _, parts, windows in _passes(ps_by_k, counts_by_k, max_in_memory, keys_of):
        repeated = _repeated_keys(keys_of, parts, windows)
        if not len(repeated):
            continue
        # a run of an exponent other than the leading one may be found
        # in several passes, and is kept once
        for k, m, lo, hi in parts:
            window = window_sum(ps_by_k[k].f, m)
            for b in _hits(window, keys_of[k], m, lo, hi, repeated):
                rows_by_n.setdefault(window(b), set()).add((k, b, m))
        shared = set(repeated.tolist())
        for n, k, b, m in windows:
            if n % _WRAP in shared:
                rows_by_n.setdefault(n, set()).add((k, b, m))
    groups = []
    for n in sorted(rows_by_n):
        rows = rows_by_n[n]
        # a cross-power group needs runs under two exponents
        if len(rows if len(ps_by_k) == 1 else {row[0] for row in rows}) > 1:
            members = (_verified_member(ps_by_k[k], n, b, m) for k, b, m in sorted(rows))
            groups.append(DuplicateGroup(n, tuple(members)))
    return groups


def _hunt(x: int, ks: list, max_in_memory: int = DEFAULT_MAX_IN_MEMORY) -> tuple:
    """(ps_by_k, groups): the prefix sums and the groups of the search up to x.

    ks are distinct exponents, ascending.  Every k, x, sieve budget and
    cap is refused before the first prefix is built.  One exponent finds
    its duplicates, several their cross-power groups; the finders are
    looked up by name, so a wrapper set on this module sees every search.
    """
    for k in ks:
        sieve_limit(x, k)
    _check_cap(max_in_memory)
    ps_by_k = {k: _search_prefix(x, k) for k in ks}
    if len(ks) > 1:
        return ps_by_k, find_cross_power_duplicates_from_prefixes(ps_by_k, max_in_memory)
    return ps_by_k, find_duplicates_from_prefix(ps_by_k[ks[0]], max_in_memory)


def find_duplicates(
    x: int, k: int, max_in_memory: int = DEFAULT_MAX_IN_MEMORY
) -> list:
    """All n <= x with at least two runs for this k, ascending by n."""
    return _hunt(x, [k], max_in_memory)[1]


def find_duplicates_from_prefix(
    ps: PowerPrefixSums, max_in_memory: int = DEFAULT_MAX_IN_MEMORY
) -> list:
    """Duplicate groups of one prefix array.

    At most max_in_memory keys (8 bytes each) are sorted at once, or the
    runs of one value if more of them share it.  A class's value slices
    are made one at a time, so a small cap peaks at or below the default
    cap's memory, but each pass walks every run length's range in
    Python: find_cross_power_duplicates(10**17, {3, 4}, 1000) took 101 s
    and 33 MB, against 0.27 s and 94 MB at the default cap, for the same
    one group (2 vCPUs, CPython 3.11).
    """
    return _duplicate_groups({ps.k: ps}, {ps.k: starts_by_length(ps)}, max_in_memory)


def find_cross_power_duplicates(
    x: int,
    k_set,
    max_in_memory: int = DEFAULT_MAX_IN_MEMORY,
    spill_dir=None,
) -> list:
    """All n <= x representable under two or more distinct exponents.

    Values duplicated only within a single exponent are excluded; those
    belong to find_duplicates.  The search is _hunt's, as for the CLI's
    cross.  spill_dir is accepted and ignored, as nothing is written to
    disk; it stays only because the benchmark's cross-capped job
    (perfbench/child.py) still passes it by keyword.
    """
    ks = sorted(set(k_set))
    if len(ks) < 2:
        raise ValueError(f"cross-power search needs >= 2 distinct exponents, got {ks}")
    return _hunt(x, ks, max_in_memory)[1]


def find_cross_power_duplicates_from_prefixes(
    ps_by_k: dict, max_in_memory: int = DEFAULT_MAX_IN_MEMORY
) -> list:
    """Cross-power groups of several prefix arrays."""
    if len(ps_by_k) < 2:
        raise ValueError(f"cross-power search needs >= 2 distinct exponents, got {sorted(ps_by_k)}")
    counts_by_k = {k: starts_by_length(ps) for k, ps in ps_by_k.items()}
    return _duplicate_groups(ps_by_k, counts_by_k, max_in_memory)


def duplicate_surplus(groups: list) -> int:
    """Representations beyond the first across all groups."""
    return sum(len(g.members) - 1 for g in groups)


def count_with_distinct(
    x: int, k: int, max_in_memory: int = DEFAULT_MAX_IN_MEMORY
) -> tuple:
    """The CountReport up to x and its number of distinct n <= x.

    The count and the duplicate search read one prefix array and one
    starts_by_length.  The cap is refused before the prefix is built.
    """
    _check_cap(max_in_memory)
    ps = _search_prefix(x, k)
    counts = starts_by_length(ps)
    report = report_of(ps, counts)
    groups = _duplicate_groups({k: ps}, {k: counts}, max_in_memory)
    return report, report.count - duplicate_surplus(groups)


def distinct_count(
    x: int, k: int, max_in_memory: int = DEFAULT_MAX_IN_MEMORY
) -> int:
    """Number of distinct representable n <= x (count minus surplus)."""
    return count_with_distinct(x, k, max_in_memory)[1]
