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
keep build's lists, whose f is exact, and g is made from them.  The
search reads every sum in numpy as a window f[b+m] - f[b] of one array
f: below 2^63 that is g itself, viewed in place, whose uint64 windows
wrap back to the exact sums, and otherwise an object array of the
list's ints, so both run the same code.

The search runs one class of run lengths per pass.  Let M_k be the
largest M whose Carmichael function divides k (24 for k = 2, 240 for k
= 4, 2 for odd k) and G the M_k of the leading exponent, the one with
the most keys (the only one, in a search of one exponent), or the gcd
of every exponent's M_k, as told below.  Then p^k = 1 (mod G) for
every p prime to G, so a run of such powers with m terms has n = m
(mod G), and equal sums have lengths in one class mod G.  The index e
is one past the last power that is not 1 (mod G), read from the list
itself: 2 for the squares of primes, whose 4 and 9 share a factor with
24.  Class r holds the starts from e on of every block (k, m) with m =
r (mod G), and as a block of one start each run that starts before e
and has n = r (mod G).  A class is four int64 arrays, its rows (k, m,
lo, hi): the runs of m terms from the starts lo..hi-1.  Any other
exponent k' of a cross search works mod g = gcd(G, M_k'), which
divides M_k': its e is read mod g, its runs before e join the class of
their exact sum, and its blocks from e on join each of the G/g classes
r = m (mod g), among which lies the class of every sum they hold.  So
a pass sorts about keys/G keys of the leading exponent and keys/g of
each other, all runs of one sum share a class, and a run that G/g
passes hold is kept once.  Those copies cost keys and passes, so G is
the leading M_k only while they add at most an eighth to the keys
sorted, and else the gcd of every M_k, with which nothing is copied: a
cross search of squares and cubes up to 10^12 or more sorts 24
classes, each with half the cubes' few keys, while {4, 5}, whose fifth
powers would be copied 120 times, and {12, 13} or {36, 37}, with M_k
of 65520 and 138181680 over a few dozen keys, sort 2.

One rule cuts a class to the in-memory cap.  A piece with more keys
than the cap, the whole class first, is cut into value slices, P =
ceil(keys / cap) in all: slice i holds the sums from v_i up to
v_{i+1}, where the runs from the piece's smallest sum up to v_i are
i/P of those from it up to its largest sum, by the shape of their
count, v^(2/(k+1)) / (ln v)^(2k/(k+1)).  The slices are made one at a
time, in ascending order, so a piece never holds all of them.  For
fixed m the sums rise with b, so a row's part of a slice is one range
of starts, and one bisection of every row at once, _first_from, finds
where each range ends.  The shape only estimates where the runs lie,
so a slice that still holds more than the cap is cut by the same rule,
and so on until each piece fits or holds one value.  The bounds lie
above the smallest sum and at most the largest, so every cut makes at
least two pieces.

Equal sums share a pass, so each pass's repeated keys are searched
back into its own rows by the same bisection.  A row is read in pieces
whose sums span less than 2^64 (the whole row below 2^63), where a key
stands for one exact sum.  The runs found are regrouped on their exact
sums, which drops runs that only share a key, and checked by direct
summation.  The cross-power search sorts the keys of every exponent
together and keeps the groups that span two exponents.  This module
imports numpy when it loads, and it is loaded only by a duplicate
search: neither the package nor the CLI's other commands import it, so
they do not pay for loading numpy.
"""

from array import array
from math import exp, gcd, log
from operator import index, is_
from typing import NamedTuple

import numpy as np

from .counting import report_of, starts_by_length
from .prefix import _WRAP, PowerPrefixSums, Representation, build, sieve_limit
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


def _first_from(f, m, lo, hi, v):
    """Per row, its first start b in lo..hi-1 with a sum f[b + m] - f[b] of v or more, or hi.

    A row's sums rise with b.  v is one value, or one per row.  Every
    row is bisected at once, and f is read only at starts below hi.
    """
    lo, hi, v = lo.copy(), hi.copy(), np.full(lo.shape, v, dtype=f.dtype)
    live = (lo < hi).nonzero()[0]
    while len(live):
        mid = (lo[live] + hi[live]) >> 1
        below = f[mid + m[live]] - f[mid] < v[live]
        lo[live[below]] = mid[below] + 1
        hi[live[~below]] = mid[~below]
        live = live[lo[live] < hi[live]]
    return lo


def _within_cap(f, rows, k: int, max_in_memory: int):
    """The rows of one class, cut by the count's shape until each piece fits the cap.

    A piece with more keys than the cap is cut into ceil(keys / cap)
    value slices at the bounds of _slice_bounds, for the search's least
    exponent k, and a slice still past the cap is cut again.  The slices
    are made one at a time, in ascending order: a row's share of the
    slice below v runs from its next start to its first start with a
    sum of v or more.  A piece that holds a single value is not cut: its
    runs share a pass.
    """
    ks, m, lo, hi = rows
    keys = int((hi - lo).sum())
    if keys > max_in_memory:
        # the piece's smallest and largest sums, as a row's rise from lo to hi - 1
        low, high = int((f[lo + m] - f[lo]).min()), int((f[hi - 1 + m] - f[hi - 1]).max())
    if keys <= max_in_memory or low == high:
        yield rows
        return
    for v in [*_slice_bounds(low, high, k, -(-keys // max_in_memory)), high + 1]:
        end = _first_from(f, m, lo, hi, v)
        taken = end > lo
        if taken.any():  # equal bounds leave a slice empty
            yield from _within_cap(f, np.stack((ks, m, lo, end))[:, taken], k, max_in_memory)
        lo = end


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
    """(g, f, e): g = f mod 2^64 of ps as a uint64 array, an array f of its exact sums, and e.

    The search's own prefix sums hold g as f, which the array shares,
    and whose windows of at most 2x are exact, so f is g itself.  A
    list's g is made from one uint64 array of its primes, and its f holds
    the list's Python ints.
    """
    primes = np.asarray(ps.primes, dtype=np.uint64)
    # as lambda(G) divides k, p^k = 1 (mod G) exactly when p is prime to G
    others = np.flatnonzero(np.gcd(primes, modulus) > 1)
    if isinstance(ps.f, array):
        g = f = np.asarray(ps.f)
    else:
        g, f = np.zeros(len(primes) + 1, dtype=np.uint64), np.array(ps.f, dtype=object)
        _power_sums(primes, ps.k, g)
    return g, f, int(others[-1]) + 1 if len(others) else 0


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


def _passes(ps_by_k: dict, counts_by_k: dict, max_in_memory: int) -> tuple:
    """(g, f, base, passes): every exponent's keys and exact sums, and (r, rows) per pass of class r.

    g and f hold each exponent's arrays from _keys end to end, from
    base[k] on; one exponent's are used as they are, and f is g when
    every exponent's is.  Class r holds every run whose sum is r mod G,
    G as _modulus gives it.  rows is a 4 x P int64 array of rows (k, m,
    lo, hi): the runs of m terms from the starts lo..hi-1, counted in g
    and f.  A run that starts before e is a row of one start in the
    class of its exact sum.  Another exponent's blocks join each class r
    = m (mod gcd(G, M_k)), so a pass may also hold its runs of other
    sums.  A class past the cap is cut by value, so the runs of one sum
    still share a pass.
    """
    modulus = _modulus(counts_by_k)
    classes, base, gs, fs = {}, {}, [], []
    for k, ps in ps_by_k.items():
        step = gcd(modulus, _power_modulus(k))
        g, f, e = _keys(ps, step)
        base[k] = at = sum(map(len, gs))
        gs.append(g)
        fs.append(f)
        counts = counts_by_k[k]
        # r_of[b][m - 1] is the class of the run of m terms from b, for each b before e
        r_of = [((f[b + 1 : b + 1 + len(counts)] - f[b]) % modulus).tolist() for b in range(e)]
        for m, reach in enumerate(counts, 1):
            if e < reach:
                row = (k, m, at + e, at + reach)  # one tuple for every class it joins
                for r in range(m % step, modulus, step):
                    classes.setdefault(r, []).append(row)
            for b in range(min(e, reach)):
                classes.setdefault(r_of[b][m - 1], []).append((k, m, at + b, at + b + 1))
    g = gs[0] if len(gs) == 1 else np.concatenate(gs)
    f = g if all(map(is_, fs, gs)) else fs[0] if len(fs) == 1 else np.concatenate(fs)
    # a class's rows are made, and its list dropped, as its passes start
    return g, f, base, ((r, rows) for r in sorted(classes)
                        for rows in _within_cap(f, np.array(classes.pop(r)).T, min(ps_by_k), max_in_memory))


def _repeated_keys(g, rows):
    """Sorted distinct keys that two or more runs of the pass share.

    The rows of one start are read in one gather, and every other row
    by one subtraction into the pass's keys: a gather of every start
    would take 16 or more bytes of temporaries per key.
    """
    _, m, lo, hi = rows
    one = hi - lo == 1
    out = np.empty(int((hi - lo).sum()), dtype=np.uint64)
    pos = np.count_nonzero(one)
    np.subtract(g[lo[one] + m[one]], g[lo[one]], out=out[:pos])
    for m, lo, hi in zip(*rows[1:, ~one].tolist()):
        np.subtract(g[lo + m : hi + m], g[lo:hi], out=out[pos : pos + hi - lo])
        pos += hi - lo
    out.sort()
    repeats = out[1:][out[1:] == out[:-1]]  # a key once for each run past its first
    # np.unique would sort again, and load numpy.ma
    first = np.empty(len(repeats), dtype=bool)
    first[:1] = True
    np.not_equal(repeats[1:], repeats[:-1], out=first[1:])
    return repeats[first]


def _hits(g, f, rows, repeated):
    """(n, k, b, m) for every run of the rows whose key is one of the repeated keys.

    Each round takes every row from lo up to its first start whose sum
    passes the row's first sum by 2^64: the whole row when f is g.  In
    that piece a key t from the key of lo up to that of its last start,
    mod 2^64, stands for the one sum first + (t - key(lo) mod 2^64),
    which one bisection looks up for every such row and key at once.
    """
    while rows.shape[1] and len(repeated):
        k, m, lo, hi = rows
        first = f[lo + m] - f[lo]
        end = hi if f is g else _first_from(f, m, lo, hi, first + _WRAP)
        key, last = g[lo + m] - g[lo], g[end - 1 + m] - g[end - 1]
        # each row's repeated keys from key to last, mod 2^64, one (row, t) pair each
        start = np.searchsorted(repeated, key)
        count = np.searchsorted(repeated, last, "right") - start + len(repeated) * (last < key)
        row = np.repeat(np.arange(len(lo)), count)
        t = repeated[(np.arange(len(row)) + np.repeat(start - np.cumsum(count) + count, count)) % len(repeated)]
        sums = first[row] + (t - key[row]).astype(f.dtype)
        b = _first_from(f, m[row], lo[row], end[row], sums)
        hit = f[b + m[row]] - f[b] == sums
        yield from zip(sums[hit].tolist(), k[row[hit]].tolist(), b[hit].tolist(), m[row[hit]].tolist())
        rows = np.stack((k, m, end, hi))[:, end < hi]


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
    g, f, base, passes = _passes(ps_by_k, counts_by_k, max_in_memory)
    rows_by_n = {}
    for _, rows in passes:
        # a run of an exponent other than the leading one may be found in
        # several passes, and is kept once
        for n, k, b, m in _hits(g, f, rows, _repeated_keys(g, rows)):
            rows_by_n.setdefault(n, set()).add((k, b - base[k], m))
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
    cap's memory, and each cut is one bisection of every run length at
    once: find_cross_power_duplicates(x, {3, 4}, 1000) took 1.1-1.3 s,
    2.7-3.8 s and 10.4-11.8 s at x = 10^15, 10^16 and 10^17, peaking at
    32-34 MB, against 0.03-0.22 s and 38-94 MB at the default cap, for
    the same one group (2 vCPUs, CPython 3.11).
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
