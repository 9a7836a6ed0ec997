"""Integers with more than one representation as a consecutive run.

Every run is a window f[b+m] - f[b] of the prefix sums.  The search
sorts 64-bit keys instead of the sums: with g = f mod 2^64, a window's
key g[b+m] - g[b] is n mod 2^64, which is n itself when x < 2^64.  The
starts whose run has m or more terms are 0 .. reach-1, with reach
c_m of counting.starts_by_length, and form the block (k, m); one numpy
subtraction gives all its keys, and sorting the keys and comparing
neighbours finds every key that repeats.

A job with more keys than the in-memory cap sorts one value slice per
pass, P = ceil(keys / cap) in all: slice i holds the sums from
v_i = x * (i/P)^((k+1)/2), as the runs up to v number about
v^(2/(k+1)).  For fixed m the sums rise with b, so a block's part of a
slice is one range of starts, found by bisection on the exact sums.

Equal sums share a slice, so each slice's repeated keys are searched
back into its own ranges.  These are cut into pieces whose sums span
less than 2^64 (one piece when x < 2^64), where the keys minus the
first key ascend as the exact sums do.  The windows found are regrouped
on their exact Python-int sums, which drops windows that only share a
key, and checked by direct summation.  The cross-power search sorts
the keys of every exponent together and keeps the groups that span two
exponents.  numpy is imported by the search itself, so commands that
never search for duplicates do not pay for loading it.
"""

from bisect import bisect_left
from typing import NamedTuple

from .counting import count_sums, starts_by_length
from .prefix import PowerPrefixSums, Representation, build, window_sum

DEFAULT_MAX_IN_MEMORY = 50_000_000

_WRAP = 1 << 64


class DuplicateGroup(NamedTuple):
    """A value n together with all of its representations."""

    n: int
    members: tuple  # two or more Representation, sorted by (k, start_prime)


def _value_slices(ps_by_k: dict, max_in_memory: int) -> list:
    """Per pass, the ranges (k, m, lo, hi) of starts whose sums lie in its value slice."""
    # runs never lengthen as b grows, so the starts whose run has m or
    # more terms are exactly 0 .. reach - 1
    blocks = [
        (k, m, reach)
        for k, ps in ps_by_k.items()
        for m, reach in enumerate(starts_by_length(ps), 1)
    ]
    passes = max(1, -(-sum(reach for *_, reach in blocks) // max_in_memory))
    x = max(ps.x for ps in ps_by_k.values())
    power = (min(ps_by_k) + 1) / 2
    bounds = [int(x * (i / passes) ** power) for i in range(1, passes)]
    slices = [[] for _ in range(passes)]
    for k, m, reach in blocks:
        window = window_sum(ps_by_k[k].f, m)
        cuts = [0] + [bisect_left(range(reach), v, key=window) for v in bounds] + [reach]
        for parts, lo, hi in zip(slices, cuts, cuts[1:]):
            if lo < hi:
                parts.append((k, m, lo, hi))
    return slices


def _repeated_keys(np, keys_of: dict, parts: list):
    """Sorted distinct keys that two or more windows of the parts share."""
    out = np.empty(sum(hi - lo for *_, lo, hi in parts), dtype=np.uint64)
    pos = 0
    for k, m, lo, hi in parts:
        g = keys_of[k]
        np.subtract(g[lo + m : hi + m], g[lo:hi], out=out[pos : pos + hi - lo])
        pos += hi - lo
    out.sort()
    return np.unique(out[1:][out[1:] == out[:-1]])


def _hits(np, window, g, m: int, lo: int, hi: int, repeated):
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


def _group(ps_by_k: dict, n: int, rows: list) -> DuplicateGroup:
    members = tuple(
        _verified_member(ps_by_k[k], n, b, m) for k, b, m in sorted(rows)
    )
    return DuplicateGroup(n=n, members=members)


def _duplicate_groups(ps_by_k: dict, max_in_memory: int) -> list:
    """Values with two runs under one exponent, or runs under two of several exponents."""
    if max_in_memory < 1:
        raise ValueError(f"max_in_memory must be positive, got {max_in_memory}")
    import numpy as np

    keys_of = {
        k: np.fromiter((v % _WRAP for v in ps.f), dtype=np.uint64, count=len(ps.f))
        for k, ps in ps_by_k.items()
    }
    rows_by_n = {}
    for parts in _value_slices(ps_by_k, max_in_memory):
        repeated = _repeated_keys(np, keys_of, parts)
        if not len(repeated):
            continue
        for k, m, lo, hi in parts:
            window = window_sum(ps_by_k[k].f, m)
            for b in _hits(np, window, keys_of[k], m, lo, hi, repeated):
                rows_by_n.setdefault(window(b), []).append((k, b, m))
    groups = []
    for n in sorted(rows_by_n):
        rows = rows_by_n[n]
        # a cross-power group needs runs under two exponents
        if len(rows if len(ps_by_k) == 1 else {row[0] for row in rows}) > 1:
            groups.append(_group(ps_by_k, n, rows))
    return groups


def find_duplicates(
    x: int, k: int, max_in_memory: int = DEFAULT_MAX_IN_MEMORY
) -> list:
    """All n <= x with at least two runs for this k, ascending by n."""
    ps = build(x, k)
    return find_duplicates_from_prefix(ps, max_in_memory)


def find_duplicates_from_prefix(
    ps: PowerPrefixSums, max_in_memory: int = DEFAULT_MAX_IN_MEMORY
) -> list:
    """Duplicate groups of one prefix array.

    At most about max_in_memory keys (8 bytes each) are sorted at once.
    """
    return _duplicate_groups({ps.k: ps}, max_in_memory)


def find_cross_power_duplicates(
    x: int,
    k_set,
    max_in_memory: int = DEFAULT_MAX_IN_MEMORY,
    spill_dir=None,
) -> list:
    """All n <= x representable under two or more distinct exponents.

    Values duplicated only within a single exponent are excluded; those
    belong to find_duplicates.  spill_dir is accepted and ignored, as
    nothing is written to disk; it stays only because the benchmark's
    cross-capped job (perfbench/child.py) still passes it by keyword.
    """
    ks = sorted(set(k_set))
    if len(ks) < 2:
        raise ValueError(f"cross-power search needs >= 2 distinct exponents, got {ks}")
    ps_by_k = {k: build(x, k) for k in ks}
    return find_cross_power_duplicates_from_prefixes(ps_by_k, max_in_memory)


def find_cross_power_duplicates_from_prefixes(
    ps_by_k: dict, max_in_memory: int = DEFAULT_MAX_IN_MEMORY
) -> list:
    """Cross-power groups of several prefix arrays."""
    ks = sorted(ps_by_k)
    if len(ks) < 2:
        raise ValueError(f"cross-power search needs >= 2 distinct exponents, got {ks}")
    return _duplicate_groups(ps_by_k, max_in_memory)


def duplicate_surplus(groups: list) -> int:
    """Representations beyond the first across all groups."""
    return sum(len(g.members) - 1 for g in groups)


def distinct_count(
    x: int, k: int, max_in_memory: int = DEFAULT_MAX_IN_MEMORY
) -> int:
    """Number of distinct representable n <= x (count minus surplus)."""
    ps = build(x, k)
    total = count_sums(ps).count
    groups = find_duplicates_from_prefix(ps, max_in_memory)
    return total - duplicate_surplus(groups)
