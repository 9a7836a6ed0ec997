"""Integers with more than one representation as a consecutive run.

Every run is a window f[b+m] - f[b] of the prefix sums.  The search
sorts 64-bit keys instead of the sums: with g = C*f mod 2^64 for an odd
constant C, the key g[b+m] - g[b] of a window equals C*n mod 2^64, so
equal sums always get equal keys, and all keys of one length m come
from a single numpy subtraction.  Sorting the keys and comparing
neighbours finds every key that repeats.  Each window with such a key
is then mapped back to its exact Python-int sum, regrouped on it and
checked by direct summation, which drops windows that only share a key
(possible once x >= 2^64).  The cross-power search sorts the keys of
every exponent together and keeps the groups that span two exponents.

Multiplying by C spreads even small sums over the whole key range, so
a job with more keys than the in-memory cap sorts one slice of
[0, 2^64) per pass: memory stays bounded and nothing is written to
disk.  numpy is imported by the search itself, so commands that never
search for duplicates do not pay for loading it.
"""

from typing import NamedTuple

from .counting import count_sums
from .enumeration import Representation, length_histogram
from .prefix import PowerPrefixSums, build

DEFAULT_MAX_IN_MEMORY = 50_000_000

# odd, so multiplying by it permutes the residues mod 2^64
_SCRAMBLE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class DuplicateGroup(NamedTuple):
    """A value n together with all of its representations."""

    n: int
    members: tuple  # two or more Representation, sorted by (k, start_prime)


def _key_table(np, ps: PowerPrefixSums):
    """g = C*f mod 2^64, and for m = 1, 2, ... the number of starts with a run of m or more terms."""
    g = np.fromiter(
        ((v * _SCRAMBLE) & _MASK64 for v in ps.f), dtype=np.uint64, count=len(ps.f)
    )
    # runs never lengthen as b grows, so the starts whose run has m or
    # more terms are exactly 0 .. reach[m - 1] - 1
    reach = list(length_histogram(ps).values())
    return g, reach


def _windows(tables: dict):
    """Yield (k, m, keys of the length-m windows indexed by start b) for every k and m."""
    for k, (g, reach) in tables.items():
        for m, count in enumerate(reach, 1):
            yield k, m, g[m : m + count] - g[:count]


def _repeated_keys(np, tables: dict, max_in_memory: int):
    """Sorted distinct keys that two or more windows share.

    Pass i sorts the keys whose top 32 bits t have (t * passes) >> 32
    == i, with as many passes as it takes to hold about max_in_memory
    keys at once; a first pass counts each slice so that every buffer
    is allocated at its exact size.
    """
    total = sum(sum(reach) for _, reach in tables.values())
    passes = max(1, -(-total // max_in_memory))
    if passes == 1:
        return _slice_repeats(np, tables, total, None, None)
    shift = np.uint64(32)
    sizes = np.zeros(passes, dtype=np.int64)
    for _, _, keys in _windows(tables):
        slices = ((keys >> shift) * np.uint64(passes)) >> shift
        sizes += np.bincount(slices.astype(np.intp), minlength=passes)
    # slice i holds the keys from starts[i] up to, not including, starts[i + 1]
    starts = [-(-(i << 32) // passes) << 32 for i in range(passes + 1)]
    return np.concatenate([
        _slice_repeats(np, tables, size, np.uint64(lo), np.uint64(hi - lo))
        for size, lo, hi in zip(sizes.tolist(), starts, starts[1:])
    ])


def _slice_repeats(np, tables: dict, size: int, lo, width):
    """Sorted distinct shared keys among those with (key - lo) mod 2^64 < width.

    width None takes every key.  The slice's buffer is freed on return,
    before the next pass fills its own.
    """
    out = np.empty(size, dtype=np.uint64)
    pos = 0
    for _, _, keys in _windows(tables):
        if width is not None:
            keys = np.compress(keys - lo < width, keys)
        out[pos : pos + len(keys)] = keys
        pos += len(keys)
    out.sort()
    return np.unique(out[1:][out[1:] == out[:-1]])


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

    tables = {k: _key_table(np, ps) for k, ps in ps_by_k.items()}
    repeated = _repeated_keys(np, tables, max_in_memory)
    # a bitmap over the top 16 bits of the repeated keys passes only a
    # few windows on to the exact membership test; 16-bit values index
    # it as an int64 view, which numpy gathers faster than uint64
    shift = np.uint64(48)
    near = np.zeros(1 << 16, dtype=bool)
    near[(repeated >> shift).view(np.int64)] = True
    rows_by_n = {}
    for k, m, keys in _windows(tables):
        hits = np.flatnonzero(np.take(near, (keys >> shift).view(np.int64)))
        if len(hits):
            hits = hits[np.isin(keys[hits], repeated)]
        f = ps_by_k[k].f
        for b in hits.tolist():
            rows_by_n.setdefault(f[b + m] - f[b], []).append((k, b, m))
    groups = []
    for n in sorted(rows_by_n):
        rows = rows_by_n[n]
        # a cross-power group needs runs under two exponents
        if len(rows if len(tables) == 1 else {row[0] for row in rows}) > 1:
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
