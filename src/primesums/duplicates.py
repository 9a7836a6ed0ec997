"""Integers with more than one representation as a consecutive run.

The search mirrors a sort-and-uniq pipeline: stream every
representation, sort by value, and scan for adjacent equals.  Runs are
packed into single integers so the in-memory sort works on a flat list;
jobs larger than the configured cap spill sorted chunks as fixed-width
binary records to temporary files and merge them back lazily.  The
cross-power variant merges the per-exponent sorted streams instead of
materializing any set.
"""

import heapq
import os
import struct
import tempfile
from typing import Iterator, NamedTuple

from .counting import count_sums, run_ends
from .enumeration import Representation
from .prefix import PowerPrefixSums, build
from .sieve import DEFAULT_BUDGET_BYTES

DEFAULT_MAX_IN_MEMORY = 50_000_000

START_BITS = 48
LENGTH_BITS = 48
_N_SHIFT = START_BITS + LENGTH_BITS
_START_MASK = (1 << START_BITS) - 1
_LENGTH_MASK = (1 << LENGTH_BITS) - 1

# spill record: n (16 bytes) then start_index, length, k, 7 pad bytes
RECORD_SIZE = 40
_TAIL = struct.Struct("<QQB7x")
_RECORDS_PER_READ = 1 << 14


class DuplicateGroup(NamedTuple):
    """A value n together with all of its representations."""

    n: int
    members: tuple  # two or more Representation, sorted by (k, start_prime)


def _spill_sorted(packed: list, k: int, spill_dir) -> str:
    packed.sort()
    fd, path = tempfile.mkstemp(prefix="primesums-", suffix=".run", dir=spill_dir)
    try:
        with os.fdopen(fd, "wb", buffering=1 << 20) as out:
            for v in packed:
                out.write(
                    (v >> _N_SHIFT).to_bytes(16, "little")
                    + _TAIL.pack((v >> LENGTH_BITS) & _START_MASK, v & _LENGTH_MASK, k)
                )
    except BaseException:
        # the caller only learns the path on success, so a partial file
        # (full disk, interrupt) is removed here
        os.unlink(path)
        raise
    return path


def _read_spill(path: str) -> Iterator[tuple]:
    with open(path, "rb", buffering=1 << 20) as src:
        while True:
            block = src.read(RECORD_SIZE * _RECORDS_PER_READ)
            if not block:
                return
            for off in range(0, len(block), RECORD_SIZE):
                n = int.from_bytes(block[off : off + 16], "little")
                b, m, k = _TAIL.unpack_from(block, off + 16)
                yield n, b, m


def _sorted_runs(
    ps: PowerPrefixSums, max_in_memory: int, spill_dir
) -> Iterator[tuple]:
    """Yield (n, start_index, length) for every run, ordered by n.

    Ties are broken by start index, so the order is total and
    deterministic.  Runs are packed straight into integers, because
    this is the hot path of the whole module: at large x it handles
    millions of runs, and packing avoids building a tuple per
    representation.
    """
    f = ps.f
    k = ps.k
    n_primes = len(ps.primes)
    if n_primes > _START_MASK:
        raise OverflowError(f"{n_primes} primes exceed the packed index range")
    packed = []
    spills = []
    try:
        for b, t in enumerate(run_ends(ps)):
            fb = f[b]
            base = b << LENGTH_BITS
            packed.extend(
                [
                    (ft - fb) << _N_SHIFT | base | m
                    for m, ft in enumerate(f[b + 1 : t + 1], 1)
                ]
            )
            if len(packed) >= max_in_memory:
                spills.append(_spill_sorted(packed, k, spill_dir))
                packed.clear()
        if not spills:
            packed.sort()
            for v in packed:
                yield v >> _N_SHIFT, (v >> LENGTH_BITS) & _START_MASK, v & _LENGTH_MASK
            return
        if packed:
            spills.append(_spill_sorted(packed, k, spill_dir))
            packed.clear()
        yield from heapq.merge(*map(_read_spill, spills))
    finally:
        for path in spills:
            try:
                os.unlink(path)
            except OSError:
                pass


def _verified_member(ps: PowerPrefixSums, n: int, b: int, m: int) -> Representation:
    primes = ps.primes.primes
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


def find_duplicates(
    x: int,
    k: int,
    max_in_memory: int = DEFAULT_MAX_IN_MEMORY,
    spill_dir=None,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> list:
    """All n <= x with at least two runs for this k, ascending by n."""
    ps = build(x, k, budget_bytes)
    return find_duplicates_from_prefix(ps, max_in_memory, spill_dir)


def find_duplicates_from_prefix(
    ps: PowerPrefixSums,
    max_in_memory: int = DEFAULT_MAX_IN_MEMORY,
    spill_dir=None,
) -> list:
    groups = []
    ps_by_k = {ps.k: ps}
    cur_n = -1
    rows = []
    for n, b, m in _sorted_runs(ps, max_in_memory, spill_dir):
        if n != cur_n:
            if len(rows) > 1:
                groups.append(_group(ps_by_k, cur_n, rows))
            cur_n = n
            rows = [(ps.k, b, m)]
        else:
            rows.append((ps.k, b, m))
    if len(rows) > 1:
        groups.append(_group(ps_by_k, cur_n, rows))
    return groups


def _tagged(runs: Iterator[tuple], k: int) -> Iterator[tuple]:
    for n, b, m in runs:
        yield n, k, b, m


def find_cross_power_duplicates(
    x: int,
    k_set,
    max_in_memory: int = DEFAULT_MAX_IN_MEMORY,
    spill_dir=None,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> list:
    """All n <= x representable under two or more distinct exponents.

    Values duplicated only within a single exponent are excluded; those
    belong to find_duplicates.
    """
    ks = sorted(set(k_set))
    if len(ks) < 2:
        raise ValueError(f"cross-power search needs >= 2 distinct exponents, got {ks}")
    ps_by_k = {k: build(x, k, budget_bytes) for k in ks}
    return find_cross_power_duplicates_from_prefixes(ps_by_k, max_in_memory, spill_dir)


def find_cross_power_duplicates_from_prefixes(
    ps_by_k: dict,
    max_in_memory: int = DEFAULT_MAX_IN_MEMORY,
    spill_dir=None,
) -> list:
    ks = sorted(ps_by_k)
    if len(ks) < 2:
        raise ValueError(f"cross-power search needs >= 2 distinct exponents, got {ks}")
    streams = [
        _tagged(_sorted_runs(ps_by_k[k], max_in_memory, spill_dir), k) for k in ks
    ]
    groups = []
    cur_n = -1
    rows = []
    for n, k, b, m in heapq.merge(*streams):
        if n != cur_n:
            if len({row[0] for row in rows}) > 1:
                groups.append(_group(ps_by_k, cur_n, rows))
            cur_n = n
            rows = [(k, b, m)]
        else:
            rows.append((k, b, m))
    if len({row[0] for row in rows}) > 1:
        groups.append(_group(ps_by_k, cur_n, rows))
    return groups


def duplicate_surplus(groups: list) -> int:
    """Representations beyond the first across all groups."""
    return sum(len(g.members) - 1 for g in groups)


def distinct_count(
    x: int,
    k: int,
    max_in_memory: int = DEFAULT_MAX_IN_MEMORY,
    spill_dir=None,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> int:
    """Number of distinct representable n <= x (count minus surplus)."""
    ps = build(x, k, budget_bytes)
    total = count_sums(ps).count
    groups = find_duplicates_from_prefix(ps, max_in_memory, spill_dir)
    return total - duplicate_surplus(groups)
