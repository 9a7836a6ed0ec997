import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from bisect import bisect_right
from collections import Counter
from math import gcd

import pytest

from golden import window_sums
from primesums import cli, duplicates
from primesums.counting import count_sums, starts_by_length
from primesums.duplicates import (
    _modulus,
    _passes,
    _power_modulus,
    _search_prefix,
    _slice_bounds,
    _within_cap,
    DEFAULT_MAX_IN_MEMORY,
    distinct_count,
    duplicate_surplus,
    find_cross_power_duplicates,
    find_cross_power_duplicates_from_prefixes,
    find_duplicates,
    find_duplicates_from_prefix,
)
from primesums.enumeration import enumerate_sums
from primesums.prefix import build, build_from_primes, window_sum
from primesums.sieve import BLOCK_ODDS, SEGMENT_BYTES


def test_smallest_square_duplicate():
    groups = find_duplicates(15 * 10 ** 6, 2)
    assert len(groups) == 1
    group = groups[0]
    assert group.n == 14720439
    assert {m.start_prime for m in group.members} == {131, 941}
    assert [m.start_prime for m in group.members] == [131, 941]  # sorted
    assert [(m.start_prime, m.length) for m in group.members] == [(131, 87), (941, 15)]


def test_two_groups_under_twenty_million():
    groups = find_duplicates(2 * 10 ** 7, 2)
    assert [g.n for g in groups] == [14720439, 16535628]
    assert {m.start_prime for m in groups[1].members} == {569, 1123}


def test_no_cube_duplicates_to_a_million():
    assert find_duplicates(10 ** 6, 3) == []


def test_members_verify_and_are_distinct():
    for group in find_duplicates(10 ** 8, 2):
        witnesses = {(m.k, m.start_index) for m in group.members}
        assert len(witnesses) == len(group.members) >= 2
        assert all(m.n == group.n for m in group.members)


def test_small_memory_cap_same_results_no_files(tmp_path, monkeypatch):
    # each search sorts one class of run lengths per pass: the caps cut
    # the 24 square classes into 48 passes and the 2 classes of {2, 3}
    # into 7
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setenv("TMPDIR", str(temp))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    capped = dict(max_in_memory=1000)
    in_memory = find_duplicates(10 ** 8, 2)
    assert len(in_memory) == 5
    assert find_duplicates(10 ** 8, 2, **capped) == in_memory
    cross = find_cross_power_duplicates(10 ** 5, {2, 3})
    capped_cross = find_cross_power_duplicates(10 ** 5, {2, 3}, max_in_memory=100)
    assert capped_cross == cross
    assert distinct_count(10 ** 8, 2, **capped) == distinct_count(10 ** 8, 2)
    # past 2^64 the value slices (1940 passes over 480 classes of k = 8,
    # 1869 over the 24 of {8, 10}) meet the cut of each range of starts
    # into pieces spanning less than 2^64
    past = dict(max_in_memory=100)
    x = 10 ** 30
    assert find_duplicates(x, 8, **past) == find_duplicates(x, 8)
    assert distinct_count(x, 8, **past) == distinct_count(x, 8)
    cross = find_cross_power_duplicates(x, {8, 10})
    assert find_cross_power_duplicates(x, {8, 10}, **past) == cross
    assert os.listdir(temp) == []


def traced(f):
    """f() and its traced peak, in bytes."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tiny_memory_cap_same_results():
    # 8371 passes of a few keys each
    assert find_duplicates(10 ** 8, 2, max_in_memory=5) == find_duplicates(10 ** 8, 2)
    # a class's value slices are made one at a time, so past its prefix
    # a tiny cap holds little more than the default: about 0.06 against
    # 0.05 MB for the squares, and 0.08 against 0.15 MB for {3, 4}, where
    # a table of every slice took 0.13-0.29 and 1.24 MB; the line above
    # makes the first call's one-off allocations
    squares = _search_prefix(10 ** 8, 2)
    cross = {k: _search_prefix(10 ** 11, k) for k in (3, 4)}
    for search, cap in [
        (lambda cap: find_duplicates_from_prefix(squares, cap), 5),
        (lambda cap: find_cross_power_duplicates_from_prefixes(cross, cap), 30),
    ]:
        capped, capped_peak = traced(lambda: search(cap))
        default, default_peak = traced(lambda: search(DEFAULT_MAX_IN_MEMORY))
        assert capped == default
        assert capped_peak <= 2 * default_peak, (capped_peak, default_peak)


@pytest.mark.parametrize(
    "x, k", [(10 ** 10, 2), (10 ** 12, 2), (10 ** 13, 2), (10 ** 18, 3), (10 ** 30, 5)]
)
def test_value_slices_keep_to_the_cap(x, k):
    # the bounds follow the count of runs up to v with its log factor:
    # the bare power x (i/P)^((k+1)/2) put 9-12% past the cap here, in
    # the lowest slice, and the shape alone up to 15% at 10^10, where
    # class 1 also holds the one-term runs; a slice past the cap is
    # cut again by the shape until it fits
    ps = build(x, k)
    counts = starts_by_length(ps)
    cap = sum(counts) // (8 * _power_modulus(k))  # about 8 slices a class
    held = []
    for _, rows in _passes({k: ps}, {k: counts}, cap)[3]:
        held.append(int((rows[3] - rows[2]).sum()))
        if held[-1] > cap:  # only the runs of a single value may pass the cap
            sums = set()
            for _, m, lo, hi in rows.T.tolist():
                sums |= {window_sum(ps.f, m)(lo), window_sum(ps.f, m)(hi - 1)}
            assert len(sums) == 1
    assert sum(held) == sum(counts)


@pytest.mark.parametrize("x, k, cap, most", [(10 ** 30, 8, 100, 2514), (10 ** 8, 2, 5, 8431)])
def test_one_cutting_rule_makes_no_more_passes_than_halving(x, k, cap, most):
    # value slices halved at their midpoint once past the cap made 2514
    # and 8431 passes here; cutting them again by the shape makes 1940
    # and 8371
    ps = _search_prefix(x, k)
    passes = list(_passes({k: ps}, {k: starts_by_length(ps)}, cap)[3])
    assert len(passes) <= most
    assert all(rows.shape[1] and (rows[2] < rows[3]).all() for _, rows in passes)


@pytest.mark.parametrize("x", [10 ** 10, 10 ** 12])
def test_square_hunts_at_8_slices_a_class_equal_the_default(x):
    ps = _search_prefix(x, 2)
    cap = sum(starts_by_length(ps)) // (8 * 24)
    assert find_duplicates_from_prefix(ps, cap) == find_duplicates_from_prefix(ps)


def test_slice_bounds_ascend():
    # the count's shape falls below v = e^k, where the bounds follow
    # the bare power; hand-built lists may have any top, and f of this
    # one passes 2^128
    past = build_from_primes(list(range(2 ** 42, 2 ** 42 + 16)), 3, 2 ** 200).f[-1]
    assert past > 2 ** 128
    for k in (2, 3, 5, 8, 20, 64):
        for top in (1, 2, 13, 10 ** 5, int(math.exp(k)), 10 ** 30, 2 ** 128 - 1, past):
            for low in sorted({0, 1, top // 3, top - 1} - {top}):
                for count in (2, 3, 10, 100):
                    bounds = _slice_bounds(low, top, k, count)
                    assert len(bounds) == count - 1
                    # above low, so every cut leaves low and top in different slices
                    assert low < bounds[0] and bounds[-1] <= top
                    assert all(a <= b for a, b in zip(bounds, bounds[1:]))


def test_slices_stop_at_the_largest_sum():
    # x past 1.8e308 overflows a float, but the sums of the list stay far below it
    for primes, k, cap in (([2, 3, 5, 7], 2, 1), ([2, 3, 5, 7, 11, 13], 3, 2)):
        assert find_duplicates_from_prefix(build_from_primes(primes, k, 10 ** 400), cap) == []


def carmichael_divides(k, modulus):
    """Whether a^k = 1 (mod modulus) for every a prime to it, by trying each a."""
    units = (a for a in range(1, modulus + 1) if gcd(a, modulus) == 1)
    return all(pow(a, k, modulus) == 1 % modulus for a in units)


def brute_power_modulus(k):
    """The largest M with λ(M) | k: the largest such power of each prime q <= k + 1.

    For a prime q > k + 1, λ(q) = q - 1 > k, so no larger prime divides M.
    """
    modulus = 1
    for q in (q for q in range(2, k + 2) if all(q % d for d in range(2, q))):
        power = 1
        while carmichael_divides(k, power * q):
            power *= q
        modulus *= power
    return modulus


@pytest.mark.parametrize(
    "k, expected",
    [(2, 24), (3, 2), (4, 240), (6, 504), (8, 480), (10, 264), (64, 65280)],
)
def test_power_modulus_against_brute_force(k, expected):
    assert _power_modulus(k) == brute_power_modulus(k) == expected
    assert carmichael_divides(k, expected)
    # every M with λ(M) | k divides M_k, so M_k is the largest
    if k <= 6:
        assert [m for m in range(1, 1100) if carmichael_divides(k, m)] == [
            m for m in range(1, 1100) if expected % m == 0
        ]


def test_class_modulus_of_exponent_sets():
    assert gcd(brute_power_modulus(2), brute_power_modulus(3)) == 2
    assert gcd(brute_power_modulus(8), brute_power_modulus(10)) == 24


def test_memory_cap_must_be_positive():
    with pytest.raises(ValueError):
        find_duplicates(10 ** 5, 2, max_in_memory=0)


@pytest.mark.parametrize(
    "cap, error", [(1e3, TypeError), (2.5, TypeError), ("1000", TypeError), (0, ValueError)]
)
@pytest.mark.parametrize("search", [
    lambda cap: find_duplicates(10 ** 8, 2, cap),
    lambda cap: distinct_count(10 ** 8, 2, cap),
    lambda cap: find_cross_power_duplicates(10 ** 8, {2, 3}, cap),
], ids=["find_duplicates", "distinct_count", "cross"])
def test_a_cap_is_refused_before_the_first_prefix(monkeypatch, search, cap, error):
    # a cap that is not an integer is refused even where it would cut no
    # class (1e6 cuts none at 10^8), and every cap before the sieve runs
    def no_prefix(x, k):
        raise AssertionError("a prefix was built")

    monkeypatch.setattr(duplicates, "_search_prefix", no_prefix)
    with pytest.raises(error):
        search(cap)


@pytest.mark.parametrize("x, k, error, match", [
    (10 ** 40, 2, ValueError, "x must be an unsigned 128-bit integer"),
    (10 ** 5, 1, ValueError, "power k must be in"),
    (10 ** 30, 2, MemoryError, "budget is"),
], ids=["x", "k", "budget"])
@pytest.mark.parametrize("search", [find_duplicates, distinct_count])
def test_k_x_and_the_budget_are_refused_before_the_cap(search, x, k, error, match):
    # both searches refuse in one order: k, x and the sieve budget, then the cap
    with pytest.raises(error, match=match):
        search(x, k, 0)


def test_a_run_that_direct_summation_refutes_is_an_error(capsys, monkeypatch):
    # 14720439 is the runs of 87 squares from 131 (index 31) and of 15
    # from 941.  Moving 131 by 24 keeps it prime to 24, so the classes and
    # f stay those of the squares, but f is no longer the primes' power
    # sums: the group is found by its keys, and its first run is refused
    ps = _search_prefix(15 * 10 ** 6, 2)
    primes = array("Q", ps.primes)
    primes[31] += 24
    bad = ps._replace(primes=primes)
    direct = 14720439 - 131 ** 2 + 155 ** 2
    refusal = f"run at index 31 length 87 sums to {direct}, expected 14720439"
    with pytest.raises(RuntimeError, match=refusal):
        find_duplicates_from_prefix(bad)
    # the CLI prints nothing of a search that fails its check
    monkeypatch.setattr(duplicates, "_search_prefix", lambda x, k: bad)
    with pytest.raises(RuntimeError, match=refusal):
        cli.main(["duplicates", "--k", "2", "--x", str(15 * 10 ** 6)])
    assert capsys.readouterr().out == ""


def test_cross_power_witness():
    groups = find_cross_power_duplicates(10 ** 5, {2, 3})
    assert len(groups) == 1
    group = groups[0]
    assert group.n == 23939
    squares, cubes = group.members  # sorted by (k, start_prime)
    assert (squares.k, squares.start_prime, squares.length) == (2, 23, 11)
    assert (cubes.k, cubes.start_prime, cubes.length) == (3, 17, 3)


def test_cross_power_empty_below_thousand():
    assert find_cross_power_duplicates(10 ** 3, {2, 3}) == []


@pytest.mark.parametrize("squares, cubes, x, runs", [
    # 7^3 + ... + 24^3 = 30^3 + 31^3 + 32^3 = 38^2 + ... + 68^2 over
    # consecutive integers (3^3 + 4^3 + 5^3 = 6^3 has no square run);
    # every run starts before e and lies in the one class of its sum
    (list(range(1, 69)), list(range(1, 69)), 89559, [(2, 38, 31), (3, 7, 18), (3, 30, 3)]),
    # 135^3 + 137^3 + ... + 423^3 = 663^3 + 665^3 + ... + 687^3 over the
    # odd numbers, and 130^2 + ... + 302^2 + 63175^2
    ([*range(1, 303), 63175], list(range(1, 688, 2)), 3999583575,
     [(2, 130, 174), (3, 135, 145), (3, 663, 13)]),
], ids=["integers", "odd-cubes"])
@pytest.mark.parametrize("modulus", [2, 24], ids=["gcd", "lead"])
def test_a_value_the_minor_exponent_repeats_is_one_group_with_each_run_once(
    monkeypatch, squares, cubes, x, runs, modulus
):
    ps_by_k = {2: build_from_primes(squares, 2, x), 3: build_from_primes(cubes, 3, x)}
    # the squares lead: they have the most keys.  The cubes have too many
    # for _modulus to copy them, so it classes mod the gcd, 2; classed
    # mod the squares' 24, the cubes' runs from e on go to each of the 12
    # classes that are their sum mod 2
    counts_by_k = {k: starts_by_length(ps) for k, ps in ps_by_k.items()}
    assert sum(counts_by_k[2]) > sum(counts_by_k[3])
    assert _modulus(counts_by_k) == 2
    monkeypatch.setattr(duplicates, "_modulus", lambda counts_by_k: modulus)
    runs_of = {}
    for k, ps in ps_by_k.items():
        for n, b, m in window_sums(ps.primes, k, x):
            runs_of.setdefault(n, []).append((k, b, m))
    expected = [(n, sorted(rows)) for n, rows in sorted(runs_of.items())
                if len({k for k, _, _ in rows}) > 1]
    for cap in (1000, DEFAULT_MAX_IN_MEMORY):
        groups = find_cross_power_duplicates_from_prefixes(ps_by_k, cap)
        assert [(g.n, [(m.k, m.start_index, m.length) for m in g.members]) for g in groups] == expected
        (group,) = [g for g in groups if g.n == x]
        assert [(m.k, m.start_prime, m.length) for m in group.members] == runs


@pytest.mark.parametrize("ks, x, cap, groups", [
    ({2, 3}, 10 ** 13, 10 ** 6, [(23939, [(2, 23, 11), (3, 17, 3)])]),
    ({3, 4}, 10 ** 16, 10 ** 5, [(5187440176, [(3, 439, 32), (4, 89, 16)])]),
    ({8, 10}, 10 ** 30, 100, []),
    ({6, 8, 10}, 10 ** 30, 10 ** 4, []),
], ids=["2,3", "3,4", "8,10", "6,8,10"])
def test_cross_groups_are_the_same_at_every_cap(ks, x, cap, groups):
    # classed by _modulus (24 for {2, 3}, 8, 10 and 6, 8, 10, 2 for {3,
    # 4}), capped or not, the groups are those found classing mod the
    # gcd of every exponent's M_k; the cross hunt of {2, 3} at 10^15 is
    # pinned in CI
    for max_in_memory in (cap, DEFAULT_MAX_IN_MEMORY):
        found = find_cross_power_duplicates(x, ks, max_in_memory)
        assert [(g.n, [(m.k, m.start_prime, m.length) for m in g.members]) for g in found] == groups


@pytest.mark.parametrize("ks, x, modulus, values", [
    ({2: 24, 3: 2}, 10 ** 13, 24, [23939]),  # the cubes' 12 copies add 6% to the keys
    ({2: 24, 3: 2}, 10 ** 11, 2, [23939]),
    ({6: 504, 8: 480, 10: 264}, 10 ** 30, 24, []),
    ({4: 240, 5: 2}, 10 ** 20, 2, []),  # 120 copies of the fifth powers
    # a few dozen keys each, which would go to 32760 and 69 million classes
    ({12: 65520, 13: 2}, 10 ** 30, 2, []),
    ({36: 138181680, 37: 2}, 10 ** 30, 2, []),
], ids=["2,3", "2,3-small", "6,8,10", "4,5", "12,13", "36,37"])
def test_cross_searches_copy_the_minor_blocks_only_when_cheap(ks, x, modulus, values):
    # _modulus takes the leading M_k only while the copies of the other
    # exponents' blocks add at most an eighth to the keys; else the gcd
    ps_by_k = {k: _search_prefix(x, k) for k in ks}
    counts_by_k = {k: starts_by_length(ps) for k, ps in ps_by_k.items()}
    assert {k: _power_modulus(k) for k in ks} == ks
    assert _modulus(counts_by_k) == modulus
    passes = list(_passes(ps_by_k, counts_by_k, DEFAULT_MAX_IN_MEMORY)[3])
    assert len(passes) <= modulus
    groups = find_cross_power_duplicates_from_prefixes(ps_by_k)
    assert [g.n for g in groups] == values


def test_cross_power_needs_two_exponents():
    with pytest.raises(ValueError):
        find_cross_power_duplicates(10 ** 5, {2})
    with pytest.raises(ValueError):
        find_cross_power_duplicates(10 ** 5, [3, 3])
    # the search over prefixes refuses one exponent too
    with pytest.raises(ValueError, match=r"needs >= 2 distinct exponents, got \[2\]"):
        find_cross_power_duplicates_from_prefixes({2: build(10 ** 5, 2)})


def test_cross_power_excludes_single_exponent_duplicates():
    # 16535628 duplicates within squares alone and must not be reported
    groups = find_cross_power_duplicates(2 * 10 ** 7, {2, 3})
    assert all(len({m.k for m in g.members}) >= 2 for g in groups)
    assert 16535628 not in {g.n for g in groups}


def test_surplus_consistency():
    x = 10 ** 8
    ps = build(x, 2)
    total = count_sums(ps).count
    distinct = distinct_count(x, 2)
    groups = find_duplicates(x, 2)
    assert total - distinct == duplicate_surplus(groups)
    brute_distinct = len({r.n for r in enumerate_sums(build(10 ** 5, 2))})
    assert distinct_count(10 ** 5, 2) == brute_distinct


def test_groups_sorted_by_n():
    values = [g.n for g in find_duplicates(10 ** 9, 2)]
    assert values == sorted(values)


@pytest.mark.parametrize("make", [build, _search_prefix], ids=["list", "uint64"])
def test_a_sum_on_a_slice_bound_opens_the_upper_slice(monkeypatch, make):
    # slice i holds the sums from v_i up to v_{i+1}: here the bounds are
    # sums of the class, at starts inside its rows and before e = 2
    ps = make(10 ** 7, 2)
    counts = starts_by_length(ps)
    _, f, _, passes = _passes({2: ps}, {2: counts}, 10 ** 9)
    (rows,) = [rows for r, rows in passes if r == 1]
    sums = [window_sum(ps.f, m)(b) for _, m, lo, hi in rows.T.tolist() for b in range(lo, hi)]
    inside = [window_sum(ps.f, m)(lo + (hi - lo) * j // 4)
              for _, m, lo, hi in rows.T.tolist() if hi - lo > 4 for j in (1, 2, 3)]
    before = [window_sum(ps.f, m)(lo) for _, m, lo, _ in rows.T.tolist() if lo < 2]
    bounds = sorted({*inside, *(n for n in before if n > 1)})
    assert len(bounds) > 20
    # a piece is cut at the bounds inside its sums, and by the shape
    # once none are left there
    shape = duplicates._slice_bounds
    monkeypatch.setattr(duplicates, "_slice_bounds", lambda low, top, k, count: (
        [v for v in bounds if low < v <= top] or shape(low, top, k, count)))
    # at this cap the first cut's slices fit, so each piece is one slice
    cap = max(Counter(bisect_right(bounds, n) for n in sums).values())
    held, slices = [], []
    for piece in _within_cap(f, rows, 2, cap):
        here = [window_sum(ps.f, m)(b) for _, m, lo, hi in piece.T.tolist() for b in range(lo, hi)]
        (i,) = {bisect_right(bounds, n) for n in here}
        slices.append(i)
        held += here
    assert slices == sorted(set(slices)) and len(slices) > 20
    assert sorted(held) == sorted(sums)
    capped = find_duplicates_from_prefix(ps, 1)
    monkeypatch.undo()
    assert capped == find_duplicates_from_prefix(ps) == find_duplicates(10 ** 7, 2)


def test_a_value_with_three_runs_is_one_group_at_every_cap():
    # 20449 = 143^2 = 38^2 + ... + 48^2 = 7^2 + ... + 39^2
    ps = build_from_primes(list(range(1, 144)), 2, 20449)
    for cap in (1, 2, DEFAULT_MAX_IN_MEMORY):
        groups = find_duplicates_from_prefix(ps, cap)
        assert len({g.n for g in groups}) == len(groups)
        (group,) = [g for g in groups if g.n == 20449]
        assert [(m.start_prime, m.length) for m in group.members] == [(7, 33), (38, 11), (143, 1)]


def test_the_search_leaves_numpy_ma_unloaded():
    # np.unique loads numpy.ma, and its sort is not needed on sorted keys
    code = "import sys; from primesums import find_duplicates; find_duplicates(10**8, 2); print('numpy.ma' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def builder_limits():
    """Sieve limits beside the first block edge and the first segment edge."""
    for edge in (2 * BLOCK_ODDS + 1, 2 * SEGMENT_BYTES + 1):
        yield from range(edge - 2, edge + 2)


@pytest.mark.parametrize("x, k", [(0, 2), (3, 2), (4, 2), (8, 3)]
                         + [(limit ** 2, 2) for limit in builder_limits()]
                         + [(10 ** 13, 2), (10 ** 18, 3), (10 ** 21, 3)])
def test_search_prefix_is_build_as_uint64(x, k):
    ps, lists = _search_prefix(x, k), build(x, k)
    assert (ps.x, ps.k) == (lists.x, lists.k)
    assert ps.primes.typecode == "Q"
    assert ps.primes.tolist() == lists.primes
    if x >= 2 ** 63:
        # from 2^63 on f holds the exact sums, as build's does
        assert type(ps.f) is list and ps.f == lists.f
        return
    assert ps.f.typecode == "Q"
    assert ps.f.tolist() == [v % 2 ** 64 for v in lists.f]


# g wraps at 2^64 in the fourth powers to 10^18
@pytest.mark.parametrize("x, k", [(10 ** 10, 2), (10 ** 15, 3), (10 ** 18, 4)])
def test_hunts_on_the_search_prefix_equal_the_list_path(x, k):
    groups = find_duplicates(x, k)
    assert groups == find_duplicates_from_prefix(build(x, k))
    assert distinct_count(x, k) == count_sums(build(x, k)).count - duplicate_surplus(groups)
    members = [m for g in groups for m in g.members]
    assert all(type(m.start_prime) is type(m.n) is int for m in members)


@pytest.mark.parametrize("x, ks, values", [
    (10 ** 13, (2, 3), [23939]),
    (10 ** 16, (3, 4), [5187440176]),
    (2 ** 63 - 1, (8, 10), []),
    (2 ** 63 - 1, (6, 8, 10), []),
])
def test_cross_searches_on_the_search_prefix_equal_the_list_path(x, ks, values):
    groups = find_cross_power_duplicates(x, set(ks))
    assert [g.n for g in groups] == values
    assert groups == find_cross_power_duplicates_from_prefixes({k: build(x, k) for k in ks})


@pytest.mark.parametrize("k, small", [(4, 10 ** 4), (5, 10 ** 3)])
def test_hunts_on_both_sides_of_2_63(k, small):
    # below 2^63 the search reads g, whose windows of up to 2x stay below
    # 2^64; from 2^63 on it reads the exact sums as a list
    below, at = _search_prefix(2 ** 63 - 1, k), _search_prefix(2 ** 63, k)
    assert isinstance(below.f, array) and isinstance(at.f, list)
    assert starts_by_length(below) == starts_by_length(build(2 ** 63 - 1, k))
    for cap in (small, DEFAULT_MAX_IN_MEMORY):
        for x in (2 ** 63 - 1, 2 ** 63):
            assert find_duplicates(x, k, cap) == find_duplicates_from_prefix(build(x, k), cap)
        assert find_duplicates(2 ** 63 - 1, k, cap) == find_duplicates(2 ** 63, k, cap)
        cross = find_cross_power_duplicates(2 ** 63 - 1, {k, k + 2}, cap)
        assert cross == find_cross_power_duplicates(2 ** 63, {k, k + 2}, cap)
