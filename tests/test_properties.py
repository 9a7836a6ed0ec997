"""Property tests: the fast paths agree with direct summation.

Counting, the length histogram, the enumerator and the CLI writer all
read the run ends of one sweep, and the duplicate searches sort 64-bit
keys of the same runs; here random (x, k) pairs compare each of them
against golden.direct_sums, which sums term by term from trial-division
primes and shares no code with the package.  The enumerator and the CLI
writer both read counting.start_runs, which is also checked on its own
for how far ahead of its starts it reads.  The prefix-array counts are
also checked over hand-built ascending lists whose sums pass 2^128,
and so are the duplicate search, its numpy keys and its split into
passes, one class of run lengths each; its batched bisection is checked
against one bisect_left per row.
"""

import io
from bisect import bisect_left
from collections import Counter
from contextlib import redirect_stdout
from itertools import accumulate
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden import direct_sums, length_counts, sweep_count, trial_primes, window_sums
from primesums import duplicates, sieve
from primesums.cli import main
from primesums.arith import UINT128_MAX, integer_kth_root
from primesums.counting import count_rows, count_sums, count_up_to, start_runs, starts_by_length
from primesums.duplicates import (
    _keys,
    _passes,
    _power_modulus,
    DEFAULT_MAX_IN_MEMORY,
    distinct_count,
    find_cross_power_duplicates,
    find_duplicates,
    find_duplicates_from_prefix,
)
from primesums.enumeration import enumerate_sums, length_histogram
from primesums.prefix import build, build_from_primes
from primesums.sieve import BLOCK_ODDS, primes_up_to

# x stays below 10^7 so that direct_sums, quadratic in the prime
# count, keeps each example to milliseconds
cases = st.tuples(st.integers(0, 10 ** 7), st.integers(2, 12))
# squares first repeat at 14720439, so duplicate cases reach 10^8
duplicate_cases = st.one_of(cases, st.tuples(st.integers(10 ** 7, 10 ** 8), st.just(2)))
exponent_pairs = st.lists(st.integers(2, 6), min_size=2, max_size=2, unique=True)
# every exponent, with x^(1/k) below 10^4 so that build stays quick
stream_cases = st.integers(2, 64).flatmap(
    lambda k: st.tuples(st.integers(0, min(UINT128_MAX, 10 ** (4 * k))), st.just(k))
)


@settings(deadline=None)
@given(cases)
def test_count_enumeration_histogram_agree(case):
    x, k = case
    ps = build(x, k)
    reps = list(enumerate_sums(ps))
    assert count_sums(ps).count == len(reps) == sum(length_histogram(ps).values())
    assert [(r.n, r.start_prime, r.length) for r in reps] == direct_sums(x, k)


@settings(deadline=None)
@given(cases)
def test_cli_enumerate_matches_direct_sums(case):
    x, k = case
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["enumerate", "--k", str(k), "--x", str(x)])
    assert code == 0
    rows = direct_sums(x, k)
    assert out.getvalue() == "".join(f"{n}\t{p}\n" for n, p, _ in rows)


@settings(deadline=None)
@given(cases, st.integers(1, 20))
def test_start_runs_holds_only_its_window(case, extra):
    x, k = case
    root = integer_kth_root(x, k)
    below = trial_primes(root)
    # the stream runs extra primes past the root, whose powers exceed x
    primes = trial_primes(2 * root + 200)[: len(below) + extra]
    read = 0

    def counted():
        nonlocal read
        for p in primes:
            read += 1
            yield p

    rows = []
    starts = []
    for b, (p, fb, ends) in enumerate(start_runs(counted(), k, x)):
        # the start's run and the one power that ends it, no further
        assert read <= b + len(ends) + 2
        starts.append(p)
        rows.extend((ft - fb, p, m) for m, ft in enumerate(ends, 1))
    assert rows == direct_sums(x, k)
    # starts past the root have no run and yield no sums; the first of
    # them ends the stream
    assert starts == below
    assert read == len(below) + 1


@settings(deadline=None)
@given(st.one_of(cases, stream_cases))
def test_count_up_to_matches_prefix_count(case):
    x, k = case
    assert count_up_to(x, k) == count_sums(build(x, k))


@settings(deadline=None)
@given(
    st.one_of(cases, stream_cases).flatmap(
        lambda case: st.tuples(
            st.lists(st.integers(0, case[0]), max_size=6).map(sorted), st.just(case[1])
        )
    )
)
def test_count_rows_match_prefix_counts(case):
    xs, k = case
    assert list(count_rows(xs, k)) == [count_sums(build(x, k)) for x in xs]


# ascending rows; squares up to 3 * 10^10 have up to 41 crossovers,
# up to 15 of them in one sub-block of the sieve's own size
row_sets = st.one_of(
    cases, stream_cases, st.tuples(st.integers(10 ** 9, 3 * 10 ** 10), st.just(2))
).flatmap(
    lambda case: st.tuples(
        st.lists(st.integers(0, case[0]), max_size=4).map(sorted), st.just(case[1])
    )
)


@settings(deadline=None)
@given(row_sets, st.sampled_from([1, 3, 8, BLOCK_ODDS]))
def test_count_rows_match_the_full_sweep(case, block):
    # with blocks of 1, 3 or 8 odd numbers, the primes a crossover reads
    # span many blocks even at small x; they come with segments of 2^10
    # to 2^13 odd numbers, by the limit, which 3 does not divide, so with
    # blocks of 3 a short block ends each segment, in the middle of the
    # stream
    xs, k = case
    primes = primes_up_to(integer_kth_root(max(xs, default=0), k))
    expected = [sweep_count(primes, k, x) for x in xs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sieve, "BLOCK_ODDS", block)
        if block < BLOCK_ODDS:
            patch.setattr(sieve, "SEGMENT_BYTES", 1 << 10)
        assert list(count_rows(xs, k)) == expected
        assert [count_sums(build_from_primes(primes, k, x)) for x in xs] == expected


def ascending_lists(k):
    """Lists of up to 10 entries, with steps of 1 up to 2^62, whose k-th powers fit.

    The steps start from any number that leaves room for them, or from
    the one that puts the last entry on the largest root.
    """
    root = integer_kth_root(UINT128_MAX, k)

    def from_start(steps):
        top = max(0, root - sum(steps))
        starts = st.integers(0, top) | st.just(top)
        return starts.map(
            lambda start: [p for p in accumulate(steps, initial=start) if p ** k <= UINT128_MAX][1:]
        )

    return st.lists(st.integers(1, 2 ** 62), max_size=10).flatmap(from_start)


def near_a_sum(primes, k):
    """x from 0 to 2^128 - 1, often a sum of consecutive powers of primes or one less."""
    sums = {
        sum(p ** k for p in primes[b:t]) - d
        for b in range(len(primes))
        for t in range(b + 1, len(primes) + 1)
        for d in (0, 1)
    }
    ends = sorted({0, UINT128_MAX, *(s for s in sums if s <= UINT128_MAX)})
    return st.integers(0, UINT128_MAX) | st.sampled_from(ends)


# ascending lists, empty or not: their sums pass 2^64 and 2^128, and x
# falls below an entry's power, on a run's end, or past all the sums
hand_built = st.sampled_from([2, 3]).flatmap(
    lambda k: ascending_lists(k).flatmap(
        lambda primes: st.tuples(st.just(primes), st.just(k), near_a_sum(primes, k))
    )
)


@settings(deadline=None)
@given(hand_built)
def test_prefix_counts_over_hand_built_lists(case):
    primes, k, x = case
    ps = build_from_primes(primes, k, x)
    assert length_histogram(ps) == length_counts(primes, k, x)
    assert count_sums(ps) == sweep_count(primes, k, x)


def edge_xs(k):
    """x from 0 to 5, and 2^k - 1, 2^k and p^k - 1, p^k, p^k + 1 for small primes p."""
    around = [p ** k + d for p in (2, 3, 5, 7, 11) for d in (-1, 0, 1)]
    return sorted(x for x in {*range(6), 2 ** k - 1, *around} if x <= UINT128_MAX)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 20, 64])
def test_count_up_to_matches_prefix_count_at_edges(k):
    for x in edge_xs(k):
        # CountReport compares all five fields
        assert count_up_to(x, k) == count_sums(build(x, k)), (x, k)


def brute_duplicates(x, k):
    """(n, [(start_prime, length), ...]) for each n with two or more runs."""
    rows = direct_sums(x, k)
    repeats = Counter(n for n, _, _ in rows)
    return [
        (n, [(p, m) for value, p, m in rows if value == n])
        for n in sorted(n for n, c in repeats.items() if c > 1)
    ]


def brute_cross(x, ks):
    """(n, [(k, start_prime, length), ...]) for each n with runs under two exponents."""
    rows = sorted((n, k, p, m) for k in ks for n, p, m in direct_sums(x, k))
    by_n = {}
    for n, k, p, m in rows:
        by_n.setdefault(n, []).append((k, p, m))
    return [(n, runs) for n, runs in sorted(by_n.items()) if len({r[0] for r in runs}) > 1]


def found_duplicates(groups):
    return [(g.n, [(m.start_prime, m.length) for m in g.members]) for g in groups]


def found_cross(groups):
    return [(g.n, [(m.k, m.start_prime, m.length) for m in g.members]) for g in groups]


@settings(deadline=None)
@given(duplicate_cases)
def test_duplicates_and_distinct_count_match_brute_force(case):
    x, k = case
    assert found_duplicates(find_duplicates(x, k)) == brute_duplicates(x, k)
    assert distinct_count(x, k) == len({n for n, _, _ in direct_sums(x, k)})


@settings(deadline=None)
@given(st.integers(0, 10 ** 6), exponent_pairs)
def test_cross_power_duplicates_match_brute_force(x, ks):
    assert found_cross(find_cross_power_duplicates(x, ks)) == brute_cross(x, ks)


def test_duplicate_searches_past_64_bits():
    # f and the sums pass 2^64 here, so the search sorts wrapped residues
    x = 10 ** 30
    assert found_duplicates(find_duplicates(x, 8)) == brute_duplicates(x, 8) == []
    assert distinct_count(x, 8) == len({n for n, _, _ in direct_sums(x, 8)})
    assert found_cross(find_cross_power_duplicates(x, {8, 10})) == brute_cross(x, {8, 10})


def test_colliding_keys_are_separated_by_exact_sums():
    # keys are sums mod 2^64: the two squares below differ by exactly
    # 2^64, so they share a key and only the exact sums tell them apart;
    # the second list is a real duplicate, 9 + 16 = 25 times 2^120
    near, far = 2 ** 62 - 1, 2 ** 62 + 1
    collide = build_from_primes([near, far], 2, far ** 2)
    ladder = [3 * 2 ** 60, 4 * 2 ** 60, 5 * 2 ** 60]
    real = build_from_primes(ladder, 2, ladder[-1] ** 2)
    for cap in (1, 2, DEFAULT_MAX_IN_MEMORY):
        assert find_duplicates_from_prefix(collide, cap) == []
        (group,) = find_duplicates_from_prefix(real, cap)
        assert group.n == ladder[-1] ** 2
        assert [(m.start_index, m.length) for m in group.members] == [(0, 2), (2, 1)]


def held_windows(ps_by_k, cap):
    """(n, k, b, m, pass, r) for every window that the search's passes hold."""
    counts_by_k = {k: starts_by_length(ps) for k, ps in ps_by_k.items()}
    held = []
    _, _, base, passes = _passes(ps_by_k, counts_by_k, cap)
    for i, (r, rows) in enumerate(passes):
        for k, m, lo, hi in rows.T.tolist():
            f = ps_by_k[k].f
            held += [(f[b + m] - f[b], k, b, m, i, r) for b in range(lo - base[k], hi - base[k])]
    return held


def check_passes(ps_by_k, cap):
    counts_by_k = {k: starts_by_length(ps) for k, ps in ps_by_k.items()}
    modulus = duplicates._modulus(counts_by_k)
    held = held_windows(ps_by_k, cap)
    expected = [
        (n, k, b, m) for k, ps in ps_by_k.items() for n, b, m in window_sums(ps.primes, k, ps.x)
    ]
    step_of = {k: gcd(modulus, _power_modulus(k)) for k in ps_by_k}
    # one past the last prime that shares a factor with the step
    e_of = {k: max((i + 1 for i, p in enumerate(ps.primes) if gcd(p, step_of[k]) > 1), default=0)
            for k, ps in ps_by_k.items()}
    classes_of = {}
    for n, k, b, m, _, r in held:
        classes_of.setdefault((n, k, b, m), []).append(r)
    assert sorted(classes_of) == sorted(expected)
    for (n, k, b, m), classes in classes_of.items():
        # an exponent's windows from its e on lie in one pass of each
        # class r = n (mod gcd(G, M_k)), which is n mod G alone for the
        # leading exponent and for every exponent when G is the gcd; a
        # window before e lies in one pass, its class
        if b < e_of[k]:
            assert classes == [n % modulus]
        else:
            assert sorted(classes) == list(range(n % step_of[k], modulus, step_of[k]))
    runs_by_pass = {}
    for n, k, b, m, i, _ in held:
        runs_by_pass.setdefault(n, {}).setdefault(i, set()).add((k, b, m))
    for n, passes in runs_by_pass.items():
        # one pass holds every run of each value
        assert set().union(*passes.values()) in passes.values()


caps = st.sampled_from([1, 7, DEFAULT_MAX_IN_MEMORY])


@settings(deadline=None)
@given(st.integers(0, 10 ** 6), st.sets(st.integers(2, 10), min_size=1, max_size=2), caps,
       st.booleans())
def test_passes_hold_each_window_once_in_its_class(x, ks, cap, lead):
    ps_by_k = {k: build(x, k) for k in ks}
    if not lead:
        check_passes(ps_by_k, cap)
        return
    # the leading exponent's M_k, which _modulus takes only for a cheap copy
    counts_by_k = {k: starts_by_length(ps) for k, ps in ps_by_k.items()}
    modulus = _power_modulus(max(ks, key=lambda k: sum(counts_by_k[k])))
    with mock.patch.object(duplicates, "_modulus", lambda counts_by_k: modulus):
        check_passes(ps_by_k, cap)


@settings(deadline=None)
@given(hand_built, caps)
@example(([3, 4, 5], 2, 25), 1)  # 3^2 + 4^2 = 5^2: two windows before e, one after
def test_passes_and_duplicates_over_hand_built_lists(case, cap):
    primes, k, x = case
    ps = build_from_primes(primes, k, x)
    check_passes({k: ps}, cap)
    runs_of = {}
    for n, b, m in window_sums(primes, k, x):
        runs_of.setdefault(n, []).append((b, m))
    expected = [(n, runs) for n, runs in sorted(runs_of.items()) if len(runs) > 1]
    groups = find_duplicates_from_prefix(ps, cap)
    assert [(g.n, [(r.start_index, r.length) for r in g.members]) for g in groups] == expected


@settings(deadline=None)
@given(hand_built, stream_cases)
def test_keys_are_the_prefix_sums_mod_2_64(case, stream_case):
    # numpy's wrapping powers and running sum against Python's ints
    for ps in (build_from_primes(*case), build(*stream_case)):
        modulus = _power_modulus(ps.k)
        keys, f, e = _keys(ps, modulus)
        assert keys.tolist() == [v % 2 ** 64 for v in ps.f]
        assert f.tolist() == ps.f
        others = [i for i, p in enumerate(ps.primes) if gcd(p, modulus) > 1]
        assert e == (others[-1] + 1 if others else 0)


@st.composite
def bisection_cases(draw):
    """(exact, f, rows, v): prefix sums of ascending terms, rows (m, lo, hi) of starts, and v.

    exact sums may pass 2^64, and are held as Python ints; the others
    stay below 2^63, as the search's uint64 sums do.  v is one value or
    one per row, from below every sum to above every sum.
    """
    exact = draw(st.booleans())
    terms = sorted(draw(st.sets(st.integers(1, 2 ** (80 if exact else 58)), min_size=1, max_size=20)))
    f = list(accumulate(terms, initial=0))
    n = len(terms)
    ends = st.integers(1, n).flatmap(lambda m: st.lists(st.integers(0, n - m + 1), min_size=2, max_size=2)
                                     .map(lambda ends: (m, min(ends), max(ends))))
    rows = draw(st.lists(ends, max_size=8))
    values = st.integers(0, f[-1] + 1)
    v = draw(st.one_of(values, st.lists(values, min_size=len(rows), max_size=len(rows))))
    return exact, f, rows, v


@settings(deadline=None)
@given(bisection_cases())
@example((False, [0, 1, 3, 6], [(1, 0, 3), (2, 1, 1), (3, 0, 1)], 0))  # v below every sum
@example((True, [0, 2 ** 70, 2 ** 71 + 2 ** 70], [(1, 0, 2), (1, 2, 2)], 2 ** 72))  # above every sum
@example((False, [0, 5, 12], [(1, 0, 2), (1, 0, 2), (2, 0, 1)], [5, 6, 13]))  # one v per row
def test_first_from_is_a_bisection_of_each_row(case):
    exact, f, rows, v = case
    sums = np.array(f, dtype=object if exact else np.uint64)
    m, lo, hi = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    values = v if isinstance(v, list) else [v] * len(rows)
    got = duplicates._first_from(sums, m, lo, hi, np.array(v, dtype=sums.dtype))
    expected = [bisect_left(range(b1), w, b0, key=lambda b: f[b + n] - f[b])
                for (n, b0, b1), w in zip(rows, values)]
    assert got.tolist() == expected
    assert (lo.tolist(), hi.tolist()) == ([b0 for _, b0, _ in rows], [b1 for *_, b1 in rows])
