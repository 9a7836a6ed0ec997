import errno
import os

import pytest

from primesums import duplicates
from primesums.counting import count_sums
from primesums.duplicates import (
    RECORD_SIZE,
    _read_spill,
    _spill_sorted,
    distinct_count,
    duplicate_surplus,
    find_cross_power_duplicates,
    find_duplicates,
)
from primesums.enumeration import enumerate_sums
from primesums.prefix import build


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


def test_spill_path_matches_in_memory(tmp_path):
    in_memory = find_duplicates(10 ** 8, 2)
    spilled = find_duplicates(10 ** 8, 2, max_in_memory=1000, spill_dir=str(tmp_path))
    assert spilled == in_memory
    assert len(in_memory) == 5
    assert os.listdir(tmp_path) == []  # spill files removed


def test_failed_spill_leaves_no_file(tmp_path, monkeypatch):
    # the disk fills up partway into the second spill file
    real_tail = duplicates._TAIL
    written = []

    class FullDisk:
        def pack(self, *fields):
            if len(written) == 1500:
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(fields)
            return real_tail.pack(*fields)

    monkeypatch.setattr(duplicates, "_TAIL", FullDisk())
    with pytest.raises(OSError) as info:
        find_duplicates(10 ** 8, 2, max_in_memory=1000, spill_dir=str(tmp_path))
    assert info.value.errno == errno.ENOSPC
    assert os.listdir(tmp_path) == []


def test_spill_record_round_trip(tmp_path):
    rows = [(5, 3, 1), (2 ** 100 + 7, 123456, 9999), (40, 0, 2)]
    packed = [(n << 96) | (b << 48) | m for n, b, m in rows]
    path = _spill_sorted(packed, 2, str(tmp_path))
    assert os.path.getsize(path) == RECORD_SIZE * len(rows)
    assert list(_read_spill(path)) == sorted(rows)
    os.unlink(path)


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


def test_cross_power_needs_two_exponents():
    with pytest.raises(ValueError):
        find_cross_power_duplicates(10 ** 5, {2})
    with pytest.raises(ValueError):
        find_cross_power_duplicates(10 ** 5, [3, 3])


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
