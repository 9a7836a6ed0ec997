import math
from decimal import Decimal

import pytest

from golden import (
    CONSTANTS,
    COUNT_TABLES,
    M_ESTIMATE_1E6_K2,
    TWS_1E3,
    TWS_OVER_UPPER_K2,
    UPPER_1E6_K2,
)
from primesums import bounds
from primesums.bounds import (
    bound_estimate,
    c_constant,
    floor_lower_bound,
    floor_upper_bound,
    lower_bound,
    m_estimate,
    per_length_bound,
    tws_upper_s2,
    upper_bound,
)
from primesums.counting import count_sums
from primesums.prefix import build


def test_constant_examples():
    assert abs(c_constant(2) - 6.92) <= 0.01
    assert abs(c_constant(10) - 96.16) <= 0.01
    assert abs(c_constant(20) - 379.68) <= 0.01
    # closed form at k = 2 is 4 * sqrt(3)
    assert c_constant(2) == pytest.approx(4 * math.sqrt(3), rel=1e-12)


def test_constant_table_two_decimals():
    # printed table mixes truncation and rounding, so the tolerance is
    # one unit in the second decimal place
    for k, (printed, _) in CONSTANTS.items():
        assert abs(c_constant(k) - printed) <= 0.01


def test_constant_rejects_pole():
    for bad in (0, 1, -2):
        with pytest.raises(ValueError):
            c_constant(bad)


def test_floor_examples():
    assert floor_upper_bound(10 ** 3, 2) == 52
    assert floor_lower_bound(10 ** 3, 2) == 34
    assert floor_upper_bound(10 ** 38, 20) == 315
    assert floor_lower_bound(10 ** 38, 20) == 183
    assert floor_upper_bound(10 ** 15, 2) == 615948906
    assert floor_lower_bound(10 ** 15, 2) == 400070550


def test_guard_precision_keeps_every_table_floor(monkeypatch):
    # the float decides every table cell, so widen its error bound
    # until every floor takes the 120-digit evaluation
    monkeypatch.setattr(bounds, "FLOAT_REL_ERROR", 1)
    precisions = []
    digits = bounds._digits

    def recorded(prec):
        precisions.append(prec)
        return digits(prec)

    monkeypatch.setattr(bounds, "_digits", recorded)
    cells = 0
    for k, rows in COUNT_TABLES.items():
        for x, _, up, lo in rows:
            assert floor_upper_bound(x, k) == up
            assert floor_lower_bound(x, k) == lo
            cells += 2
    assert precisions.count(bounds.GUARD_DPS) == cells == 214


def test_float_floors_equal_the_guard_floors(monkeypatch):
    # the float decides every table cell; over a grid of k and x, values
    # past ~5e11 and those near an integer escalate, and every floor
    # equals the one taken at 120 digits alone
    digits = bounds._digits

    def guard_floor(formula, x, k):
        with digits(bounds.GUARD_DPS) as ops:
            return math.floor(formula(ops, x, k))

    escalated = []

    def recorded(prec):
        escalated.append(prec)
        return digits(prec)

    monkeypatch.setattr(bounds, "_digits", recorded)
    for k, rows in COUNT_TABLES.items():
        for x, _, up, lo in rows:
            assert floor_upper_bound(x, k) == up == guard_floor(bounds._upper, x, k)
            assert floor_lower_bound(x, k) == lo == guard_floor(bounds._lower, x, k)
    assert escalated == []
    xs = sorted({2, 3, 10 ** 38, *(10 ** e + 7 for e in range(1, 39, 3)),
                 *(2 ** e - 1 for e in range(2, 129, 7))})
    floors = 0
    for k in (2, 3, 4, 7, 20, 64):
        for x in xs:
            assert floor_upper_bound(x, k) == guard_floor(bounds._upper, x, k), (x, k)
            assert floor_lower_bound(x, k) == guard_floor(bounds._lower, x, k), (x, k)
            floors += 2
    assert 0 < len(escalated) < floors


def test_constant_cached_per_precision():
    # c_k is computed once per (k, precision): the 120-digit guard gets
    # its own value, not the 40-digit one
    with bounds._digits(bounds.WORK_DPS) as ops:
        work = bounds._c(ops, 3)
    with bounds._digits(bounds.GUARD_DPS) as ops:
        guard = bounds._c(ops, 3)
    assert len(work.as_tuple().digits) <= bounds.WORK_DPS < len(guard.as_tuple().digits)
    assert abs(guard - work) < Decimal("1e-38")
    with bounds._digits(bounds.WORK_DPS) as ops:
        assert bounds._c(ops, 3) is work
    before = bounds._c.cache_info()
    upper_bound(10 ** 15, 3)
    after = bounds._c.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_sampled_table_cells():
    for k in (3, 5, 10):
        for x, _, up, lo in COUNT_TABLES[k][:4]:
            assert floor_upper_bound(x, k) == up
            assert floor_lower_bound(x, k) == lo


def test_upper_lower_ratio_identity():
    for k in (2, 3, 7, 20):
        expected = 2 * c_constant(k) / (k + 1) ** 2
        for x in (10 ** 3, 10 ** 9, 10 ** 27):
            assert upper_bound(x, k) / lower_bound(x, k) == pytest.approx(
                expected, rel=1e-12
            )


def test_lower_is_half_m_estimate_squared():
    for k in (2, 3, 11):
        for x in (100, 10 ** 8, 10 ** 20):
            assert lower_bound(x, k) == pytest.approx(
                m_estimate(x, k) ** 2 / 2, rel=1e-12
            )


def test_m_estimate_value():
    assert m_estimate(10 ** 6, 2) == pytest.approx(M_ESTIMATE_1E6_K2, rel=1e-12)


def test_m_estimate_tracks_exact_run_length():
    exact = count_sums(build(10 ** 6, 2)).max_run_length
    ratio = m_estimate(10 ** 6, 2) / exact
    assert 0.5 <= ratio <= 2.0


def test_upper_bound_value():
    assert upper_bound(10 ** 6, 2) == pytest.approx(UPPER_1E6_K2, rel=1e-12)


def test_per_length_examples():
    assert per_length_bound(1000, 3, 1) == 4
    # floor(1000/4) = 250, cube root 6, primes {2, 3, 5}
    assert per_length_bound(1000, 3, 4) == 3
    assert per_length_bound(100, 7, 1) == 0
    assert per_length_bound(2 ** 10, 10, 2) == 0


def test_per_length_rejects_bad_run():
    with pytest.raises(ValueError):
        per_length_bound(1000, 3, 0)


def test_explicit_square_bound():
    assert tws_upper_s2(10 ** 3) == pytest.approx(TWS_1E3, rel=1e-12)
    for x in (10 ** 3, 10 ** 9, 10 ** 15):
        assert tws_upper_s2(x) / upper_bound(x, 2) == pytest.approx(
            TWS_OVER_UPPER_K2, rel=1e-12
        )
    assert tws_upper_s2(10 ** 15) > upper_bound(10 ** 15, 2) > 0


def test_domain_errors():
    for func in (upper_bound, lower_bound, m_estimate, bound_estimate):
        with pytest.raises(ValueError):
            func(1, 2)
        with pytest.raises(ValueError):
            func(10, 1)
    # k is checked before x
    with pytest.raises(ValueError, match="power k"):
        bound_estimate(1, 1)
    with pytest.raises(ValueError):
        tws_upper_s2(0)


def test_bundle():
    # the bundle is the raw bounds themselves, so each field is equal, not close
    for x, k in ((10 ** 6, 2), (10 ** 30, 7), (2 ** 128 - 1, 64)):
        est = bound_estimate(x, k)
        assert est.x == x and est.k == k
        assert est.upper == upper_bound(x, k)
        assert est.lower == lower_bound(x, k)
        assert est.c_k == c_constant(k)
        assert est.m_estimate == m_estimate(x, k)
    assert bound_estimate(10 ** 6, 2).tws_upper == tws_upper_s2(10 ** 6)
    assert bound_estimate(10 ** 6, 3).tws_upper is None
