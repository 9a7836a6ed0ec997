"""Closed-form bound and estimate formulas for the counting function.

All formulas use the natural logarithm; that is the base under which
the floored main terms reproduce the reference count tables digit for
digit.  Evaluation runs in mpmath at 40 significant digits so that a
128-bit x loses nothing on conversion, and any value within 1e-9 of an
integer is re-evaluated at 120 digits before flooring, so a floor never
lands on the wrong side through rounding.
"""

from typing import NamedTuple, Optional

import mpmath as mp

from .arith import check_uint128, integer_kth_root
from .prefix import check_power
from .sieve import prime_count

WORK_DPS = 40
GUARD_DPS = 120
NEAR_INTEGER = 1e-9


class BoundEstimate(NamedTuple):
    x: int
    k: int
    upper: float  # main term of the upper bound
    lower: float  # main term of the lower bound
    c_k: float
    m_estimate: float  # estimated maximum run length
    tws_upper: Optional[float]  # explicit square-sum bound, k = 2 only


def _check_x(x: int) -> int:
    check_uint128(x, "x")
    if x < 2:
        raise ValueError(f"bound formulas need x >= 2, got {x}")
    return x


def _check_xk(x: int, k: int) -> None:
    check_power(k)
    _check_x(x)


def _c(k: int):
    km = mp.mpf(k)
    return km * km / (km - 1) * (km + 1) ** (1 - 1 / km)


def _main_term(x: int, k: int):
    # x^(2/(k+1)) / (ln x)^(2k/(k+1)), exponents kept as exact mpf ratios
    xm = mp.mpf(x)
    return xm ** (mp.mpf(2) / (k + 1)) / mp.log(xm) ** (mp.mpf(2 * k) / (k + 1))


def _upper(x: int, k: int):
    return _c(k) * _main_term(x, k)


def _lower(x: int, k: int):
    return mp.mpf(k + 1) ** 2 / 2 * _main_term(x, k)


def _m_estimate(x: int, k: int):
    xm = mp.mpf(x)
    return (
        (k + 1)
        * xm ** (mp.mpf(1) / (k + 1))
        / mp.log(xm) ** (mp.mpf(k) / (k + 1))
    )


def _tws(x: int):
    xm = mp.mpf(x)
    return mp.mpf("28.4201") * xm ** (mp.mpf(2) / 3) / mp.log(xm) ** (mp.mpf(4) / 3)


def c_constant(k: int) -> float:
    """(k^2/(k-1)) * (k+1)^(1 - 1/k); the pole at k = 1 is rejected."""
    check_power(k)
    with mp.workdps(WORK_DPS):
        return float(_c(k))


def _evaluated(formula, x: int, k: int) -> float:
    _check_xk(x, k)
    with mp.workdps(WORK_DPS):
        return float(formula(x, k))


def upper_bound(x: int, k: int) -> float:
    """c_k * x^(2/(k+1)) / (ln x)^(2k/(k+1))."""
    return _evaluated(_upper, x, k)


def lower_bound(x: int, k: int) -> float:
    """((k+1)^2 / 2) * x^(2/(k+1)) / (ln x)^(2k/(k+1))."""
    return _evaluated(_lower, x, k)


def m_estimate(x: int, k: int) -> float:
    """Estimated maximum run length (k+1) * x^(1/(k+1)) / (ln x)^(k/(k+1))."""
    return _evaluated(_m_estimate, x, k)


def tws_upper_s2(x: int) -> float:
    """Explicit bound 28.4201 * x^(2/3) / (ln x)^(4/3) for square sums."""
    _check_x(x)
    with mp.workdps(WORK_DPS):
        return float(_tws(x))


def _floored(formula, x: int, k: int) -> int:
    _check_xk(x, k)
    with mp.workdps(WORK_DPS):
        value = formula(x, k)
        if abs(value - mp.nint(value)) < NEAR_INTEGER:
            with mp.workdps(GUARD_DPS):
                value = formula(x, k)
        return int(mp.floor(value))


def floor_upper_bound(x: int, k: int) -> int:
    """floor(upper_bound(x, k)), guarded against flooring through rounding."""
    return _floored(_upper, x, k)


def floor_lower_bound(x: int, k: int) -> int:
    """floor(lower_bound(x, k)), guarded the same way."""
    return _floored(_lower, x, k)


def per_length_bound(x: int, k: int, m: int) -> int:
    """Exact cap on the number of length-m runs summing to <= x.

    A length-m run starting at p has sum >= m * p^k, so p^k <= x/m and
    the count is at most pi((x/m)^(1/k)).  Integer division only lowers
    the root, which only tightens the cap.
    """
    check_power(k)
    check_uint128(x, "x")
    if m < 1:
        raise ValueError(f"run length must be >= 1, got {m}")
    return prime_count(integer_kth_root(x // m, k))


def bound_estimate(x: int, k: int) -> BoundEstimate:
    """Every real-valued bound for (x, k) in one bundle."""
    _check_xk(x, k)
    with mp.workdps(WORK_DPS):
        return BoundEstimate(
            x=x,
            k=k,
            upper=float(_upper(x, k)),
            lower=float(_lower(x, k)),
            c_k=float(_c(k)),
            m_estimate=float(_m_estimate(x, k)),
            tws_upper=float(_tws(x)) if k == 2 else None,
        )
