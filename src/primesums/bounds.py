"""Closed-form bound and estimate formulas for the counting function.

All formulas use the natural logarithm; that is the base under which
the floored main terms reproduce the reference count tables digit for
digit.  Evaluation runs in the standard library's decimal module, whose
ln and exp are correctly rounded, at 40 significant digits so that a
128-bit x loses nothing on conversion; any value within 1e-9 of an
integer is re-evaluated at 120 digits before flooring, so a floor never
lands on the wrong side through rounding.
"""

from decimal import ROUND_FLOOR, Context, Decimal, getcontext, localcontext
from functools import lru_cache
from typing import NamedTuple, Optional

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


def _digits(prec: int):
    # a fresh context: the caller's decimal settings never leak in
    return localcontext(Context(prec=prec))


def _power_ratio(scale: Decimal, x: int, a: int, b: int, d: int) -> Decimal:
    """scale * x^(a/d) / (ln x)^(b/d), as scale * exp((a ln x - b ln ln x) / d)."""
    log_x = Decimal(x).ln()
    return scale * ((a * log_x - b * log_x.ln()) / d).exp()


def _c(k: int) -> Decimal:
    return _c_at(k, getcontext().prec)


@lru_cache(maxsize=None)
def _c_at(k: int, prec: int) -> Decimal:
    # keyed on the precision too: the guard digits must not reuse a
    # value rounded to the working digits
    with localcontext(Context(prec=prec)):
        return Decimal(k * k) / (k - 1) * ((1 - Decimal(1) / k) * Decimal(k + 1).ln()).exp()


def _upper(x: int, k: int) -> Decimal:
    return _power_ratio(_c(k), x, 2, 2 * k, k + 1)


def _lower(x: int, k: int) -> Decimal:
    return _power_ratio(Decimal((k + 1) ** 2) / 2, x, 2, 2 * k, k + 1)


def _m_estimate(x: int, k: int) -> Decimal:
    return _power_ratio(Decimal(k + 1), x, 1, k, k + 1)


def _tws(x: int) -> Decimal:
    return _power_ratio(Decimal("28.4201"), x, 2, 4, 3)


def c_constant(k: int) -> float:
    """(k^2/(k-1)) * (k+1)^(1 - 1/k); the pole at k = 1 is rejected."""
    check_power(k)
    with _digits(WORK_DPS):
        return float(_c(k))


def _evaluated(formula, x: int, k: int) -> float:
    _check_xk(x, k)
    with _digits(WORK_DPS):
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
    with _digits(WORK_DPS):
        return float(_tws(x))


def _floored(formula, x: int, k: int) -> int:
    _check_xk(x, k)
    with _digits(WORK_DPS):
        value = formula(x, k)
        if abs(value - value.to_integral_value()) < NEAR_INTEGER:
            with _digits(GUARD_DPS):
                value = formula(x, k)
        return int(value.to_integral_value(rounding=ROUND_FLOOR))


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
    with _digits(WORK_DPS):
        return BoundEstimate(
            x=x,
            k=k,
            upper=float(_upper(x, k)),
            lower=float(_lower(x, k)),
            c_k=float(_c(k)),
            m_estimate=float(_m_estimate(x, k)),
            tws_upper=float(_tws(x)) if k == 2 else None,
        )
