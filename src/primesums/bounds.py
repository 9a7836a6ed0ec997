"""Closed-form bound and estimate formulas for the counting function.

All formulas use the natural logarithm; that is the base under which
the floored main terms reproduce the reference count tables digit for
digit.  Each formula is written once and evaluated in one of two
arithmetics, passed as an _Ops: float, or the standard library's
decimal module, whose ln and exp are correctly rounded.

The raw values (upper_bound, lower_bound, m_estimate, tws_upper_s2,
c_constant, bound_estimate) are evaluated in decimal at 40 significant
digits, so that a 128-bit x loses nothing on conversion.  A floor is
decided in float.  math.log and math.exp are off by an ulp or so,
which the exponent, at most about 60, turns into a relative error of
about 1e-14 at worst (measured on a grid of k = 2..64 and x up to
2^128 - 1).  So the float value v lies within a relative
FLOAT_REL_ERROR = 1e-12 of the true one, and when v(1 - 1e-12) and
v(1 + 1e-12) have the same floor, that floor is the true one.  When that
interval holds an integer, as it does near an integer and for every
value from about 5 * 10^11 on, where it is wider than 1, the floor
comes from a 120-digit decimal evaluation.  decimal is imported by the
first evaluation that needs it, so a table whose floors the float
decides never loads it.
"""

from contextlib import contextmanager
from functools import lru_cache
from math import exp, floor, log
from typing import Callable, NamedTuple, Optional

from .arith import check_uint128, integer_kth_root
from .prefix import check_power
from .sieve import prime_count

WORK_DPS = 40
GUARD_DPS = 120
FLOAT_REL_ERROR = 1e-12


class BoundEstimate(NamedTuple):
    x: int
    k: int
    upper: float  # main term of the upper bound
    lower: float  # main term of the lower bound
    c_k: float
    m_estimate: float  # estimated maximum run length
    tws_upper: Optional[float]  # explicit square-sum bound, k = 2 only


class _Ops(NamedTuple):
    """One arithmetic: its number type, ln and exp, and its digits (None for float)."""

    num: Callable
    ln: Callable
    exp: Callable
    prec: Optional[int]


_FLOAT = _Ops(float, log, exp, None)


def _check_x(x: int) -> int:
    check_uint128(x, "x")
    if x < 2:
        raise ValueError(f"bound formulas need x >= 2, got {x}")
    return x


def _check_xk(x: int, k: int) -> None:
    check_power(k)
    _check_x(x)


@contextmanager
def _digits(prec: int):
    """Decimal arithmetic at prec digits, as an _Ops.

    A fresh context: the caller's decimal settings never leak in.
    """
    import decimal

    with decimal.localcontext(decimal.Context(prec=prec)):
        yield _Ops(decimal.Decimal, decimal.Decimal.ln, decimal.Decimal.exp, prec)


def _power_ratio(ops: _Ops, scale, x: int, a: int, b: int, d: int):
    """scale * x^(a/d) / (ln x)^(b/d), as scale * exp((a ln x - b ln ln x) / d)."""
    log_x = ops.ln(ops.num(x))
    return scale * ops.exp((a * log_x - b * ops.ln(log_x)) / d)


@lru_cache(maxsize=None)
def _c(ops: _Ops, k: int):
    # keyed on ops, whose prec sets it apart: the guard digits must not
    # reuse a value rounded to the working digits
    return ops.num(k * k) / (k - 1) * ops.exp((1 - ops.num(1) / k) * ops.ln(ops.num(k + 1)))


def _upper(ops: _Ops, x: int, k: int):
    return _power_ratio(ops, _c(ops, k), x, 2, 2 * k, k + 1)


def _lower(ops: _Ops, x: int, k: int):
    return _power_ratio(ops, ops.num((k + 1) ** 2) / 2, x, 2, 2 * k, k + 1)


def _m_estimate(ops: _Ops, x: int, k: int):
    return _power_ratio(ops, ops.num(k + 1), x, 1, k, k + 1)


def _tws(ops: _Ops, x: int):
    return _power_ratio(ops, ops.num("28.4201"), x, 2, 4, 3)


def c_constant(k: int) -> float:
    """(k^2/(k-1)) * (k+1)^(1 - 1/k); the pole at k = 1 is rejected."""
    check_power(k)
    with _digits(WORK_DPS) as ops:
        return float(_c(ops, k))


def _evaluated(formula, x: int, k: int) -> float:
    _check_xk(x, k)
    with _digits(WORK_DPS) as ops:
        return float(formula(ops, x, k))


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
    with _digits(WORK_DPS) as ops:
        return float(_tws(ops, x))


def _floored(formula, x: int, k: int) -> int:
    """floor(formula), from its float value unless an integer lies within its error."""
    _check_xk(x, k)
    value = formula(_FLOAT, x, k)
    low = floor(value * (1 - FLOAT_REL_ERROR))
    if low == floor(value * (1 + FLOAT_REL_ERROR)):
        return low
    with _digits(GUARD_DPS) as ops:
        return floor(formula(ops, x, k))


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
    """Every real-valued bound for (x, k) in one bundle, each as its own function gives it."""
    return BoundEstimate(
        x,
        k,
        upper_bound(x, k),  # first, so it checks k and then x
        lower_bound(x, k),
        c_constant(k),
        m_estimate(x, k),
        tws_upper_s2(x) if k == 2 else None,
    )
