"""Sums of k-th powers of consecutive primes.

Tools to enumerate every integer n <= x of the form
p_{b+1}^k + p_{b+2}^k + ... + p_t^k over consecutive primes, count the
representations in linear time with a window swept over a stream of
primes, evaluate closed-form upper and lower bound formulas, and hunt for
integers with several representations, within one exponent or across
different exponents.
"""

from .arith import UINT64_MAX, UINT128_MAX, checked_pow, integer_kth_root
from .bounds import (
    BoundEstimate,
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
from .counting import CountReport, count_rows, count_sums, count_up_to
from .duplicates import (
    DuplicateGroup,
    distinct_count,
    duplicate_surplus,
    find_cross_power_duplicates,
    find_duplicates,
)
from .enumeration import (
    Representation,
    enumerate_sums,
    length_histogram,
    smallest_elements,
)
from .prefix import PowerPrefixSums, build, build_from_primes
from .sieve import SieveMemoryError, prime_count, primes_up_to

__version__ = "1.0.0"

__all__ = [
    "UINT64_MAX",
    "UINT128_MAX",
    "BoundEstimate",
    "CountReport",
    "DuplicateGroup",
    "PowerPrefixSums",
    "Representation",
    "SieveMemoryError",
    "bound_estimate",
    "build",
    "build_from_primes",
    "c_constant",
    "checked_pow",
    "count_rows",
    "count_sums",
    "count_up_to",
    "distinct_count",
    "duplicate_surplus",
    "enumerate_sums",
    "find_cross_power_duplicates",
    "find_duplicates",
    "floor_lower_bound",
    "floor_upper_bound",
    "integer_kth_root",
    "length_histogram",
    "lower_bound",
    "m_estimate",
    "per_length_bound",
    "prime_count",
    "primes_up_to",
    "smallest_elements",
    "tws_upper_s2",
    "upper_bound",
]
