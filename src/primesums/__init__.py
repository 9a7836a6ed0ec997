"""Sums of k-th powers of consecutive primes.

Tools to enumerate every integer n <= x of the form
p_{b+1}^k + p_{b+2}^k + ... + p_t^k over consecutive primes, count the
representations in linear time with a window swept over a stream of
primes, evaluate closed-form upper and lower bound formulas, and hunt for
integers with several representations, within one exponent or across
different exponents.

`import primesums` loads no submodule: each public name is imported
from its module the first time it is read (PEP 562), so a process
that never reads a bound or a duplicate search never loads decimal or
numpy.
"""

import importlib

__version__ = "1.0.0"

# each public name -> the submodule that defines it, in __all__'s order
_MODULE_OF = {
    "UINT64_MAX": "arith",
    "UINT128_MAX": "arith",
    "BoundEstimate": "bounds",
    "CountReport": "counting",
    "DuplicateGroup": "duplicates",
    "PowerPrefixSums": "prefix",
    "Representation": "prefix",
    "SieveMemoryError": "sieve",
    "bound_estimate": "bounds",
    "build": "prefix",
    "build_from_primes": "prefix",
    "c_constant": "bounds",
    "checked_pow": "arith",
    "count_rows": "counting",
    "count_sums": "counting",
    "count_up_to": "counting",
    "distinct_count": "duplicates",
    "duplicate_surplus": "duplicates",
    "enumerate_sums": "enumeration",
    "find_cross_power_duplicates": "duplicates",
    "find_duplicates": "duplicates",
    "floor_lower_bound": "bounds",
    "floor_upper_bound": "bounds",
    "integer_kth_root": "arith",
    "length_histogram": "enumeration",
    "lower_bound": "bounds",
    "m_estimate": "bounds",
    "per_length_bound": "bounds",
    "prime_count": "sieve",
    "primes_up_to": "sieve",
    "smallest_elements": "enumeration",
    "tws_upper_s2": "bounds",
    "upper_bound": "bounds",
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
