"""Exact integer helpers: overflow-checked powers and k-th roots.

Values are plain Python ints, but every public operation enforces the
unsigned ranges the rest of the package assumes: 64-bit prime/base
values and 128-bit powers and bounds.  Nothing here ever wraps silently; a result
that cannot fit in 128 bits raises OverflowError instead.
"""

UINT64_MAX = (1 << 64) - 1
UINT128_MAX = (1 << 128) - 1


def check_uint64(value: int, name: str = "value") -> int:
    if not 0 <= value <= UINT64_MAX:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")
    return value


def check_uint128(value: int, name: str = "value") -> int:
    if not 0 <= value <= UINT128_MAX:
        raise ValueError(f"{name} must be an unsigned 128-bit integer, got {value}")
    return value


def checked_pow(base: int, k: int) -> int:
    """Return base**k exactly, or raise OverflowError if it needs >128 bits.

    Exponentiation itself is Python's built-in binary powering; this
    wrapper only adds the range checks.
    """
    check_uint64(base, "base")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if base <= 1:
        return base
    # base >= 2, so k > 128 overflows without needing the product.
    if k > 128:
        raise OverflowError(f"{base}^{k} does not fit in 128 bits")
    result = base ** k
    if result > UINT128_MAX:
        raise OverflowError(f"{base}^{k} does not fit in 128 bits")
    return result


def integer_kth_root(x: int, k: int) -> int:
    """Largest r with r**k <= x, computed exactly.

    A floating-point seed gets within a few ulps; an integer Newton step
    plus the final adjustment loops remove any float rounding, so the
    result is exact even immediately around perfect powers.
    """
    check_uint128(x, "x")
    if not 1 <= k <= 127:
        raise ValueError(f"root degree must be in 1..127, got {k}")
    if k == 1 or x == 0:
        return x
    r = int(x ** (1.0 / k)) + 1
    # Newton for floor(x**(1/k)); converges from above in a few steps.
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r
