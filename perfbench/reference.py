"""The paper's published values, and independent oracles for the benchmark's checks.

Everything a workload's output is checked against lives here.  The
tables are the paper's count tables (x, count, floor(upper),
floor(lower)); the duplicate list is the paper's 40 values below 10^12
with two runs of consecutive prime squares, with the start prime of
each run.  The oracles rebuild expected output bytes from these values
with their own sieve and plain summation, so no check trusts the
program under test.
"""

import hashlib
import math

# k -> rows of (x, count, floor(upper bound), floor(lower bound))
COUNT_TABLES = {
    2: [
        (10**3, 37, 52, 34),
        (10**4, 132, 166, 108),
        (10**5, 519, 574, 372),
        (10**6, 1998, 2089, 1357),
        (10**7, 7840, 7898, 5130),
        (10**8, 31372, 30681, 19928),
        (10**9, 126689, 121714, 79056),
        (10**10, 517191, 490907, 318853),
        (10**11, 2132474, 2006670, 1303370),
        (10**12, 8867094, 8293885, 5387036),
        (10**13, 37153225, 34599930, 22473314),
        (10**14, 156713533, 145488607, 94497622),
        (10**15, 665005737, 615948906, 400070550),
    ],
    3: [
        (10**3, 10, 19, 13),
        (10**4, 29, 40, 28),
        (10**5, 70, 91, 64),
        (10**6, 186, 220, 155),
        (10**7, 491, 554, 390),
        (10**8, 1297, 1434, 1011),
        (10**9, 3501, 3801, 2681),
        (10**10, 9568, 10262, 7240),
        (10**11, 26429, 28130, 19846),
        (10**12, 73575, 78071, 55080),
        (10**13, 206617, 218951, 154472),
        (10**14, 584184, 619541, 437093),
        (10**15, 1663904, 1766547, 1246320),
        (10**16, 4769563, 5070868, 3577556),
        (10**17, 13742399, 14641613, 10329827),
        (10**18, 39796129, 42496537, 29981799),
        (10**19, 115807012, 123917289, 87425082),
        (10**20, 338386013, 362841801, 255989092),
    ],
    5: [
        (10**5, 10, 20, 14),
        (10**6, 21, 32, 22),
        (10**7, 38, 54, 37),
        (10**8, 68, 94, 65),
        (10**9, 127, 167, 115),
        (10**10, 243, 302, 208),
        (10**11, 479, 556, 382),
        (10**12, 862, 1037, 712),
        (10**13, 1639, 1956, 1343),
        (10**14, 3128, 3725, 2558),
        (10**15, 6053, 7154, 4913),
        (10**16, 11799, 13841, 9507),
        (10**17, 22938, 26954, 18513),
        (10**18, 44869, 52794, 36262),
        (10**19, 87959, 103940, 71393),
        (10**20, 173621, 205585, 141209),
        (10**21, 343199, 408328, 280466),
        (10**22, 681611, 814086, 559167),
        (10**23, 1359330, 1628652, 1118664),
        (10**24, 2717318, 3268557, 2245058),
        (10**25, 5451410, 6578721, 4518694),
        (10**26, 10962586, 13276572, 9119214),
        (10**27, 22107170, 26859747, 18449024),
        (10**28, 44656828, 54464244, 37409592),
        (10**29, 90459929, 110673813, 76017986),
        (10**30, 183613129, 225340599, 154778606),
        (10**31, 373421607, 459662117, 315725893),
        (10**32, 761023562, 939272425, 645153503),
    ],
    10: [
        (10**10, 10, 21, 13),
        (10**11, 15, 26, 16),
        (10**12, 21, 35, 22),
        (10**13, 36, 45, 28),
        (10**14, 45, 61, 38),
        (10**15, 56, 81, 51),
        (10**16, 78, 110, 69),
        (10**17, 120, 150, 94),
        (10**18, 154, 206, 129),
        (10**19, 214, 284, 178),
        (10**20, 301, 393, 247),
        (10**21, 439, 547, 344),
        (10**22, 599, 765, 481),
        (10**23, 832, 1072, 674),
        (10**24, 1187, 1508, 949),
        (10**25, 1678, 2129, 1339),
        (10**26, 2373, 3013, 1895),
        (10**27, 3304, 4276, 2690),
        (10**28, 4817, 6083, 3827),
        (10**29, 6786, 8674, 5457),
        (10**30, 9744, 12396, 7799),
        (10**31, 13788, 17751, 11168),
        (10**32, 19871, 25467, 16022),
        (10**33, 28290, 36601, 23027),
        (10**34, 40949, 52692, 33150),
        (10**35, 58459, 75976, 47799),
        (10**36, 84393, 109711, 69023),
        (10**37, 121302, 158647, 99810),
        (10**38, 175797, 229717, 144523),
    ],
    20: [
        (10**20, 10, 20, 12),
        (10**21, 15, 23, 13),
        (10**22, 15, 26, 15),
        (10**23, 21, 30, 17),
        (10**24, 21, 35, 20),
        (10**25, 28, 40, 23),
        (10**26, 36, 46, 27),
        (10**27, 36, 54, 31),
        (10**28, 45, 63, 36),
        (10**29, 45, 73, 42),
        (10**30, 66, 85, 49),
        (10**31, 66, 100, 58),
        (10**32, 78, 117, 68),
        (10**33, 105, 138, 80),
        (10**34, 120, 162, 94),
        (10**35, 136, 191, 111),
        (10**36, 171, 225, 131),
        (10**37, 190, 266, 154),
        (10**38, 232, 315, 183),
    ],
}

DUPLICATE_SQUARES = [
    (14720439, (131, 941)),
    (16535628, (569, 1123)),
    (34714710, (401, 2389)),
    (40741208, (131, 653)),
    (61436388, (569, 809)),
    (603346308, (401, 919)),
    (1172360113, (3701, 4673)),
    (1368156941, (1367, 16519)),
    (1574100889, (613, 3623)),
    (1924496102, (2803, 11657)),
    (1989253499, (613, 3359)),
    (2021860243, (3701, 4297)),
    (6774546339, (11273, 47513)),
    (9770541610, (1663, 7243)),
    (12230855963, (2777, 10177)),
    (12311606487, (3257, 28603)),
    (12540842446, (479, 11087)),
    (14513723777, (1663, 6323)),
    (26423329489, (1709, 32401)),
    (38648724198, (2777, 6967)),
    (47638558043, (28097, 65731)),
    (50195886916, (479, 6857)),
    (50811319931, (2039, 21283)),
    (56449248367, (2803, 4127)),
    (86659250142, (4561, 53609)),
    (105146546059, (6599, 29587)),
    (119789313426, (31847, 42299)),
    (125958414196, (16763, 26183)),
    (134051910100, (4397, 183047)),
    (159625748030, (1367, 3301)),
    (169046403821, (19717, 183829)),
    (263787548443, (47297, 62347)),
    (330881994258, (2039, 11161)),
    (438882621700, (16763, 20369)),
    (507397251905, (643, 75013)),
    (572522061248, (18427, 44371)),
    (687481319598, (16139, 338461)),
    (780455791261, (3257, 7057)),
    (847632329089, (7523, 184003)),
    (854350226239, (6599, 14821)),
]

# the one value below 10^5 that is a run of squares and a run of cubes:
# (n, ((k, start prime, run length), ...)) with members sorted by k
CROSS_WITNESS = (23939, ((2, 23, 11), (3, 17, 3)))

# `primesums enumerate --k 2 --x 1e10`: 517,191 lines of "n<TAB>start
# prime", recomputed by enumeration_lines() (see selfcheck.py)
ENUM_SQ_DIGEST = "1ae8be92b50dc0d9ed17ed2c5e4d313ca9414c59646b5e1c762e3464f896f15f"
ENUM_SQ_BYTES = 8042859


def primes_to(limit: int) -> list:
    """Every prime <= limit, from a plain sieve over all integers."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [n for n, flag in enumerate(flags) if flag]


def kth_root(x: int, k: int) -> int:
    """Largest r with r**k <= x, by bisection."""
    lo, hi = 0, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _run_terms(primes: list, start_prime: int, n: int, k: int) -> list:
    """The primes of the consecutive run from start_prime whose k-th powers sum to n."""
    i = primes.index(start_prime)
    total = 0
    run = []
    while total < n:
        total += primes[i] ** k
        run.append(primes[i])
        i += 1
    if total != n:
        raise ValueError(f"no run of {k}-th powers from {start_prime} sums to {n}")
    return run


def duplicate_lines(x: int) -> bytes:
    """Expected `primesums duplicates --k 2 --x <x>` output, for x <= 10^12."""
    if x > 10**12:
        raise ValueError("the paper lists square duplicates only below 10^12")
    primes = primes_to(kth_root(x, 2))
    out = []
    for n, starts in DUPLICATE_SQUARES:
        if n > x:
            break
        runs = [_run_terms(primes, s, n, 2) for s in starts]
        out.append(" = ".join([str(n)] + [" + ".join(f"{p}^2" for p in r) for r in runs]))
    return "".join(line + "\n" for line in out).encode("ascii")


def enumeration_lines(x: int, k: int):
    """Yield the expected `primesums enumerate` lines, start-major, length-minor."""
    primes = primes_to(kth_root(x, k))
    for b, start in enumerate(primes):
        total = 0
        for p in primes[b:]:
            total += p**k
            if total > x:
                break
            yield f"{total}\t{start}\n"


def enumeration_digest(x: int, k: int) -> tuple:
    """(sha256 hex digest, byte count) of the expected enumerate output."""
    digest = hashlib.sha256()
    size = 0
    for line in enumeration_lines(x, k):
        data = line.encode("ascii")
        digest.update(data)
        size += len(data)
    return digest.hexdigest(), size


def cross_lines(x: int) -> bytes:
    """Expected output of the cross-power job for k in {2, 3}, for x <= 10^11."""
    n, members = CROSS_WITNESS
    if x < n:
        return b""
    fields = " ".join(f"{k}:{p}:{m}" for k, p, m in members)
    return f"{n} {fields}\n".encode("ascii")
