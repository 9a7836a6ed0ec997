"""Reference values and independent oracles for the test suite.

The tables and lists here are frozen expected values for the
quantities this package computes, cross-checked against the oracle
helpers below.  The oracles recompute the same quantities by
deliberately naive methods (trial division, direct summation,
quadratic window scans), so the fast implementations are checked
against independent code paths rather than against themselves.
"""

import math
from bisect import bisect_right
from itertools import accumulate

# count tables: k -> rows of (x, count, floor(upper), floor(lower))
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

# constants list: k -> (printed c_k to 2 decimals, (k+1)^2/2)
CONSTANTS = {
    2: (6.92, 4.5),
    3: (11.33, 8.0),
    4: (17.83, 12.5),
    5: (26.21, 18.0),
    6: (36.44, 24.5),
    7: (48.54, 32.0),
    8: (62.52, 40.5),
    9: (78.39, 50.0),
    10: (96.16, 60.5),
    11: (115.84, 72.0),
    12: (137.43, 84.5),
    13: (160.94, 98.0),
    14: (186.38, 112.5),
    15: (213.75, 128.0),
    16: (243.05, 144.5),
    17: (274.29, 162.0),
    18: (307.47, 180.5),
    19: (342.60, 200.0),
    20: (379.68, 220.5),
}

# the 40 values below 10**12 with two square runs: (n, start primes)
DUPLICATE_SQUARES = [
    (14720439, frozenset((131, 941))),
    (16535628, frozenset((1123, 569))),
    (34714710, frozenset((2389, 401))),
    (40741208, frozenset((131, 653))),
    (61436388, frozenset((569, 809))),
    (603346308, frozenset((401, 919))),
    (1172360113, frozenset((3701, 4673))),
    (1368156941, frozenset((1367, 16519))),
    (1574100889, frozenset((3623, 613))),
    (1924496102, frozenset((11657, 2803))),
    (1989253499, frozenset((3359, 613))),
    (2021860243, frozenset((3701, 4297))),
    (6774546339, frozenset((11273, 47513))),
    (9770541610, frozenset((1663, 7243))),
    (12230855963, frozenset((10177, 2777))),
    (12311606487, frozenset((28603, 3257))),
    (12540842446, frozenset((11087, 479))),
    (14513723777, frozenset((1663, 6323))),
    (26423329489, frozenset((1709, 32401))),
    (38648724198, frozenset((2777, 6967))),
    (47638558043, frozenset((28097, 65731))),
    (50195886916, frozenset((479, 6857))),
    (50811319931, frozenset((2039, 21283))),
    (56449248367, frozenset((2803, 4127))),
    (86659250142, frozenset((4561, 53609))),
    (105146546059, frozenset((29587, 6599))),
    (119789313426, frozenset((31847, 42299))),
    (125958414196, frozenset((16763, 26183))),
    (134051910100, frozenset((183047, 4397))),
    (159625748030, frozenset((1367, 3301))),
    (169046403821, frozenset((183829, 19717))),
    (263787548443, frozenset((47297, 62347))),
    (330881994258, frozenset((11161, 2039))),
    (438882621700, frozenset((16763, 20369))),
    (507397251905, frozenset((643, 75013))),
    (572522061248, frozenset((18427, 44371))),
    (687481319598, frozenset((16139, 338461))),
    (780455791261, frozenset((3257, 7057))),
    (847632329089, frozenset((184003, 7523))),
    (854350226239, frozenset((14821, 6599))),
]

# smallest members of each value set, ascending
INITIAL_ELEMENTS = {
    2: [4, 9, 13, 25, 34, 38, 49, 74, 83, 87, 121, 169, 170, 195, 204,
        208, 289, 290, 339, 361],
    3: [8, 27, 35, 125, 152, 160, 343, 468, 495, 503, 1331, 1674, 1799,
        1826, 1834, 2197, 3528, 3871, 3996, 4023],
    5: [32, 243, 275, 3125, 3368, 3400, 16807, 19932, 20175, 20207,
        161051, 177858, 180983, 181226, 181258, 371293, 532344, 549151,
        552276, 552519],
    10: [1024, 59049, 60073, 9765625, 9824674, 9825698, 282475249,
         292240874, 292299923, 292300947],
    20: [1048576, 3486784401, 3487832977, 95367431640625, 95370918425026,
         95370919473602, 79792266297612001, 79887633729252626,
         79887637216037027, 79887637217085603],
}

# worked cube example at x = 1000
WORKED_CUBE_F = [0, 8, 35, 160, 503]
WORKED_CUBE_PAIRS = [
    (8, 2), (35, 2), (160, 2), (503, 2),
    (27, 3), (152, 3), (495, 3),
    (125, 5), (468, 5),
    (343, 7),
]

# the one value under 10**5 that is both a square run and a cube run
CROSS_VALUE = 23939
CROSS_SQUARES = (23, 11)  # start prime, run length
CROSS_CUBES = (17, 3)

# frozen high-precision evaluations of the bound formulas
M_ESTIMATE_1E6_K2 = 52.104667478820716611
UPPER_1E6_K2 = 2089.9282024250633029
TWS_1E3 = 216.02781706015157324
TWS_OVER_UPPER_K2 = 4.1020880963490207975

# exact `bounds --format csv` data rows: every printed float, to the last digit
BOUNDS_CSV_HEADER = "x,k,c_k,upper,lower,m_estimate"
BOUNDS_CSV_ROWS = [
    "2,2,6.928203230275509,17.928336752630216,11.64479630653498,4.825929196856286,73.54361678030106",
    "1000,2,6.928203230275509,52.66289070008582,34.20555088724818,8.271100396833324,216.02781706015156",
    "1000000000000000,2,6.928203230275509,615948906.2104652,400070550.1586261,28286.765462266132,2526676676.125149",
    "340282366920938463463374607431768211455,2,6.928203230275509,8.533614259030191e+23,5.542745050812948e+23,1052876540797.9178,3.5005637470802015e+24",
    "2,3,11.339289449053858,27.788342790566894,19.604997590310585,6.261788496956854",
    "1000,3,11.339289449053858,19.750606033953932,13.934281242359086,5.27906833491651",
    "1000000000000000,3,11.339289449053858,1766547.9075495405,1246320.0030206055,1578.8096801201882",
    "340282366920938463463374607431768211455,3,11.339289449053858,2.5029514047368134e+17,1.7658611968464445e+17,594282962.3750701",
    "2,10,96.16364293516105,212.3987156709394,133.62765704244492,16.347945255746666",
    "1000,10,96.16364293516105,10.055375259644949,6.326197559078574,3.5570205394623673",
    "1000000000000000,10,96.16364293516105,81.9147124914994,51.535486328000495,10.1523875347625",
    "340282366920938463463374607431768211455,10,96.16364293516105,279844.83516014955,176060.4320970309,593.397728504299",
    "2,64,3959.186718860745,8323.765663582846,4441.304796399838,94.24759727865573",
    "1000,64,3959.186718860745,108.90944415753619,58.1107225094446,10.780605039555489",
    "1000000000000000,64,3959.186718860745,10.711815195740973,5.715494420408193,3.3809745401017715",
    "340282366920938463463374607431768211455,64,3959.186718860745,8.852577431708347,4.723462456417088,3.073585026127336",
]


def trial_primes(limit: int) -> list:
    """Primes up to limit by trial division by the primes up to sqrt(n)."""
    found = []
    for n in range(2, limit + 1):
        for p in found:
            if p * p > n:
                found.append(n)
                break
            if n % p == 0:
                break
        else:
            found.append(n)  # only n = 2, while found is still empty
    return found


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def direct_sums(x: int, k: int) -> list:
    """Every (n, start_prime, length) with n <= x, by direct summation.

    No prefix array: sums accumulate term by term from a trial-division
    prime list, in the same start-ascending, length-ascending order the
    enumerator promises.
    """
    if x < 2 ** k:
        return []
    root = 1
    while (root + 1) ** k <= x:
        root += 1
    primes = trial_primes(root)
    rows = []
    for b, start in enumerate(primes):
        total = 0
        for t in range(b, len(primes)):
            total += primes[t] ** k
            if total > x:
                break
            rows.append((total, start, t - b + 1))
    return rows


def naive_window_count(x: int, k: int) -> int:
    """O(pi^2) window scan over all (start, end) pairs."""
    return len(direct_sums(x, k))



def sweep_count(primes: list, k: int, x: int) -> tuple:
    """(x, k, count, max_run_length, prime_count) by one full two-pointer sweep.

    primes is any ascending list.  For each start b in turn, the end of
    its run moves on while the next power still fits under x; the count
    is the sum of every start's run, with no crossovers and no blocks.
    """
    powers = []
    for p in primes:
        if p ** k > x:
            break
        powers.append(p ** k)
    count = first = total = end = 0
    for b in range(len(powers)):
        while end < len(powers) and total + powers[end] <= x:
            total += powers[end]
            end += 1
        if b == 0:
            first = end
        count += end - b
        total -= powers[b]
    return (x, k, count, first, len(powers))


def length_counts(primes: list, k: int, x: int) -> dict:
    """{m: the starts whose first m powers sum to <= x}, for each m that has one.

    primes is any ascending list.  Each start's powers are added one at
    a time until the next would pass x; no prefix array, window or
    bisection is used.
    """
    counts = {}
    for b in range(len(primes)):
        total = 0
        for m, p in enumerate(primes[b:], 1):
            total += p ** k
            if total > x:
                break
            counts[m] = counts.get(m, 0) + 1
    return counts


def window_sums(primes: list, k: int, x: int) -> list:
    """Every (n, b, m) with n <= x, for any ascending list, by direct summation.

    n is the sum of the m powers from primes[b]; each start's powers
    are added one at a time until the next would pass x.
    """
    rows = []
    for b in range(len(primes)):
        total = 0
        for m, p in enumerate(primes[b:], 1):
            total += p ** k
            if total > x:
                break
            rows.append((total, b, m))
    return rows


def bisect_count(primes: list, k: int, x: int) -> tuple:
    """(x, k, count, max_run_length, prime_count) by one bisection per start.

    primes is any ascending list.  f holds the prefix sums of the powers
    up to x, so the run of start b ends at the last f[e] <= f[b] + x,
    found by bisection; no window moves and no crossover is taken.
    """
    powers = [p ** k for p in primes if p ** k <= x]
    f = list(accumulate(powers, initial=0))
    runs = [bisect_right(f, f[b] + x) - b - 1 for b in range(len(powers))]
    return (x, k, sum(runs), runs[0] if runs else 0, len(powers))
