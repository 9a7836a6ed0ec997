"""Property tests: every consumer of the counting sweep agrees with direct summation.

Counting, the length histogram, the enumerator and the CLI writer all
read the run ends of one sweep; here random (x, k) pairs compare each
of them against golden.direct_sums, which sums term by term from
trial-division primes and shares no code with the package.
"""

import io
from contextlib import redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from golden import direct_sums
from primesums.cli import main
from primesums.counting import count_sums
from primesums.enumeration import enumerate_sums, length_histogram
from primesums.prefix import build

# x stays below 10^7 so that direct_sums, quadratic in the prime
# count, keeps each example to milliseconds
cases = st.tuples(st.integers(0, 10 ** 7), st.integers(2, 12))


@settings(deadline=None)
@given(cases)
def test_count_enumeration_histogram_agree(case):
    x, k = case
    ps = build(x, k)
    reps = list(enumerate_sums(ps))
    assert count_sums(ps).count == len(reps) == sum(length_histogram(ps).values())
    assert [(r.n, r.start_prime, r.length) for r in reps] == direct_sums(x, k)


@settings(deadline=None)
@given(cases)
def test_cli_enumerate_matches_direct_sums(case):
    x, k = case
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["enumerate", "--k", str(k), "--x", str(x)])
    assert code == 0
    rows = direct_sums(x, k)
    assert out.getvalue() == "".join(f"{n}\t{p}\n" for n, p, _ in rows)
