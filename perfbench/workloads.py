"""The benchmark's workloads and the checks on their outputs.

Every input is fixed by the paper, so a workload has no random part:
the run's seed only orders the measurements (see run.py).  Each
workload comes in two sizes: "full", the size the benchmark measures,
and "toy", small enough for selfcheck.py to run every workload in
seconds.  At full size the duplicate hunt and the enumeration stop at
10^10, so that a job takes about a second and a run holds enough jobs
for a steady median (see README.md); the tables keep every row of the
paper.

A job is one or more program invocations run one after another, each
in a fresh process.  An invocation is ("cli", argv for `python -m
primesums`) or ("cross", argv for child.py's cross-power job, where
"{spill}" stands for the benchmark-owned spill directory).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import reference


@dataclass(frozen=True)
class Output:
    """What one finished invocation produced, as the checks see it."""

    returncode: int
    size: int
    digest: str  # sha256 hex of stdout
    data: Optional[bytes]  # stdout, kept only while it is small


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple
    setup: tuple  # (x, k): the prefix sums set-up must have ready
    reps: int  # representations one job accounts for, exact
    check: Callable  # (outputs, leftover files) -> Verdict
    hist: Optional[tuple] = None  # (x, k) for the traced length_histogram call


@dataclass(frozen=True)
class Verdict:
    """How a job's operations fared.

    An operation fails on a wrong or missing output, a wrong exit
    status or a leftover temp file.  `wrong` counts the failed
    operations whose output holds a wrong value: a silent error, as
    opposed to an output that is missing or cut short by an error the
    program reported.
    """

    attempted: int
    failed: int
    wrong: int
    problems: tuple


def _one_op(ok_output: bool, what: str, outputs, leftovers) -> Verdict:
    problems = []
    if not ok_output:
        problems.append(what)
    problems += [f"exit status {o.returncode}" for o in outputs if o.returncode != 0]
    if leftovers:
        problems.append(f"{len(leftovers)} leftover files: {sorted(leftovers)[:3]}")
    silent = not ok_output and all(o.returncode == 0 for o in outputs)
    return Verdict(1, int(bool(problems)), int(silent), tuple(problems))


def _exact_check(expected: bytes, what: str) -> Callable:
    def check(outputs, leftovers):
        ok = len(outputs) == 1 and outputs[0].data == expected
        return _one_op(ok, what, outputs, leftovers)

    return check


def _digest_check(digest: str, size: int, what: str) -> Callable:
    def check(outputs, leftovers):
        ok = len(outputs) == 1 and (outputs[0].digest, outputs[0].size) == (digest, size)
        return _one_op(ok, what, outputs, leftovers)

    return check


def in_turn(*checks) -> Callable:
    """Check the i-th output with the i-th check; leftover files fail the first."""

    def check(outputs, leftovers):
        if len(outputs) != len(checks):
            return Verdict(len(checks), len(checks), 0,
                           (f"{len(outputs)} invocations for {len(checks)} checks",))
        verdicts = [c([o], leftovers if i == 0 else [])
                    for i, (c, o) in enumerate(zip(checks, outputs))]
        return Verdict(sum(v.attempted for v in verdicts), sum(v.failed for v in verdicts),
                       sum(v.wrong for v in verdicts),
                       tuple(p for v in verdicts for p in v.problems))

    return check


def table_rows_check(rows_by_k: dict) -> Callable:
    """Each expected table row is one operation; a missing or wrong row fails.

    A printed line that is not the expected row for its x is wrong.  An
    invocation that exits nonzero or leaves files behind fails at least
    one of its rows, even when every row it printed is right.
    """

    def check(outputs, leftovers):
        attempted = failed = wrong = 0
        problems = []
        for out, (k, rows) in zip(outputs, rows_by_k.items()):
            expected = {row[0]: row for row in rows}
            lines = (out.data or b"").decode("ascii", "replace").splitlines()
            got = {}
            for line in lines:
                fields = line.split("\t")
                row = tuple(int(f) for f in fields) if all(f.isdigit() for f in fields) else ()
                if len(row) == 4 and expected.get(row[0]) == row:
                    got[row[0]] = row
                else:
                    wrong += 1
                    problems.append(f"k={k}: wrong line {line[:80]!r}")
            missing = [x for x in expected if x not in got]
            if missing:
                problems.append(f"k={k}: {len(missing)} rows missing, first x={missing[0]}")
            failed_here = len(missing) + len(lines) - len(got)
            if out.returncode != 0:
                problems.append(f"k={k}: exit status {out.returncode}")
                failed_here = max(failed_here, 1)
            attempted += len(rows)
            failed += min(failed_here, len(rows))
        if leftovers:
            problems.append(f"{len(leftovers)} leftover files")
            failed = max(failed, 1)
        if len(outputs) != len(rows_by_k):
            problems.append(f"{len(outputs)} invocations for {len(rows_by_k)} tables")
            failed = attempted
        return Verdict(attempted, failed, wrong, tuple(problems))

    return check


def _table_invocations(rows_by_k: dict) -> tuple:
    return tuple(
        ("cli", ("table", "--k", str(k), "--from", str(rows[0][0]), "--to", str(rows[-1][0])))
        for k, rows in rows_by_k.items()
    )


def _workloads(dup_x, enum_x, enum_digest, cross_x, cross_cap, rows_by_k) -> dict:
    """Name -> a function that builds the Workload.

    Expected outputs are built only for the workload that runs, which
    keeps the benchmark's own memory small: a child started from it
    inherits its resident-set high-water mark.
    """

    def dup_sq():
        return Workload(
            name="dup-sq",
            why="the paper's headline hunt: every square run below x through generate, sort, group and verify",
            invocations=(("cli", ("duplicates", "--k", "2", "--x", str(dup_x))),),
            setup=(dup_x, 2),
            reps=_count(dup_x, 2),
            check=_exact_check(reference.duplicate_lines(dup_x), "duplicate groups differ from the paper"),
        )

    def enum_sq():
        return Workload(
            name="enum-sq",
            why="streams every square run through enumeration and CLI output: the enumerate | head path",
            invocations=(("cli", ("enumerate", "--k", "2", "--x", str(enum_x))),),
            setup=(enum_x, 2),
            reps=_count(enum_x, 2),
            check=_digest_check(*enum_digest(), "enumerate output differs from the oracle"),
            hist=(enum_x, 2),
        )

    def squares():
        enum, dup = enum_sq(), dup_sq()
        return Workload(
            name="squares",
            why="every square run below x streamed by enumerate, then hunted for duplicates: enumeration, duplicates, cli",
            invocations=enum.invocations + dup.invocations,
            setup=max(enum.setup, dup.setup),
            reps=enum.reps + dup.reps,
            check=in_turn(enum.check, dup.check),
            hist=enum.hist,
        )

    def cross_capped():
        return Workload(
            name="cross-capped",
            why="cross-power hunt for k in {2, 3} with a small in-memory cap, so runs spill to files and merge back",
            invocations=(("cross", (str(cross_x), "2,3", str(cross_cap), "{spill}")),),
            setup=(cross_x, 2),
            reps=_count(cross_x, 2) + _count(cross_x, 3),
            check=_exact_check(reference.cross_lines(cross_x), "cross-power groups differ from 23939"),
        )

    def paper_tables():
        def primes_to_sieve(k):
            return reference.kth_root(rows_by_k[k][-1][0], k)

        # cheapest table first: the k = 2 table, whose 10^15 row is the
        # longest single invocation, runs last, so first_output_s times a
        # short table
        tables = {k: rows_by_k[k] for k in sorted(rows_by_k, key=primes_to_sieve)}
        dearest = list(tables)[-1]
        return Workload(
            name="paper-tables",
            why="every row of the paper's count tables: sieve, prefix build, counting and bounds, rebuilt per row",
            invocations=_table_invocations(tables),
            setup=(tables[dearest][-1][0], dearest),  # the row with the most primes to sieve
            reps=sum(row[1] for rows in tables.values() for row in rows),
            check=table_rows_check(tables),
        )

    return {
        "dup-sq": dup_sq,
        "enum-sq": enum_sq,
        "squares": squares,
        "cross-capped": cross_capped,
        "paper-tables": paper_tables,
    }


def _count(x: int, k: int) -> int:
    """Representations with n <= x: the paper's table value where it has one."""
    for row in reference.COUNT_TABLES.get(k, ()):
        if row[0] == x:
            return row[1]
    return sum(1 for _ in reference.enumeration_lines(x, k))


NAMES = ("dup-sq", "enum-sq", "squares", "cross-capped", "paper-tables")


def workload(name: str, size: str) -> Workload:
    """The named workload at the measured size ("full") or at toy size ("toy")."""
    return _by_size(size)[name]()


def _by_size(size: str) -> dict:
    if size == "full":
        return _workloads(
            dup_x=10**10,
            enum_x=10**10,
            enum_digest=lambda: (reference.ENUM_SQ_DIGEST, reference.ENUM_SQ_BYTES),
            cross_x=10**11,
            cross_cap=1_000_000,
            rows_by_k=reference.COUNT_TABLES,
        )
    if size == "toy":
        return _workloads(
            dup_x=2 * 10**7,
            enum_x=10**6,
            enum_digest=lambda: reference.enumeration_digest(10**6, 2),
            cross_x=10**5,
            cross_cap=100,
            rows_by_k={k: [r for r in rows if r[0] <= 10 ** max(7, 2 * k)]
                       for k, rows in reference.COUNT_TABLES.items()},
        )
    raise ValueError(f"unknown size {size!r}")
