"""Command-line front end.

Subcommands cover the whole library surface: enumerate (stream every
representation), count (one summary line), table (decade-stepped counts
with floored bound columns), bounds (raw real-valued formulas),
duplicates and cross (groups printed as fully expanded sums).  Exit
status is 0 on success, 1 on usage errors, 2 on overflow or resource
exhaustion.  Run as a program (entry(): the console script, python -m
primesums or python -m primesums.cli), the process ends right after its
output and errors are flushed, with no interpreter teardown; under a
profiler or tracer it exits normally, so their reports are written.

COMMANDS is the one command registry: each command's runner, help line
and options.  build_parser builds the argparse parser from it, and
main() first reads a plain command line straight from it: the command
word, then only that command's exact flags, each once, every value
accepted by its type and not led by "-", every required option given.
Anything else (--help, an abbreviation such as --fr, --name=value, a
repeated flag, a usage error) goes to argparse, imported only then, so
help, errors and exit status are argparse's as before, and a plain
line never loads argparse, gettext or locale.

Each command imports what it runs beyond the counting core: table and
bounds load the bound formulas when they start, and duplicates, cross
and count --distinct load the duplicate search (and numpy), so
enumerate and plain count load neither.  decimal loads only on demand:
bounds needs it, and table only for a floor that float arithmetic
leaves undecided.  table flushes each row as it is counted, so a row
reaches a pipe before the next is done.

The hunt commands own no search: duplicates and cross call the
library's one entry, duplicates._hunt, which checks every exponent,
builds the prefix arrays and finds the groups, and print each group's
runs from the arrays it returns; count --distinct calls
count_with_distinct.  The CLI adds only its own refusal of --ks with
fewer than two distinct exponents.
"""

import contextlib
import os
import stat
import sys
from types import SimpleNamespace

from .counting import TRIM_STARTS, count_rows, count_up_to, start_runs
from .prefix import sieve_limit
from .sieve import iter_primes


class UsageError(ValueError):
    """Bad flags or flag values; exit status 1."""


def parse_x(text: str) -> int:
    """Exact integer from decimal digits or <mantissa>e<exponent> form.

    "1e38" means the exact integer 10^38; no float round-trip happens
    anywhere, so inputs beyond double precision stay exact.  A number
    past 4300 digits, Python's default limit for converting an int to
    or from a string, is refused before int() sees it, and an exponent
    form before 10^exponent is computed, which alone takes seconds at an
    exponent of 10^7.  Digits are those int() reads (str.isdecimal),
    which leaves out superscripts.
    """
    s = text.strip().lower()
    mantissa, sep, exponent = s.partition("e")
    if not sep:
        exponent = "0"
    elif mantissa == "":
        mantissa = "1"
    if mantissa.isdecimal() and exponent.isdecimal():
        # int() itself refuses a string of more than 4300 digits
        if max(len(mantissa), len(exponent)) > 4300 or len(str(int(mantissa))) + int(exponent) > 4300:
            raise UsageError(f"cannot parse {text!r}: more than 4300 digits")
        return int(mantissa) * 10 ** int(exponent)
    raise UsageError(f"cannot parse {text!r}: expected digits or <int>e<int>")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # refused below with the same message
    if value < 1:
        raise UsageError(f"expected a positive integer, got {text}")
    return value


def _parse_ks(text: str) -> tuple:
    parts = [piece.strip() for piece in text.split(",")]
    if not all(piece.isdecimal() for piece in parts):
        raise UsageError(f"expected a comma-separated exponent list, got {text!r}")
    return tuple(map(parse_x, parts))


FORMATS = ("tsv", "csv")
_K = ("--k", "k", _positive_int, "exponent")
_X = ("--x", "x", parse_x, "inclusive bound on n")

# Each command: the name of its runner in this module (read when a line
# is parsed, so a replaced runner is the one called), its help line,
# whether it takes --format (duplicates and cross print expanded sums,
# which have no columns), and its own options as (flag, dest, type,
# help).  An option with a type is required and takes one value; one
# with type None is a store-true flag.  Every command also takes --out.
COMMANDS = {
    "enumerate": (
        "_run_enumerate", "stream one line per representation: n, start prime", True,
        (_K, _X),
    ),
    "count": (
        "_run_count", "one summary line: x, k, count, max run length, primes", True,
        (_K, _X, ("--distinct", "distinct", None,
                  "append the distinct-value count (runs the duplicate scan)")),
    ),
    "table": (
        "_run_table", "decade rows from --from to --to: x, count, upper, lower", True,
        (_K, ("--from", "from_x", parse_x, "first x (decade-stepped upward)"),
         ("--to", "to_x", parse_x, "last x (inclusive)")),
    ),
    "bounds": (
        "_run_bounds", "raw bound formulas at one point: constant, main terms", True,
        (_K, ("--x", "x", parse_x, "evaluation point")),
    ),
    "duplicates": (
        "_run_duplicates", "values with several runs for one exponent, expanded", False,
        (_K, _X),
    ),
    "cross": (
        "_run_cross", "values representable under several exponents, expanded", False,
        (("--ks", "ks", _parse_ks, "comma-separated exponents, e.g. 2,3"), _X),
    ),
}


def build_parser():
    """The argparse parser of COMMANDS, for every line _plain_args declines."""
    import argparse
    import functools

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    def typed(convert):
        # argparse prints an ArgumentTypeError's text as is, and in place
        # of any other ValueError's it names the type function
        @functools.wraps(convert)
        def checked(text):
            try:
                return convert(text)
            except UsageError as err:
                raise argparse.ArgumentTypeError(str(err)) from None
        return checked

    parser = Parser(
        prog="primesums",
        description="Sums of k-th powers of consecutive primes: "
        "enumerate, count, bound, and search for duplicates.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")
    for name, (runner, help_text, tabular, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(runner=globals()[runner])  # run(args) calls it
        if tabular:
            p.add_argument("--format", choices=FORMATS, default="tsv",
                           help="tsv (no header) or csv (header row)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output to PATH instead of stdout")
        for flag, dest, convert, help_text in options:
            if convert is None:
                p.add_argument(flag, dest=dest, action="store_true", help=help_text)
            else:
                p.add_argument(flag, dest=dest, type=typed(convert), required=True,
                               help=help_text)
    return parser


def _plain_args(argv):
    """argparse's namespace for a plain command line, read from COMMANDS; None for any other.

    A plain line is the command word, then only that command's exact
    flags, each at most once: a store-true flag alone, any other with a
    value that does not start with "-" and that its type accepts.
    --format must be one of FORMATS, and every required option given.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    runner, _, tabular, options = command
    values = {"format": "tsv"} if tabular else {}
    values["out"] = None
    # flag -> (dest, type); a flag leaves once it is read, so a repeat is declined
    unread = {"--format": ("format", str)} if tabular else {}
    unread["--out"] = ("out", str)
    required = set()
    for flag, dest, convert, _ in options:
        unread[flag] = (dest, convert)
        if convert is None:
            values[dest] = False
        else:
            required.add(dest)
    words = iter(argv[1:])
    for flag in words:
        if flag not in unread:
            return None
        dest, convert = unread.pop(flag)
        if convert is None:
            values[dest] = True
            continue
        text = next(words, "-")  # a missing value is declined as a "-"-led one
        if text.startswith("-"):
            return None
        try:
            values[dest] = convert(text)
        except (TypeError, ValueError):  # what argparse turns into a usage error
            return None
    if not required <= values.keys() or values.get("format", "tsv") not in FORMATS:
        return None
    return SimpleNamespace(**values, runner=globals()[runner])


def _columns(args, sink, names) -> str:
    """The separator of args.format; csv first writes its header row of names."""
    if args.format == "tsv":
        return "\t"
    sink.write(",".join(names) + "\n")
    return ","


def _run_enumerate(args, sink) -> None:
    # checked before the header: a bad k, x or sieve prints nothing
    primes = iter_primes(sieve_limit(args.x, args.k))
    sep = _columns(args, sink, ("n", "start_prime"))
    for p, fb, ends in start_runs(primes, args.k, args.x):
        # one write per TRIM_STARTS runs of a start, which share its
        # start prime, so a long first run is never one string
        tail = f"{sep}{p}\n"
        for i in range(0, len(ends), TRIM_STARTS):
            sink.write(tail.join([str(ft - fb) for ft in ends[i : i + TRIM_STARTS]]) + tail)


def _run_count(args, sink) -> None:
    if args.distinct:
        from .duplicates import count_with_distinct

        report, distinct = count_with_distinct(args.x, args.k)
        names = [*report._fields, "distinct"]
        values = [*report, distinct]
    else:
        report = count_up_to(args.x, args.k)
        names = list(report._fields)
        values = list(report)
    sep = _columns(args, sink, names)
    sink.write(sep.join(str(v) for v in values) + "\n")


def _run_table(args, sink) -> None:
    from .bounds import floor_lower_bound, floor_upper_bound

    if args.from_x < 2:
        raise UsageError(f"--from must be at least 2, got {args.from_x}")
    if args.from_x > args.to_x:
        raise UsageError(f"--from {args.from_x} exceeds --to {args.to_x}")
    sep = _columns(args, sink, ("x", "count", "upper", "lower"))
    xs = []
    x = args.from_x
    while x <= args.to_x:
        xs.append(x)
        x *= 10
    # one sieve pass for every row; each row is written as it completes
    for report in count_rows(xs, args.k):
        x = report.x
        upper = floor_upper_bound(x, args.k)
        row = (x, report.count, upper, floor_lower_bound(x, args.k))
        sink.write(sep.join(str(v) for v in row) + "\n")
        sink.flush()


def _run_bounds(args, sink) -> None:
    from .bounds import bound_estimate

    est = bound_estimate(args.x, args.k)
    names = ["x", "k", "c_k", "upper", "lower", "m_estimate"]
    values = [est.x, est.k, est.c_k, est.upper, est.lower, est.m_estimate]
    if est.tws_upper is not None:
        names.append("tws_upper")
        values.append(est.tws_upper)
    sep = _columns(args, sink, names)
    sink.write(sep.join(str(v) for v in values) + "\n")


def _write_hunt(x: int, ks: list, sink) -> None:
    """One line per group of the library's hunt: n = first expansion = second = ..."""
    from .duplicates import _hunt

    ps_by_k, groups = _hunt(x, ks)
    for group in groups:
        parts = [str(group.n)]
        for run in group.members:
            primes = ps_by_k[run.k].primes[run.start_index : run.start_index + run.length]
            parts.append(" + ".join(f"{p}^{run.k}" for p in primes))
        sink.write(" = ".join(parts) + "\n")


def _run_duplicates(args, sink) -> None:
    _write_hunt(args.x, [args.k], sink)


def _run_cross(args, sink) -> None:
    ks = sorted(set(args.ks))
    if len(ks) < 2:
        raise UsageError(f"--ks needs at least two distinct exponents, got {args.ks}")
    _write_hunt(args.x, ks, sink)


def run(args) -> int:
    if args.out is None:
        try:
            args.runner(args, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # stdout is the broken pipe; a broken --out leaves it alone
            _discard_stdout()
            raise
        return 0
    # opened before the try: a file that cannot be opened is not removed
    sink = open(args.out, "w", encoding="ascii")
    removable = _is_plain_file(args.out, sink)
    try:
        with sink:
            args.runner(args, sink)
    except BaseException:
        # a failed or interrupted run leaves no empty or partial file; a
        # symlink, device or pipe (/dev/stdout, /dev/null) is never removed
        if removable:
            with contextlib.suppress(OSError):
                os.unlink(args.out)
        raise
    return 0


def _is_plain_file(path: str, sink) -> bool:
    """True if path names, with no symlink, the regular file sink has open."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    return stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.fstat(sink.fileno()))


def _discard_stdout() -> None:
    """Point stdout's descriptor at /dev/null.

    After a failed write (a broken pipe, a full disk) stdout still holds
    what it could not write, and a normal exit flushes it again, which
    would print "Exception ignored" and exit 120.  A stdout with no
    descriptor, such as a test's capture, is left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # no stdout, io.UnsupportedOperation, or closed
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    # the duplicate kernel never uses the worker threads numpy's OpenBLAS starts
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _plain_args(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        return run(args)
    except BrokenPipeError:
        # downstream closed the pipe (enumerate | head is normal use)
        return 0
    except ValueError as err:  # UsageError included
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        # a bare MemoryError() has no text of its own
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2
    except (OverflowError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    """Run main() as the whole process, and end it once its output is flushed.

    The interpreter's teardown (freeing every module, a last garbage
    collection) writes nothing, and takes 8-20 ms a process on a 2-vCPU
    host, so the process ends with os._exit.  Under a tracer or profiler
    (cProfile, trace, coverage) it exits normally, so that their reports
    are written.  An exception that escapes main() ends the process the
    usual way.
    """
    status = main()
    try:
        sys.stdout.flush()
    except (AttributeError, ValueError, OSError):
        # no stdout, a closed one, or the write error main() reported
        _discard_stdout()
    with contextlib.suppress(AttributeError, ValueError, OSError):
        sys.stderr.flush()
    if _observed():
        sys.exit(status)
    os._exit(status)


def _observed() -> bool:
    """True under a tracer or profiler, whose report is written at a normal exit."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    # from Python 3.12 on, cProfile (and coverage, if asked) hooks in
    # through sys.monitoring, whose tool ids are 0-5
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


if __name__ == "__main__":
    entry()
