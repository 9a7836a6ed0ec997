import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden import BOUNDS_CSV_HEADER, BOUNDS_CSV_ROWS, COUNT_TABLES, direct_sums
from primesums import cli, sieve
from primesums.cli import main, parse_x
from primesums.counting import count_up_to
from primesums.duplicates import distinct_count, find_cross_power_duplicates, find_duplicates


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_x_exact():
    assert parse_x("23") == 23
    assert parse_x("1e38") == 10 ** 38
    assert parse_x("2e7") == 2 * 10 ** 7
    assert parse_x("e5") == 10 ** 5
    assert parse_x("1000000000000000000000") == 10 ** 21
    assert parse_x("9e4299") == 9 * 10 ** 4299  # 4300 digits, Python's print limit
    for bad in ("abc", "1.5e3", "-4", "2e-3", "", "1e4300", "12e4299"):
        with pytest.raises(ValueError):
            parse_x(bad)


def test_count_worked_example(capsys):
    code, out, _ = run_cli(capsys, "count", "--k", "3", "--x", "1e3")
    assert code == 0
    assert out == "1000\t3\t10\t4\t4\n"


def test_count_csv_and_distinct(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--k", "2", "--x", "1e5", "--format", "csv", "--distinct"
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "x,k,count,max_run_length,prime_count,distinct"
    assert row == "100000,2,519,28,65,519"


def test_enumerate_empty_at_zero(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--k", "2", "--x", "0")
    assert code == 0
    assert out == ""


def test_enumerate_pairs(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--k", "3", "--x", "1e3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "8\t2"
    assert lines[-1] == "343\t7"


def test_enumerate_writes_a_long_run_in_slices(monkeypatch):
    # a start's lines go out at most TRIM_STARTS to a write, so a long
    # run is never one string, and the bytes are those of the direct sums
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(cli, "TRIM_STARTS", 3)
    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(["enumerate", "--k", "2", "--x", "1e5"]) == 0
    assert sys.stdout.getvalue() == "".join(f"{n}\t{p}\n" for n, p, _ in direct_sums(10 ** 5, 2))
    assert max(text.count("\n") for text in writes) == 3


def test_enumerate_csv_header(capsys):
    _, out, _ = run_cli(capsys, "enumerate", "--k", "2", "--x", "100",
                        "--format", "csv")
    assert out.splitlines()[0] == "n,start_prime"
    assert out.splitlines()[1] == "4,2"


def test_table_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "table", "--k", "20",
                           "--from", "1e20", "--to", "1e38")
    assert code == 0
    rows = [tuple(int(v) for v in line.split("\t")) for line in out.splitlines()]
    assert rows == COUNT_TABLES[20]


def test_table_csv_header(capsys):
    _, out, _ = run_cli(capsys, "table", "--k", "2", "--from", "1e3",
                        "--to", "1e4", "--format", "csv")
    assert out.splitlines() == [
        "x,count,upper,lower",
        "1000,37,52,34",
        "10000,132,166,108",
    ]


def test_table_rejects_reversed_range(capsys):
    code, _, err = run_cli(capsys, "table", "--k", "2", "--from", "1e5",
                           "--to", "1e3")
    assert code == 1
    assert "exceeds" in err


def test_table_rejects_start_below_two(capsys):
    # the bound columns need x >= 2, and from 0 the decade step never advances
    for start in ("0", "1"):
        for fmt in ("tsv", "csv"):
            code, out, err = run_cli(capsys, "table", "--k", "2", "--from", start,
                                     "--to", "1e3", "--format", fmt)
            assert code == 1
            assert out == ""
            assert "--from must be at least 2" in err


def test_bounds_output(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--k", "2", "--x", "1e3",
                           "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "x,k,c_k,upper,lower,m_estimate,tws_upper"
    fields = row.split(",")
    assert fields[0] == "1000" and fields[1] == "2"
    assert float(fields[3]) == pytest.approx(52.66, abs=0.01)
    _, out, _ = run_cli(capsys, "bounds", "--k", "3", "--x", "1e3",
                        "--format", "csv")
    assert "tws_upper" not in out


def test_bounds_csv_bytes_exact(capsys):
    # every printed digit is pinned: a float off in its last bit fails here
    for row in BOUNDS_CSV_ROWS:
        x, k = row.split(",")[:2]
        header = BOUNDS_CSV_HEADER + (",tws_upper" if k == "2" else "")
        code, out, _ = run_cli(capsys, "bounds", "--k", k, "--x", x, "--format", "csv")
        assert code == 0
        assert out == f"{header}\n{row}\n"


def test_duplicates_expanded_sums(capsys):
    code, out, _ = run_cli(capsys, "duplicates", "--k", "2", "--x", "2e7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("14720439 = 131^2 + 137^2 +")
    assert " = 941^2 + " in lines[0]
    assert lines[0].endswith("+ 1033^2")
    assert lines[1].startswith("16535628 = 569^2 +")


def test_cross_expanded_sums(capsys):
    code, out, _ = run_cli(capsys, "cross", "--ks", "2,3", "--x", "1e5")
    assert code == 0
    line = out.strip()
    assert line.startswith("23939 = 23^2 +")
    assert line.endswith("= 17^3 + 19^3 + 23^3")


def check_hunt_lines(out, groups):
    # each line is n = one expansion per member, p^k terms of consecutive primes
    lines = out.splitlines()
    assert len(lines) == len(groups)
    for line, group in zip(lines, groups):
        n, *expansions = line.split(" = ")
        assert int(n) == group.n
        assert len(expansions) == len(group.members)
        for expansion, member in zip(expansions, group.members):
            terms = [term.split("^") for term in expansion.split(" + ")]
            primes = [int(p) for p, _ in terms]
            assert {int(k) for _, k in terms} == {member.k}
            assert (primes[0], len(primes)) == (member.start_prime, member.length)
            known = sieve.primes_up_to(primes[-1])
            start = known.index(primes[0])
            assert primes == known[start : start + len(primes)]
            assert sum(p ** member.k for p in primes) == group.n


@pytest.mark.parametrize("argv, search, size", [
    (["duplicates", "--k", "2", "--x", "1e8"], lambda: find_duplicates(10 ** 8, 2), 5),
    (["cross", "--ks", "3,4", "--x", "1e16"],
     lambda: find_cross_power_duplicates(10 ** 16, {3, 4}), 1),
    # 2^63, where the hunt reads build's lists in place of uint64 arrays
    (["cross", "--ks", "3,4", "--x", str(2 ** 63)],
     lambda: find_cross_power_duplicates(2 ** 63, {3, 4}), 1),
], ids=["squares-1e8", "cross-3-4-1e16", "cross-3-4-2^63"])
def test_hunt_lines_are_the_library_groups(capsys, argv, search, size):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    groups = search()
    assert len(groups) == size
    check_hunt_lines(out, groups)
    if argv[0] == "cross":
        assert [g.n for g in groups] == [5187440176]


def test_count_distinct_line_is_the_library_count(capsys):
    # 10^30 lies past 2^63, so the count and search read build's lists
    code, out, err = run_cli(capsys, "count", "--k", "8", "--x", "1e30", "--distinct")
    assert (code, err) == (0, "")
    values = [*count_up_to(10 ** 30, 8), distinct_count(10 ** 30, 8)]
    assert out == "\t".join(map(str, values)) + "\n"


def test_cross_requires_two_exponents(capsys):
    code, _, err = run_cli(capsys, "cross", "--ks", "2", "--x", "1e5")
    assert code == 1
    assert "two distinct exponents" in err


def test_cross_checks_every_exponent_before_building_a_prefix(capsys, monkeypatch):
    # exponents are searched in ascending order, so a bad last one must
    # be refused before the first one's prefix is built
    import primesums.duplicates as duplicates

    def refused(x, k):
        raise AssertionError("a prefix was built before every exponent was checked")

    monkeypatch.setattr(duplicates, "_search_prefix", refused)
    code, out, err = run_cli(capsys, "cross", "--ks", "2,70", "--x", "1e16")
    assert (code, out) == (1, "")
    assert err == "usage error: power k must be in 2..64, got 70\n"
    with pytest.raises(ValueError, match=r"^power k must be in 2\.\.64, got 70$"):
        duplicates.find_cross_power_duplicates(10 ** 14, {2, 70})


COMMAND_HELP = {
    "enumerate": "stream one line per representation: n, start prime",
    "count": "one summary line: x, k, count, max run length, primes",
    "table": "decade rows from --from to --to: x, count, upper, lower",
    "bounds": "raw bound formulas at one point: constant, main terms",
    "duplicates": "values with several runs for one exponent, expanded",
    "cross": "values representable under several exponents, expanded",
}


def test_missing_command_is_a_usage_error(capsys):
    assert run_cli(capsys) == (1, "", "usage error: the following arguments are required: command\n")


def test_unknown_command_names_every_command(capsys):
    code, out, err = run_cli(capsys, "bogus")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: argument command: invalid choice: 'bogus'")
    choices = err.partition("(choose from ")[2]
    assert all(name in choices for name in COMMAND_HELP)


@pytest.mark.parametrize("argv", [[], *([name] for name in COMMAND_HELP)],
                         ids=["top", *COMMAND_HELP])
def test_help_exits_zero(capsys, monkeypatch, argv):
    # argparse wraps its help to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    if argv:
        assert out.startswith(f"usage: primesums {argv[0]} [-h]")
        assert "--out PATH" in out
    else:
        # every command with its help line, however argparse wraps them
        words = " ".join(out.split())
        for name, help_text in COMMAND_HELP.items():
            assert f" {name} {help_text} " in f" {words} "


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "count", "--k", "1", "--x", "10")[0] == 1
    assert run_cli(capsys, "count", "--k", "2", "--x", "abc")[0] == 1
    assert run_cli(capsys, "count", "--k", "2")[0] == 1
    assert run_cli(capsys, "bogus")[0] == 1
    assert run_cli(capsys, "count", "--k", "2", "--x", "1e40")[0] == 1


def test_huge_exponent_is_a_usage_error_naming_the_input(capsys):
    # refused before 10**exponent, which alone takes seconds, is computed
    code, out, err = run_cli(capsys, "count", "--k", "2", "--x", "1e10000000")
    assert (code, out) == (1, "")
    assert err == "usage error: argument --x: cannot parse '1e10000000': more than 4300 digits\n"
    code, out, err = run_cli(capsys, "count", "--k", "2", "--x", "abc")
    assert (code, out) == (1, "")
    assert err == "usage error: argument --x: cannot parse 'abc': expected digits or <int>e<int>\n"


def test_flag_type_errors_print_their_own_text(capsys):
    code, out, err = run_cli(capsys, "count", "--k", "0", "--x", "10")
    assert (code, out) == (1, "")
    assert err == "usage error: argument --k: expected a positive integer, got 0\n"
    code, out, err = run_cli(capsys, "cross", "--ks", "a,2", "--x", "10")
    assert (code, out) == (1, "")
    assert err == "usage error: argument --ks: expected a comma-separated exponent list, got 'a,2'\n"


LONG = "1" * 4301  # one digit past what int() reads from a string


@pytest.mark.parametrize("argv, err", [
    (["count", "--k", "2", "--x", "\u00b2"],
     "argument --x: cannot parse '\u00b2': expected digits or <int>e<int>"),
    (["count", "--k", "2", "--x", "1e\u00b2"],
     "argument --x: cannot parse '1e\u00b2': expected digits or <int>e<int>"),
    (["cross", "--ks", "2,\u00b3", "--x", "10"],
     "argument --ks: expected a comma-separated exponent list, got '2,\u00b3'"),
    (["count", "--k", "2", "--x", LONG],
     f"argument --x: cannot parse '{LONG}': more than 4300 digits"),
    (["count", "--k", "2", "--x", LONG + "e1"],
     f"argument --x: cannot parse '{LONG}e1': more than 4300 digits"),
    (["count", "--k", "2", "--x", "1e" + LONG],
     f"argument --x: cannot parse '1e{LONG}': more than 4300 digits"),
    (["cross", "--ks", f"2,{LONG}", "--x", "10"],
     f"argument --ks: cannot parse '{LONG}': more than 4300 digits"),
], ids=["superscript-x", "superscript-exponent", "superscript-ks", "long-x", "long-mantissa",
        "long-exponent", "long-ks"])
def test_number_parsers_refuse_what_int_cannot_read(capsys, argv, err):
    # str.isdigit passes superscripts and int() reads at most 4300
    # digits; each is refused in the parser's own words
    assert run_cli(capsys, *argv) == (1, "", f"usage error: {err}\n")


def test_resource_errors_exit_two(capsys):
    # sieving to 10^15 would need half a petabyte of flags; the budget
    # guard turns that into a clean resource failure
    code, out, err = run_cli(capsys, "count", "--k", "2", "--x", "1e30")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_table_prints_rows_before_the_first_failing_one(capsys, monkeypatch):
    # each row in budget and in range is printed; the first row that is
    # not ends the table with its own error and exit status
    monkeypatch.setattr(sieve, "BUDGET_BYTES", 10 ** 4)
    code, out, err = run_cli(capsys, "table", "--k", "2", "--from", "1e3", "--to", "1e12")
    assert code == 2
    assert out == "".join("\t".join(map(str, row)) + "\n" for row in COUNT_TABLES[2][:6])
    assert err == "error: sieve to 31622 needs 15811 bytes, budget is 10000\n"
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "table", "--k", "64", "--from", "1e36", "--to", "1e40")
    assert code == 1
    assert out == "".join(f"{10 ** e}\t3\t8\t4\n" for e in (36, 37, 38))
    assert err == f"usage error: x must be an unsigned 128-bit integer, got {10 ** 39}\n"


def test_bare_memory_error_gets_a_message(capsys, monkeypatch):
    def exhausted(args, sink):
        raise MemoryError()

    monkeypatch.setattr(cli, "_run_count", exhausted)
    code, out, err = run_cli(capsys, "count", "--k", "2", "--x", "100")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_table_and_count_stream_without_the_prefix_array(capsys, monkeypatch):
    # table, plain count and enumerate read primes straight from the
    # sieve: none builds the prime list or the prefix array
    def refused(*args, **kwargs):
        raise AssertionError("table, count and enumerate must not build the prefix array")

    # the CLI loads the hunt only for the commands that hunt; loaded
    # here, its build is guarded too
    import primesums.duplicates  # noqa: F401

    for name, module in list(sys.modules.items()):
        if name == "primesums" or name.startswith("primesums."):
            for attr in ("build", "build_from_primes", "primes_up_to"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refused)
    code, out, _ = run_cli(capsys, "table", "--k", "3", "--from", "1e3", "--to", "1e20")
    assert code == 0
    assert [tuple(int(v) for v in line.split("\t")) for line in out.splitlines()] \
        == COUNT_TABLES[3]
    code, out, _ = run_cli(capsys, "count", "--k", "2", "--x", "1e12")
    assert code == 0
    assert out == "1000000000000\t2\t8867094\t3356\t78498\n"
    code, out, _ = run_cli(capsys, "enumerate", "--k", "3", "--x", "1e9")
    assert code == 0
    assert out == "".join(f"{n}\t{p}\n" for n, p, _ in direct_sums(10 ** 9, 3))
    # the guard holds: a hunt from 2^63 on still builds the lists
    with pytest.raises(AssertionError):
        main(["count", "--k", "10", "--x", "1e38", "--distinct"])


def test_out_file_unwritable_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "out.tsv"
    code, _, err = run_cli(capsys, "count", "--k", "2", "--x", "100",
                           "--out", str(target))
    assert code == 2
    assert err != ""


def test_failed_run_leaves_no_out_file(capsys, tmp_path):
    target = tmp_path / "out.tsv"
    for argv in (["count", "--k", "1", "--x", "100"],
                 ["count", "--k", "2", "--x", "1e40"],
                 ["table", "--k", "2", "--from", "0", "--to", "1e3"]):
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 1
        assert out == "" and err.startswith("usage error")
        assert not target.exists()


def test_interrupted_run_leaves_no_partial_out_file(monkeypatch, tmp_path):
    def interrupted(args, sink):
        sink.write("4\t2\n")
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_run_enumerate", interrupted)
    target = tmp_path / "out.tsv"
    with pytest.raises(KeyboardInterrupt):
        main(["enumerate", "--k", "2", "--x", "100", "--out", str(target)])
    assert not target.exists()


def test_failed_run_keeps_symlinked_out(capsys, monkeypatch, tmp_path):
    # only a regular file the run opened is removed, never a link such as
    # /dev/stdout or what it points at
    plain = tmp_path / "plain.tsv"
    plain.write_text("kept\n")
    for target in ("/dev/null", plain):
        link = tmp_path / "out.tsv"
        link.symlink_to(target)
        code, _, err = run_cli(capsys, "count", "--k", "1", "--x", "100",
                               "--out", str(link))
        assert code == 1 and err.startswith("usage error")
        assert link.is_symlink() and link.resolve().exists()
        link.unlink()

    def broken_pipe(args, sink):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "_run_enumerate", broken_pipe)
    # only a broken stdout is pointed at /dev/null, never a caller's
    # stdout when the broken pipe was --out
    discarded = []
    monkeypatch.setattr(cli, "_discard_stdout", lambda: discarded.append(True))
    link = tmp_path / "out.tsv"
    link.symlink_to("/dev/null")
    assert main(["enumerate", "--k", "2", "--x", "100", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert discarded == []
    assert main(["enumerate", "--k", "2", "--x", "100"]) == 0
    assert discarded == [True]


def test_removed_flags_are_usage_errors(capsys, tmp_path):
    target = tmp_path / "out.tsv"
    for argv in (["enumerate", "--k", "2", "--x", "1e5", "--workers", "2"],
                 ["duplicates", "--k", "2", "--x", "1e5", "--spill-dir", "d"],
                 ["count", "--k", "2", "--x", "1e5", "--spill-dir", "d"],
                 ["cross", "--ks", "2,3", "--x", "1e5", "--spill-dir", "d"],
                 # expanded sums have no columns, so --format is tabular-only
                 ["duplicates", "--k", "2", "--x", "1e5", "--format", "csv"],
                 ["cross", "--ks", "2,3", "--x", "1e5", "--format", "tsv"]):
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err
        assert not target.exists()


# flags of every command, abbreviations of some, unknown ones and help
FLAGS = ["--k", "--x", "--from", "--to", "--ks", "--format", "--out", "--distinct",
         "--fr", "--t", "--dist", "--form", "--o", "--bogus", "--workers", "-h", "--help"]
VALUES = ["1e3", "2", "10", "abc", "-1", "-", "", "1e10000000", "2,3", "tsv", "csv", "xml", "0"]
# a value each command option accepts, so that many drawn lines are plain
GOOD = {"--k": "2", "--x": "1e3", "--from": "1e3", "--to": "1e4", "--ks": "2,3"}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", None]))
    argv = [] if command is None else [command]
    if command in cli.COMMANDS and draw(st.booleans()):
        # the command's own options in any order, each with a drawn value
        for flag, _, convert, _ in draw(st.permutations(cli.COMMANDS[command][3])):
            if convert is None:
                argv.append(flag)
            elif draw(st.integers(0, 3)):  # three times in four, a value it accepts
                argv += [flag, GOOD[flag]]
            else:
                argv += [flag, draw(st.sampled_from(VALUES))]
    pieces = st.one_of(
        st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
        st.tuples(st.sampled_from(FLAGS)),  # a store-true flag, or a missing value
        st.tuples(st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(VALUES))),
        st.tuples(st.sampled_from(VALUES)),
    )
    for piece in draw(st.lists(pieces, max_size=3)):
        argv += piece
    return argv


def argparse_args(argv):
    """vars() of argparse's namespace for argv; None where it refuses the line or prints help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except (cli.UsageError, SystemExit):
            return None


@settings(deadline=None)
@given(command_lines())
@example("table --k 2 --fr 1e3 --to 1e4".split())
@example("count --k=2 --x=1e3".split())
@example("count --k 2 --x 10 --distinct --distinct".split())
@example("count --k 2 --x 10 --dist".split())
@example("enumerate --k 2 --x 10 --out -".split())
@example("count --k 2 --x 10 --format xml".split())
def test_plain_read_is_argparse_or_declines(argv):
    # the direct read gives argparse's namespace, runner included, or
    # leaves the line to argparse; wherever argparse refuses, it declines
    direct = cli._plain_args(argv)
    if direct is not None:
        assert vars(direct) == argparse_args(argv)


@pytest.mark.parametrize("line, plain", [
    ("count --k 2 --x 1e3", True),
    ("count --distinct --format csv --x 1e3 --k 2 --out o.csv", True),
    ("table --to 1e38 --from 1e20 --k 20", True),
    ("cross --ks 2,3 --x 1e13", True),
    ("duplicates --k 2 --x 1e12 --out o.txt", True),
    ("bounds --k 2 --x 1e15 --format tsv", True),
    ("table --k 2 --fr 1e3 --to 1e4", False),
    ("count --k=2 --x=1e3", False),
    ("count --k 2 --x 10 --distinct --distinct", False),
    ("count --k 2 --x 10 --dist", False),
    ("enumerate --k 2 --x 10 --out -", False),
    ("count --k 2 --x 1e40", True),  # a usage error, but of the run, not the flags
    ("count --k 2 --x abc", False),
    ("count --k 2", False),
    ("count --k 2 --x", False),
    ("duplicates --k 2 --x 10 --format csv", False),
    ("count --k 2 --x 10 -h", False),
    ("--help", False),
])
def test_plain_lines_are_read_directly(line, plain):
    assert (cli._plain_args(line.split()) is not None) == plain


def run_module(module, argv, stdout=subprocess.PIPE):
    """python -m module argv, stdout block-buffered as it is by default in a pipe or file."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("module", ["primesums", "primesums.cli"])
@pytest.mark.parametrize("argv, status", [
    (["count", "--k", "3", "--x", "1000"], 0),
    (["table", "--k", "2", "--from", "1e3", "--to", "1e9", "--format", "csv"], 0),
    (["count", "--k", "0", "--x", "1000"], 1),
    (["count", "--k", "2", "--x", "1e30"], 2),
    # past stdout's buffer, so the file is complete only if it was closed
    (["enumerate", "--k", "2", "--x", "1e7", "--format", "csv", "--out"], 0),
    # lines argparse reads in place of the direct read
    (["table", "--k", "2", "--fr", "1e3", "--to", "1e4"], 0),
    (["count", "--k=2", "--x=1e3"], 0),
    (["enumerate", "--help"], 0),
], ids=["count", "table-csv", "usage-error", "over-budget", "out", "abbreviated",
        "equals", "help"])
def test_module_entry_point(capsys, monkeypatch, tmp_path, module, argv, status):
    # the process ends with os._exit once main() returns, so each way of
    # starting the CLI must give the bytes and status of main() in process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal's width
    target = tmp_path / "out.csv"
    if argv[-1] == "--out":
        argv = [*argv, str(target)]
    try:
        code, out, err = run_cli(capsys, *argv)
    except SystemExit as exit_info:  # --help
        code = exit_info.code
        out, err = capsys.readouterr()
    assert code == status
    written = target.read_bytes() if target.exists() else None
    target.unlink(missing_ok=True)
    proc = run_module(module, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    if written is not None:
        assert len(written) > 8192
        assert target.read_bytes() == written


def test_a_profiled_run_writes_its_report():
    # os._exit would end the process before cProfile prints its stats
    proc = run_module("cProfile", ["-m", "primesums", "count", "--k", "2", "--x", "1e6"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"1000000\t2\t1998\t54\t168\n")
    assert b"function calls" in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, status", [
    (["primesums", "count", "--k", "2", "--x", "100"], 2),
    (["primesums", "enumerate", "--k", "2", "--x", "1e8"], 2),
    (["primesums", "count", "--k", "2", "--x", "100", "--out", "/dev/full"], 2),
    # cProfile ends with status 0 whatever its program's, after a normal exit
    (["cProfile", "-m", "primesums", "count", "--k", "2", "--x", "100"], 0),
], ids=["count", "enumerate", "out", "profiled"])
def test_a_full_disk_is_reported_once(argv, status):
    # what stdout still holds after the failed write is not flushed again
    # at exit, which would print "Exception ignored" and exit 120
    with open("/dev/full", "wb") as full:
        proc = run_module(argv[0], argv[1:], stdout=full)
    assert (proc.returncode, proc.stderr) == (status, b"error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv, line", [
    (["table", "--k", "2", "--from", "1e3", "--to", "1e15"], b"1000\t37\t52\t34\n"),
    (["enumerate", "--k", "2", "--x", "1e9"], b"4\t2\n"),
], ids=["table", "enumerate"])
def test_a_reader_that_stops_early_ends_the_run_quietly(argv, line):
    # table | head -1: each row is flushed as it is made, so the second
    # meets the closed pipe; what stdout still holds goes to /dev/null,
    # not to "Exception ignored" and exit 120 at shutdown.  The stream
    # is block-buffered, as it is by default in a pipe.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "primesums", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), first, err) == (0, line, b"")


# prepended to each snippet: in that interpreter, importing anything outside
# the standard library and primesums raises
STDLIB_ONLY = """
import sys

class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in sys.stdlib_module_names | {"primesums"}:
            raise ImportError(f"{name} is outside the standard library")

sys.meta_path.insert(0, StdlibOnly())
"""


def run_stdlib_only(code):
    return subprocess.run([sys.executable, "-c", STDLIB_ONLY + code],
                          capture_output=True, text=True)


@pytest.mark.parametrize("code", [
    "import primesums",
    "from primesums.cli import main; main(['table', '--k', '3', '--from', '1e3', '--to', '1e6'])",
    "from primesums.cli import main; main(['bounds', '--k', '2', '--x', '1e15'])",
    "from primesums.cli import main; main(['enumerate', '--k', '2', '--x', '1e6'])",
    "from primesums.cli import main; main(['count', '--k', '2', '--x', '1e6'])",
], ids=["import", "table", "bounds", "enumerate", "count"])
def test_only_stdlib_imported_outside_duplicate_search(code):
    # numpy costs every enumerate and table process 0.1-0.2 s, and the
    # bound formulas need nothing beyond the standard library's decimal
    proc = run_stdlib_only(code)
    assert proc.returncode == 0, proc.stderr


# runs main() on its arguments, then prints its status and which of
# argparse and gettext it loaded
IMPORT_PROBE = """
import sys
from primesums.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exit_info:
    status = exit_info.code
print(status, *sorted({"argparse", "gettext"} & set(sys.modules)))
"""


@pytest.mark.parametrize("line, last", [
    ("count --k 2 --x 1e3", "0"),
    ("table --k 20 --from 1e20 --to 1e38", "0"),
    ("enumerate --k 2 --x 1e3", "0"),
    ("count --k 2 --x 1e3 --distinct", "0"),
    ("duplicates --k 2 --x 1e5", "0"),
    # a usage error and help are argparse's own
    ("count --k 2", "1 argparse gettext"),
    ("table --help", "0 argparse gettext"),
], ids=["count", "table", "enumerate", "distinct", "duplicates", "usage-error", "help"])
def test_plain_lines_load_no_argparse(line, last):
    # the direct read runs before argparse is imported, and argparse
    # loads only for what it alone handles
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *line.split()],
                          capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == last, proc.stderr


def test_stdlib_only_guard_blocks_numpy():
    proc = run_stdlib_only("from primesums import find_duplicates; find_duplicates(100, 2)")
    assert proc.returncode != 0
    assert "numpy is outside the standard library" in proc.stderr
