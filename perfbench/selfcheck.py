"""Quick check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the repository root; takes about a minute.  It checks that
  - every workload runs at toy size, untraced and traced, and prints
    exactly the metric names and units that BENCHMARK.json declares;
  - each workload's output check accepts the expected output and
    rejects a corrupted one, a wrong exit status and a leftover file;
  - the stored digest of the full-size enumerate output matches the
    independent oracle in reference.py;
  - run.py exits nonzero, printing no result, when the program is
    missing.
Exits 0 when every check passes.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import reference  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def run_benchmark(cwd: Path, name: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_emitted(spec: dict) -> None:
    expect(set(spec["workloads"]) <= set(workloads.NAMES), "BENCHMARK.json lists runnable workloads")
    for name in workloads.NAMES:
        for trace in (0, 1):
            done = run_benchmark(ROOT, name, trace)
            label = f"{name} trace={trace}"
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, f"{label}: result line ({done.stderr.strip()[-300:]})")
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(done.returncode == 0 and set(result) == RESULT_KEYS,
                   f"{label}: exit 0 and result keys {sorted(RESULT_KEYS)}")
            expect(units == spec[trace], f"{label}: every declared metric, with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} attempted, none failed")


def _output(data: bytes, returncode: int = 0) -> workloads.Output:
    return workloads.Output(returncode, len(data), hashlib.sha256(data).hexdigest(), data)


def _expected_toy_outputs() -> dict:
    tables = workloads.workload("paper-tables", "toy")
    table_outputs = []
    for _, args in tables.invocations:
        k, lo, hi = int(args[2]), int(args[4]), int(args[6])
        rows = [r for r in reference.COUNT_TABLES[k] if lo <= r[0] <= hi]
        table_outputs.append("".join("\t".join(map(str, r)) + "\n" for r in rows).encode())
    dup = reference.duplicate_lines(2 * 10**7)
    enum = "".join(reference.enumeration_lines(10**6, 2)).encode()
    return {
        "dup-sq": [dup],
        "enum-sq": [enum],
        "squares": [enum, dup],
        "cross-capped": [reference.cross_lines(10**5)],
        "paper-tables": table_outputs,
    }


def _corrupt(data: bytes) -> bytes:
    """Change the last digit of the first line: still well formed, now wrong."""
    end = data.index(b"\n")
    i = max(j for j in range(end) if data[j : j + 1].isdigit())
    digit = b"%d" % ((int(data[i : i + 1]) + 1) % 10)
    return data[:i] + digit + data[i + 1 :]


def check_checks() -> None:
    for name, outputs in _expected_toy_outputs().items():
        check = workloads.workload(name, "toy").check
        good = [_output(d) for d in outputs]
        v = check(good, [])
        expect(v.failed == 0 and v.wrong == 0, f"{name}: expected output passes")
        bad = [_output(_corrupt(outputs[0]))] + good[1:]
        v = check(bad, [])
        expect(v.failed >= 1 and v.wrong >= 1, f"{name}: corrupted output is wrong and fails")
        v = check([_output(outputs[0], returncode=1)] + good[1:], [])
        expect(v.failed >= 1, f"{name}: nonzero exit status fails")
        v = check(good, ["leftover.run"])
        expect(v.failed >= 1, f"{name}: leftover temp file fails")
    check = workloads.workload("paper-tables", "toy").check
    outputs = _expected_toy_outputs()["paper-tables"]
    truncated = outputs[:2] + [outputs[2].split(b"\n", 1)[1]] + outputs[3:]
    v = check([_output(d) for d in truncated], [])
    expect((v.failed, v.wrong) == (1, 0), "paper-tables: a missing row fails and is not wrong")


def check_digest() -> None:
    digest = reference.enumeration_digest(10**10, 2)
    expect(digest == (reference.ENUM_SQ_DIGEST, reference.ENUM_SQ_BYTES),
           "enum-sq digest matches the oracle")


def check_without_program() -> None:
    bare = ROOT / ".perfbench" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark(bare, workloads.NAMES[0], 0)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        expect(done.returncode != 0 and not last[0].startswith("{"),
               "without the program: nonzero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_checks()
    check_digest()
    check_without_program()
    check_emitted(declared())
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
