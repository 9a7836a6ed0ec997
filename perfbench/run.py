"""Run one workload of the primesums benchmark and print its metrics.

    python3 perfbench/run.py --workload squares --seed 1 --seconds 60 --trace 0

Run it from the repository root.  The program is imported from ./src;
nothing is installed.  Workloads are described in workloads.py and
README.md.

One user reproduces tables or hunts duplicates on one machine, one job
at a time, so the load is a closed loop with a single client: each job
starts after the previous one has exited.  Every job runs in a fresh
child process; wall time runs from launch to exit, and CPU time and
peak RSS come from os.wait4 for that child alone.

The paper fixes every input, so the seed has nothing to generate: it
only orders the set-up probes among the jobs.  Jobs are started while
one more of typical length still fits in --seconds (at least two), and
each metric is the median over the run's samples.

The host's speed changes by up to 2x every few seconds, so every time
is reported at a reference speed: a fixed pure-Python calibration task
(calibrate.py) runs right before and right after each program
invocation and set-up probe, and that invocation's times are multiplied
by calibrate.REF_S over the mean of the two calibration times.  The
record keeps the raw times as well.

With --trace 0 the end-to-end metrics are printed.  With --trace 1 the
run alternates untraced jobs with traced ones (tracing.py) and prints
the per-layer metrics and the tracing overhead instead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record, with
every sample and the environment, goes to .perfbench/results/.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_PROBES = 3
# more set-up probes join the rounds while they have taken less than
# this share of the run
SETUP_SHARE = 0.1
MIN_JOBS = 2
KEEP_BYTES = 1 << 20  # stdout beyond this is hashed, not kept
READ_BYTES = 1 << 16
# stop starting jobs once one more could end past this; a run must
# finish within 180 s
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "first_output_s": "s",
    "setup_s": "s",
    "reps_per_s": "1/s",
    "pass_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "sieve.s": "s",
    "sieve.primes": "count",
    "sieve.flag_bytes": "bytes-computed",
    "prefix.s": "s",
    "prefix.terms": "count",
    "prefix.terms_per_s": "1/s",
    "counting.s": "s",
    "counting.reps": "count",
    "counting.reps_per_s": "1/s",
    "enumeration.s": "s",
    "enumeration.reps": "count",
    "enumeration.reps_per_s": "1/s",
    "enumeration.hist_s": "s",
    "cli.s": "s",
    "cli.self_s": "s",
    "cli.bytes": "bytes",
    "duplicates.s": "s",
    "duplicates.reps": "count",
    "duplicates.reps_per_s": "1/s",
    "duplicates.groups": "count",
    "duplicates.useful_ratio": "ratio",
    "duplicates.rss_growth_mb": "MB",
    "duplicates.spill_files": "files-computed",
    "duplicates.spill_bytes": "bytes-computed",
    "duplicates.files_left": "count",
    "bounds.s": "s",
    "bounds.calls": "count",
    "bounds.s_per_call": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark cannot measure: no program, or set-up fails."""


@dataclass
class Finished:
    """One child process, as measured from outside."""

    output: workloads.Output
    wall_s: float
    first_output_s: float  # launch to first stdout byte; wall_s if none
    cpu_s: float
    peak_rss_mb: float
    stderr_tail: str


@dataclass
class Job:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    first_output_s: float
    verdict: workloads.Verdict
    loadavg: tuple
    # the times at reference speed (calibrate.py); the raw times when traced
    wall_ref_s: float
    cpu_ref_s: float
    first_output_ref_s: float
    calibration_s: list  # before each invocation and after the last; empty when traced
    invocation_wall_s: list
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # one document per traced invocation


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            return f.read().strip()
    except OSError:
        return "unavailable"


def spawn(argv: list, env: dict, work: Path) -> Finished:
    """Run argv to completion from the repository root, reading its stdout.

    spawn.py launches the command and reports its times and resource
    use; this process reads the command's stdout.
    """
    result_path = work / "spawn.json"
    stderr_path = work / "stderr.txt"
    result_path.unlink(missing_ok=True)
    digest = hashlib.sha256()
    kept = bytearray()
    size = 0
    first_at = None
    launcher = [sys.executable, "-S", str(HERE / "spawn.py"), str(result_path),
                str(stderr_path), str(CHILD_TIMEOUT_S)] + argv
    # a session of its own, so that one signal stops launcher and command
    proc = subprocess.Popen(launcher, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        fd = proc.stdout.fileno()
        while True:
            chunk = os.read(fd, READ_BYTES)
            if not chunk:
                break
            if first_at is None:
                first_at = time.perf_counter()
            digest.update(chunk)
            size += len(chunk)
            if size <= KEEP_BYTES:
                kept += chunk
        proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or not result_path.exists():
        raise BenchmarkError(f"launcher exited with status {proc.returncode}")
    ran = json.loads(result_path.read_text())
    wall = ran["ended"] - ran["started"]
    tail = stderr_path.read_bytes()[-2000:].decode("utf-8", "replace")
    output = workloads.Output(ran["returncode"], size, digest.hexdigest(),
                              bytes(kept) if size <= KEEP_BYTES else None)
    return Finished(
        output=output,
        wall_s=wall,
        first_output_s=wall if first_at is None else first_at - ran["started"],
        cpu_s=ran["cpu_s"],
        peak_rss_mb=ran["peak_rss_mb"],
        stderr_tail=tail,
    )


class Runner:
    """Runs one workload's jobs and set-up probes in a private work directory."""

    def __init__(self, workload: workloads.Workload, work: Path):
        self.workload = workload
        self.work = work
        self.tmp = work / "tmp"
        self.spill = work / "spill"
        self.spans = work / "spans"
        for d in (self.tmp, self.spill, self.spans):
            d.mkdir(parents=True)
        # children run with the interpreter's defaults whatever the caller
        # set: PYTHONUNBUFFERED, say, makes every output line a write call.
        # TMPDIR points the program's temp files into the work dir, so a
        # leftover is seen and nothing outside the checkout is touched.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(SRC), TMPDIR=str(self.tmp))
        self.jobs_started = 0

    def _argv(self, kind: str, args: tuple, traced: bool, spans: Path) -> list:
        args = [str(self.spill) if a == "{spill}" else a for a in args]
        child = [sys.executable, str(HERE / "child.py")]
        if traced:
            return child + ["trace", str(spans), spans.stem, kind] + args
        if kind == "cli":
            return [sys.executable, "-m", "primesums"] + args
        return child + [kind] + args

    def _leftovers(self) -> list:
        found = []
        for d in (self.tmp, self.spill):
            for dirpath, dirnames, filenames in os.walk(d):
                found += [os.path.join(dirpath, n) for n in filenames + dirnames]
            shutil.rmtree(d)
            d.mkdir()
        return found

    def job(self, traced: bool) -> Job:
        self.jobs_started += 1
        before = loadavg()
        done = []
        span_files = []
        cals = []
        for i, (kind, args) in enumerate(self.workload.invocations):
            spans = self.spans / f"job{self.jobs_started}-{i}.json"
            span_files.append(spans)
            if not traced:
                cals.append(calibrate.seconds())
            done.append(spawn(self._argv(kind, args, traced, spans), self.env, self.work))
        if traced:
            scales = [1.0] * len(done)
        else:
            cals.append(calibrate.seconds())
            scales = [2 * calibrate.REF_S / (a + b) for a, b in zip(cals, cals[1:])]
        leftovers = self._leftovers()
        verdict = self.workload.check([d.output for d in done], leftovers)
        if verdict.failed:
            tails = [d.stderr_tail.strip() for d in done if d.output.returncode != 0]
            print(f"{self.workload.name}: {verdict.failed} of {verdict.attempted} operations"
                  f" failed: {'; '.join(verdict.problems)} {' | '.join(tails)}"[:2000],
                  file=sys.stderr)
        job = Job(
            traced=traced,
            wall_s=sum(d.wall_s for d in done),
            cpu_s=sum(d.cpu_s for d in done),
            peak_rss_mb=max(d.peak_rss_mb for d in done),
            first_output_s=done[0].first_output_s,
            verdict=verdict,
            loadavg=(before, loadavg()),
            wall_ref_s=sum(d.wall_s * f for d, f in zip(done, scales)),
            cpu_ref_s=sum(d.cpu_s * f for d, f in zip(done, scales)),
            first_output_ref_s=done[0].first_output_s * scales[0],
            calibration_s=cals,
            invocation_wall_s=[d.wall_s for d in done],
        )
        if traced:
            docs = [_load(p) for p in span_files if p.exists()]
            job.layers = tracing.layer_metrics(docs)
            job.layers["cli.bytes"] = sum(
                d.output.size for d, (kind, _) in zip(done, self.workload.invocations)
                if kind == "cli")
            job.layers["duplicates.files_left"] = len(leftovers)
            job.layers["missing"] = sorted({m for doc in docs for m in doc["missing"]})
            job.spans = docs
        return job

    def setup_probe(self, x=None, k=None) -> tuple:
        """Launch to "ready": a fresh process has prefix sums for (x, k).

        Returns (seconds, seconds at reference speed, mean calibration
        seconds before and after).
        """
        if x is None:
            x, k = self.workload.setup
        before = calibrate.seconds()
        done = spawn([sys.executable, str(HERE / "child.py"), "setup", str(x), str(k)],
                     self.env, self.work)
        cal = (before + calibrate.seconds()) / 2
        if done.output.returncode != 0 or done.output.data != b"ready\n":
            raise BenchmarkError(f"set-up of ({x}, {k}) failed with exit status"
                                 f" {done.output.returncode}: {done.stderr_tail.strip()[-500:]}")
        return done.first_output_s, done.first_output_s * calibrate.REF_S / cal, cal

    def hist_probe(self) -> float:
        """Time of one traced length_histogram call, in its own child."""
        x, k = self.workload.hist
        spans = self.spans / "hist.json"
        done = spawn([sys.executable, str(HERE / "child.py"), "trace", str(spans), "hist",
                      "hist", str(x), str(k)], self.env, self.work)
        if done.output.returncode != 0 or not spans.exists():
            raise BenchmarkError(f"length_histogram probe failed: {done.stderr_tail[-500:]}")
        return tracing.layer_metrics([_load(spans)])["enumeration.hist_s"]


def _load(path: Path) -> dict:
    with open(path, encoding="ascii") as f:
        return json.load(f)


def median(values):
    return statistics.median(values) if values else 0.0


def summary(values) -> dict:
    values = sorted(values)
    return {"median": median(values), "n": len(values), "min": values[0], "max": values[-1],
            "samples": values}


def measure(runner: Runner, seed: int, seconds: float, trace: bool) -> tuple:
    """Run the schedule; return (jobs, set-up probes).

    Without tracing the run opens with MIN_JOBS jobs and the set-up
    probes, in an order the seed picks; with tracing it opens with one
    untraced and one traced job.  More rounds of the same kind follow
    while one more of typical length still fits in `seconds`; without
    tracing a round also holds a set-up probe while the probes have
    taken less than SETUP_SHARE of the run.
    """
    rng = random.Random(seed)
    started = time.perf_counter()
    jobs = []
    setups = []
    spent = []  # seconds per job, calibration included
    setup_spent = 0.0
    one_round = [False, True] if trace else [False]

    def play(steps):
        nonlocal setup_spent
        rng.shuffle(steps)
        for step in steps:
            began = time.perf_counter()
            if step == "setup":
                setups.append(runner.setup_probe())
                setup_spent += time.perf_counter() - began
            else:
                jobs.append(runner.job(traced=step))
                spent.append(time.perf_counter() - began)

    play(one_round[:] if trace else ["setup"] * SETUP_PROBES + [False] * MIN_JOBS)
    while True:
        elapsed = time.perf_counter() - started
        if elapsed + median(spent) * len(one_round) > seconds:
            break
        if elapsed + max(spent) * len(one_round) > DEADLINE_S:
            break
        extra = [] if trace or setup_spent > SETUP_SHARE * elapsed else ["setup"]
        play(one_round + extra)
    return jobs, setups


def end_to_end(workload, jobs, setups, at_ref_speed=True) -> dict:
    """The end-to-end metrics, times at reference speed or raw."""
    if at_ref_speed:
        wall = [j.wall_ref_s for j in jobs]
        cpu = [j.cpu_ref_s for j in jobs]
        first = [j.first_output_ref_s for j in jobs]
        setup = [ref for _, ref, _ in setups]
    else:
        wall = [j.wall_s for j in jobs]
        cpu = [j.cpu_s for j in jobs]
        first = [j.first_output_s for j in jobs]
        setup = [raw for raw, _, _ in setups]
    return {
        "wall_s": summary(wall),
        "cpu_s": summary(cpu),
        "peak_rss_mb": summary([j.peak_rss_mb for j in jobs]),
        "first_output_s": summary(first),
        "setup_s": summary(setup),
        "reps_per_s": summary([workload.reps / w for w in wall]),
        "pass_ratio": summary([1 - j.verdict.failed / j.verdict.attempted for j in jobs]),
    }


def per_layer(runner, jobs) -> dict:
    traced = [j for j in jobs if j.traced]
    plain = [j for j in jobs if not j.traced]
    layers = {}
    for name in PER_LAYER_UNITS:
        if not name.startswith("trace."):
            layers[name] = summary([j.layers[name] for j in traced])
    if runner.workload.hist is not None:
        layers["enumeration.hist_s"] = summary([runner.hist_probe()])
    traced_wall = summary([j.wall_s for j in traced])
    layers["trace.wall_s"] = traced_wall
    overhead = traced_wall["median"] - median([j.wall_s for j in plain])
    layers["trace.overhead_s"] = summary([overhead])
    return layers


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mpmath": version("mpmath"),
        "numpy": version("numpy"),
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read as files; the checkout may have none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs every workload in seconds (selfcheck.py)")
    args = parser.parse_args(argv)

    if not (SRC / "primesums" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'primesums'}", file=sys.stderr)
        return 2
    workload = workloads.workload(args.workload, args.size)
    work = STATE / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    load_before = loadavg()
    try:
        runner = Runner(workload, work)
        # warm-up, not measured: the first import writes byte code
        runner.setup_probe(4, 2)
        jobs, setups = measure(runner, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            stats = per_layer(runner, jobs)
            units = PER_LAYER_UNITS
        else:
            stats = end_to_end(workload, jobs, setups)
            units = END_TO_END_UNITS
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(j.verdict.attempted for j in jobs)
    failed = sum(j.verdict.failed for j in jobs)
    wrong = sum(j.verdict.wrong for j in jobs)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "loadavg": {"before": load_before, "after": loadavg()},
        "calibration_ref_s": calibrate.REF_S,
        "jobs": [{"traced": j.traced, "wall_s": j.wall_s, "cpu_s": j.cpu_s,
                  "peak_rss_mb": j.peak_rss_mb, "first_output_s": j.first_output_s,
                  "calibration_s": j.calibration_s, "invocation_wall_s": j.invocation_wall_s,
                  "wall_ref_s": j.wall_ref_s,
                  "cpu_ref_s": j.cpu_ref_s, "first_output_ref_s": j.first_output_ref_s,
                  "attempted": j.verdict.attempted, "failed": j.verdict.failed,
                  "wrong": j.verdict.wrong, "problems": list(j.verdict.problems),
                  "loadavg": list(j.loadavg), "layers": j.layers, "spans": j.spans}
                 for j in jobs],
        "setup": [{"s": raw, "ref_s": ref, "calibration_s": cal} for raw, ref, cal in setups],
        "fail_ratio": failed / attempted,
        "metrics": {name: dict(stats[name], unit=unit) for name, unit in units.items()},
        # the same metrics from the raw times, not scaled to reference speed
        "raw_metrics": None if args.trace else {
            name: dict(m, unit=units[name])
            for name, m in end_to_end(workload, jobs, setups, at_ref_speed=False).items()},
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, unit in units.items():
        s = stats[name]
        print(f"{workload.name:13} {name:26} {s['median']:>16.6g} {unit:14} n={s['n']}")
    print(f"{workload.name:13} fail_ratio {failed}/{attempted}; record {out.relative_to(ROOT)}")
    print(json.dumps({"environment": record["environment"], "loadavg": record["loadavg"]}))
    print(json.dumps({
        # wrong values printed with exit status 0; a failure the program
        # reports (error exit, missing rows) counts in `failed` only
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
