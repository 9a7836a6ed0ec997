"""Entry point for the benchmark's child processes.

    child.py setup X K                  build prefix sums for (x, k), print "ready"
    child.py cross X KS CAP SPILL       the cross-power job, one line per group
    child.py trace SPANS JOB cli ARGS   the CLI, with every layer call traced
    child.py trace SPANS JOB cross ...  the cross-power job, traced
    child.py trace SPANS JOB hist X K   build, then a traced length_histogram

The untraced modes import nothing from the benchmark, so what they
time is interpreter start, `import primesums` and the job alone.
"""

import sys

sys.dont_write_bytecode = True


def _setup(x, k):
    import primesums

    primesums.build(int(x), int(k))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def _cross(x, ks, cap, spill):
    import primesums

    groups = primesums.find_cross_power_duplicates(
        int(x), {int(k) for k in ks.split(",")}, max_in_memory=int(cap), spill_dir=spill
    )
    for g in groups:
        fields = " ".join(f"{m.k}:{m.start_prime}:{m.length}" for m in g.members)
        sys.stdout.write(f"{g.n} {fields}\n")
    sys.stdout.flush()
    return 0


def _hist(x, k):
    import primesums

    primesums.length_histogram(primesums.build(int(x), int(k)))
    return 0


def _trace(spans_path, job, kind, *args):
    import tracing

    recorder = tracing.Recorder(job)
    recorder.install()
    try:
        if kind == "cli":
            import primesums.cli

            return primesums.cli.main(list(args))
        return JOBS[kind](*args)
    finally:
        recorder.dump(spans_path)


JOBS = {"setup": _setup, "cross": _cross, "hist": _hist, "trace": _trace}


if __name__ == "__main__":
    sys.exit(JOBS[sys.argv[1]](*sys.argv[2:]))
