"""The host's speed, measured with a fixed pure-Python task.

The host the benchmark was sized on runs the same Python code up to 2x
faster or slower from one few-second stretch to the next, and the CPU
time of a process changes with its wall time.  run.py therefore times
this task right before and right after every program invocation, and
reports the invocation's times at a reference speed:

    reported = measured * REF_S / mean(calibration before, calibration after)

The task imports nothing from the program, so a change to the program
cannot move it.  It mixes what the workloads do: integer arithmetic in
an interpreted loop, a sort of a list of ints, string formatting and
hashing.
"""

import hashlib
import random
import time

# the task's time on a host at reference speed, in seconds: reported
# times are in seconds at that speed
REF_S = 0.08
VALUES = 50_000


def _task() -> tuple:
    rng = random.Random(12345)
    values = [rng.getrandbits(40) for _ in range(VALUES)]
    values.sort()
    text = "".join([f"{v}\t{v % 97}\t{i}\n" for i, v in enumerate(values)])
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    acc = 0
    for v in values:
        acc = (acc + v * v) % 1000003
    return digest, acc


def seconds() -> float:
    """Wall time of one run of the task in this process."""
    started = time.perf_counter()
    _task()
    return time.perf_counter() - started
