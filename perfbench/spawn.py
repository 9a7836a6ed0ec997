"""Launch one command, wait for it, and write how it ran to a JSON file.

    python3 -S spawn.py RESULT STDERR TIMEOUT_S ARGV...

The command inherits this process's stdout and writes its stderr to
STDERR.  RESULT receives the launch and exit times (time.perf_counter,
which is the system-wide monotonic clock, so the caller can compare
them with its own readings), the exit status, and the CPU time and
peak RSS that os.wait4 reports for the command alone.

run.py starts this small process for every command instead of starting
the command itself.  A new process inherits the resident-set
high-water mark of the one that started it, so a command started
straight from run.py would report at least run.py's own peak RSS.
"""

import json
import os
import signal
import sys
import time


def main(result_path, stderr_path, timeout_s, *argv):
    actions = [(os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], list(argv), os.environ, file_actions=actions)
    # hand stdout over to the command alone: the reader's end-of-file
    # then means the command has exited
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(float(timeout_s)))
    _, status, usage = os.wait4(pid, 0)
    ended = time.perf_counter()
    signal.alarm(0)
    with open(result_path, "w", encoding="ascii") as out:
        json.dump({
            "started": started,
            "ended": ended,
            "returncode": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
        }, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
