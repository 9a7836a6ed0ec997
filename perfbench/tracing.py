"""Spans around the calls into each primesums layer, recorded from outside.

The program is not changed: install() replaces each traced public
function, in every primesums module that holds a reference to it, with
a wrapper that records one span per call.  A span has the job id, its
own id, the layer, the function name, start and end (perf_counter
seconds), the id of the span it was called under, and counts taken at
the same boundary.  Spans stay in memory until dump() writes them.

enumerate_sums returns a generator that its caller drains between
other work.  Its span runs from the call to exhaustion, but its
`busy` time counts only the time spent inside the generator, so the
caller's own formatting and writing stay out of it.  Every other span
is busy for its whole duration.

layer_metrics() turns the spans of one job into the per-layer metrics.
A span's self time is its busy time minus the busy time of the spans
called under it.
"""

import functools
import importlib
import inspect
import json
import math
import resource
import sys
import time

# (layer, module defining the function, function); the prefix layer
# also owns integer_kth_root, which the prefix build calls once per build
TARGETS = (
    ("prefix", "arith", "integer_kth_root"),
    ("sieve", "sieve", "primes_up_to"),
    ("prefix", "prefix", "build_from_primes"),
    ("counting", "counting", "count_sums"),
    ("enumeration", "enumeration", "enumerate_sums"),
    ("enumeration", "enumeration", "length_histogram"),
    ("cli", "cli", "run"),
    ("duplicates", "duplicates", "find_duplicates_from_prefix"),
    ("duplicates", "duplicates", "find_cross_power_duplicates_from_prefixes"),
    ("bounds", "bounds", "floor_upper_bound"),
    ("bounds", "bounds", "floor_lower_bound"),
)

_clock = time.perf_counter


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Recorder:
    """Collects the spans of one job in one process."""

    def __init__(self, job: str):
        self.job = job
        self.spans = []
        self.stack = []
        self.missing = []
        self._deferred = []  # (span, counter, arguments, result), counted at dump time

    def install(self) -> None:
        for _, module, _ in TARGETS:
            try:
                importlib.import_module(f"primesums.{module}")
            except ImportError:
                pass  # reported as missing below
        modules = [m for name, m in sys.modules.items()
                   if name == "primesums" or name.startswith("primesums.")]
        for layer, module, name in TARGETS:
            original = getattr(sys.modules.get(f"primesums.{module}"), name, None)
            if original is None:
                self.missing.append(f"{module}.{name}")
                continue
            wrapper = self._wrap(layer, name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _open(self, layer: str, name: str) -> dict:
        span = {
            "job": self.job,
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "layer": layer,
            "name": name,
            "start": _clock(),
            "end": None,
            "busy": None,
            "counts": {},
        }
        self.spans.append(span)
        return span

    def _wrap(self, layer, name, original):
        signature = inspect.signature(original)
        counter = _COUNTERS.get(name)
        if inspect.isgeneratorfunction(original):
            return self._wrap_generator(layer, name, original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            self.stack.append(span)
            rss_before = _maxrss_mb() if layer == "duplicates" else None
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = _clock()
                span["busy"] = span["end"] - span["start"]
                self.stack.pop()
            if rss_before is not None:
                span["counts"]["rss_growth_mb"] = _maxrss_mb() - rss_before
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._deferred.append((span, counter, bound.arguments, result))
            return result

        return traced

    def _wrap_generator(self, layer, name, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            return self._drain(span, original(*args, **kwargs))

        return traced

    @staticmethod
    def _drain(span, items):
        busy = 0.0
        count = 0
        try:
            while True:
                started = _clock()
                try:
                    item = next(items)
                except StopIteration:
                    busy += _clock() - started
                    return
                busy += _clock() - started
                count += 1
                yield item
        finally:
            items.close()
            span["end"] = _clock()
            span["busy"] = busy
            span["counts"]["reps"] = count

    def dump(self, path: str) -> None:
        """Finish the counts and write every span as one JSON document."""
        now = _clock()
        for span in self.spans:
            if span["end"] is None:  # still open: the job ended inside it
                span["end"] = now
                span["busy"] = now - span["start"]
                span["counts"]["unfinished"] = 1
        for span, counter, arguments, result in self._deferred:
            span["counts"].update(counter(arguments, result))
        with open(path, "w", encoding="ascii") as out:
            json.dump({"job": self.job, "missing": self.missing, "spans": self.spans}, out)


def _sieve_counts(arguments, result):
    from primesums.sieve import sieve_bytes_needed

    return {"primes": len(result), "flag_bytes": sieve_bytes_needed(arguments["limit"])}


def _duplicate_counts(arguments, result):
    """Representations sorted, and the spill files and bytes they imply.

    The spill figures are computed, not observed: a prefix whose
    representation count reaches the in-memory cap is written out in
    sorted runs of at least `cap` records of RECORD_SIZE bytes.
    """
    from primesums import duplicates
    from primesums.counting import count_sums

    original_count = getattr(count_sums, "__wrapped__", count_sums)
    prefixes = [arguments["ps"]] if "ps" in arguments else list(arguments["ps_by_k"].values())
    cap = arguments["max_in_memory"]
    record = getattr(duplicates, "RECORD_SIZE", None)
    reps = files = spilled = 0
    for ps in prefixes:
        n = original_count(ps).count
        reps += n
        if record is not None and n >= cap:
            files += math.ceil(n / cap)
            spilled += n * record
    return {
        "reps": reps,
        "groups": len(result),
        "members": sum(len(g.members) for g in result),
        "spill_files": files,
        "spill_bytes": spilled,
    }


_COUNTERS = {
    "primes_up_to": _sieve_counts,
    "build_from_primes": lambda arguments, result: {"terms": len(result.f) - 1},
    "count_sums": lambda arguments, result: {"reps": result.count},
    "length_histogram": lambda arguments, result: {"reps": sum(result.values())},
    "find_duplicates_from_prefix": _duplicate_counts,
    "find_cross_power_duplicates_from_prefixes": _duplicate_counts,
}


def self_times(spans: list) -> dict:
    """Span id -> busy time minus the busy time of its direct children."""
    own = {s["id"]: s["busy"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["busy"]
    return own


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(docs: list) -> dict:
    """Per-layer metrics of one job, from the span documents of its invocations.

    Layers the job never calls read 0.
    """
    busy = {}
    counts = {}
    cli_self = 0.0
    for doc in docs:
        own = self_times(doc["spans"])
        for s in doc["spans"]:
            # length_histogram is reported on its own, as enumeration.hist_s
            key = s["name"] if s["name"] == "length_histogram" else s["layer"]
            busy[key] = busy.get(key, 0.0) + s["busy"]
            counts[(key, "calls")] = counts.get((key, "calls"), 0) + 1
            for name, value in s["counts"].items():
                counts[(key, name)] = counts.get((key, name), 0) + value
            if s["layer"] == "cli":
                cli_self += own[s["id"]]

    def seconds(key):
        return busy.get(key, 0.0)

    def count(key, name):
        return counts.get((key, name), 0)

    return {
        "sieve.s": seconds("sieve"),
        "sieve.primes": count("sieve", "primes"),
        "sieve.flag_bytes": count("sieve", "flag_bytes"),
        "prefix.s": seconds("prefix"),
        "prefix.terms": count("prefix", "terms"),
        "prefix.terms_per_s": _rate(count("prefix", "terms"), seconds("prefix")),
        "counting.s": seconds("counting"),
        "counting.reps": count("counting", "reps"),
        "counting.reps_per_s": _rate(count("counting", "reps"), seconds("counting")),
        "enumeration.s": seconds("enumeration"),
        "enumeration.reps": count("enumeration", "reps"),
        "enumeration.reps_per_s": _rate(count("enumeration", "reps"), seconds("enumeration")),
        "enumeration.hist_s": seconds("length_histogram"),
        "cli.s": seconds("cli"),
        "cli.self_s": cli_self,
        "duplicates.s": seconds("duplicates"),
        "duplicates.reps": count("duplicates", "reps"),
        "duplicates.reps_per_s": _rate(count("duplicates", "reps"), seconds("duplicates")),
        "duplicates.groups": count("duplicates", "groups"),
        "duplicates.useful_ratio": _rate(count("duplicates", "members"), count("duplicates", "reps")),
        "duplicates.rss_growth_mb": count("duplicates", "rss_growth_mb"),
        "duplicates.spill_files": count("duplicates", "spill_files"),
        "duplicates.spill_bytes": count("duplicates", "spill_bytes"),
        "bounds.s": seconds("bounds"),
        "bounds.calls": count("bounds", "calls"),
        "bounds.s_per_call": _rate(seconds("bounds"), count("bounds", "calls")),
    }
