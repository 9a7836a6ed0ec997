"""Summarize the run records in .perfbench/results/ across runs.

    python3 perfbench/summarize.py [--out FILE] [RECORD.json ...]

For each workload and trace setting, and each metric, it gives the
number of runs, the median of the run values, the first and third
quartiles (statistics.quantiles with n=4), and the spread: the distance
between the quartiles as a share of the median.  Without arguments it
reads every full-size record in .perfbench/results/.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list) -> dict:
    groups = {}
    for r in records:
        groups.setdefault(f"{r['workload']} trace={r['trace']}", []).append(r)
    out = {}
    for key, runs in sorted(groups.items()):
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["median"] for r in runs]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            metrics[name] = {
                "unit": first["unit"],
                "runs": len(values),
                "median": mid,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / abs(mid) if mid else 0.0,
            }
        attempted = sum(j["attempted"] for r in runs for j in r["jobs"])
        failed = sum(j["failed"] for r in runs for j in r["jobs"])
        out[key] = {
            "seeds": [r["seed"] for r in runs],
            "seconds": sorted({r["seconds"] for r in runs}),
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted if attempted else 0.0,
            "environment": runs[-1]["environment"],
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="*", type=Path)
    parser.add_argument("--out", type=Path, help="also write the summary as JSON")
    args = parser.parse_args(argv)
    paths = args.records or sorted((ROOT / ".perfbench" / "results").glob("*-full-*.json"))
    records = [json.loads(p.read_text()) for p in paths]
    summary = summarize(records)
    for key, s in summary.items():
        print(f"{key}: {len(s['seeds'])} runs, {s['failed']}/{s['attempted']} failed")
        for name, m in s["metrics"].items():
            print(f"  {name:26} {m['median']:>16.6g} {m['unit']:14} spread {m['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
