"""Repeat benchmark runs over seeds and summarise each metric's spread.

Run from the repository root, e.g.

    python3 perfbench/sweep.py --workloads train_short,train_long --seeds 1-10 \
        --seconds 12 --trace 0 --out sweep.json

Runs are made one at a time, each in its own process. For every workload
and metric the summary gives the median and the quartile spread
(Q3 - Q1) / median, with quartiles from statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="N or N-M")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900, check=False)
            wall = time.monotonic() - started
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append((seed, wall, result))
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        names = runs[0][2]["metrics"]
        summary[workload] = {
            "correct": all(r["correct"] for _, _, r in runs),
            "wall_s": summarise([w for _, w, _ in runs]),
            "metrics": {
                name: dict(unit=names[name]["unit"],
                           **summarise([r["metrics"][name]["value"] for _, _, r in runs]))
                for name in names
            },
        }
        for name, s in summary[workload]["metrics"].items():
            print(f"  {name:44s} median={s['median']:.6g} {s['unit']} spread={s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
