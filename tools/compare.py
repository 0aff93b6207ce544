"""Paired benchmark runs of this checkout against REV, with an A/A control.

    python tools/compare.py --base REV --workload train_short --seeds 1-10
    python tools/compare.py --base REV --tier1

Unpacks REV twice into a temporary directory (same_seed.unpack), which is
deleted afterwards. For each seed it runs three sides, each its own
perfbench/run.py in its own process for BENCHMARK.json's run_seconds: the
base, a second copy of the base and this working tree. The second copy is
the A/A control: it runs the same code as the base, so what separates the
two is host drift, not the change. The order of the three rotates with the
seed.

It writes BENCH_<workload>.json at the repository root. For each end-to-end
metric BENCHMARK.json declares, it holds each side's median and [Q1, Q3]
(perfbench/sweep.py's summarise), the per-seed head/base and control/base
ratios, and how many seeds each of head and control beat the base in the
metric's `better` direction (ties count for neither). It also holds each
side's stamp and every run's correct and failed counts. Exits 1 if any run
is not correct. Its closing lines print per metric each side's median and,
per side beside the base, its wins and its median ratio to the base with
[Q1, Q3], e.g. `head_wins=9/10 head/base=1.120 [1.090, 1.150]`.

With --tier1 it times the Tier-1 suite instead (ROADMAP.md's command, with
each side's own src), 5 rounds of base and head alternating which goes
first, and writes BENCH_tier1.json in the same form.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from same_seed import ROOT, resolve, unpack

sys.path.insert(0, str(ROOT / "perfbench"))
from sweep import _seeds, summarise  # noqa: E402

SIDES = ("base", "control", "head")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TIER1_METRIC = {"tier1_wall_s": {"unit": "s", "better": "lower", "bound": None}}
TIER1_ROUNDS = 5


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` process in tree: its stamp, verdict and metric values."""
    started = time.monotonic()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    record = {"exit": done.returncode, "wall_s": time.monotonic() - started, "correct": False, "failed": None}
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        record.update(stamp=next(json.loads(line[6:]) for line in lines if line.startswith("stamp ")),
                      correct=done.returncode == 0 and result["correct"], failed=result["failed"],
                      attempted=result["attempted"],
                      metrics={name: m["value"] for name, m in result["metrics"].items()})
    except (IndexError, StopIteration, ValueError, KeyError):  # no result line: the run crashed
        record["stderr"] = done.stderr[-2000:]
    return record


def tier1_run(tree: Path) -> dict:
    """One Tier-1 run in tree with its src first on PYTHONPATH: wall time and pytest's last line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    started = time.monotonic()
    done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.monotonic() - started
    return {"exit": done.returncode, "wall_s": wall, "correct": done.returncode == 0,
            "summary": (done.stdout.strip().splitlines() or [""])[-1], "metrics": {"tier1_wall_s": wall}}


def _beats(value: float, base: float, better: str) -> bool:
    return value > base if better == "higher" else value < base


def summary(runs: list, declared: dict) -> dict:
    """The metric and verdict part of a BENCH_*.json file from run records.

    Each record has `pair` (the seed, or the Tier-1 round), `side` (base,
    control or head) and, if its run finished, `metrics`: name -> value.
    declared maps each metric to its BENCHMARK.json entry (unit, better,
    bound). Ratios and wins pair a side's run with the base run of the same
    pair; a pair where either run has no metrics is left out.
    """
    sides = [side for side in SIDES if any(r["side"] == side for r in runs)]
    values = {side: {r["pair"]: r["metrics"] for r in runs if r["side"] == side and "metrics" in r}
              for side in sides}
    metrics = {}
    for name, spec in declared.items():
        entry = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"]}
        for side in sides:
            side_values = [m[name] for m in values[side].values()]
            entry[side] = summarise(side_values) if side_values else None
        for side in sides[1:]:
            pairs = sorted(values[side].keys() & values["base"].keys())
            mine = [values[side][p][name] for p in pairs]
            base = [values["base"][p][name] for p in pairs]
            entry[f"{side}_vs_base"] = {
                "ratio": summarise([a / b for a, b in zip(mine, base)]) if pairs else None,
                "wins": sum(_beats(a, b, spec["better"]) for a, b in zip(mine, base)),
                "pairs": len(pairs),
            }
        metrics[name] = entry
    return {
        "correct": all(r["correct"] for r in runs),
        "runs": [{key: value for key, value in r.items() if key not in ("metrics", "stamp")} for r in runs],
        "stamps": {side: next((r["stamp"] for r in runs if r["side"] == side and r.get("stamp")), None)
                   for side in sides},
        "metrics": metrics,
    }


def summary_line(metric: str, entry: dict) -> str:
    """One closing line per metric: each side's median, then per side beside
    the base its wins and its median per-pair ratio to the base with [Q1, Q3],
    so a claim reads against the A/A control's ratio at a glance."""
    sides = [side for side in SIDES if entry.get(side)]
    parts = [f"{side}={entry[side]['median']:.6g}" for side in sides]
    for side in sides[1:]:
        versus = entry[f"{side}_vs_base"]
        parts.append(f"{side}_wins={versus['wins']}/{versus['pairs']}")
        ratio = versus["ratio"]
        if ratio is not None:
            parts.append(f"{side}/base={ratio['median']:.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}]")
    return f"{metric}: " + " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare this checkout against")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="a workload of perfbench/workloads.py")
    what.add_argument("--tier1", action="store_true", help="time the Tier-1 suite instead")
    parser.add_argument("--seeds", default="1-10", help="N or N-M (default 1-10)")
    args = parser.parse_args(argv)
    sha = resolve(args.base)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.tier1:  # (pair, sides in run order)
        schedule = [(r, ("base", "head") if r % 2 else ("head", "base")) for r in range(1, TIER1_ROUNDS + 1)]
    else:
        schedule = [(seed, SIDES[seed % 3:] + SIDES[:seed % 3]) for seed in _seeds(args.seeds)]
    runs = []
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        trees = {side: Path(tmp, side) for side in schedule[0][1] if side != "head"}
        for tree in trees.values():
            unpack(sha, tree)
        trees["head"] = ROOT
        for pair, sides in schedule:
            for position, side in enumerate(sides):
                record = (tier1_run(trees[side]) if args.tier1 else
                          bench_run(trees[side], args.workload, pair, declared["run_seconds"]))
                runs.append(dict(record, pair=pair, side=side, position=position))
                print(f"pair={pair} side={side} wall={record['wall_s']:.1f}s correct={record['correct']} "
                      + (record["summary"] if args.tier1 else f"failed={record['failed']}"), flush=True)
    name = "tier1" if args.tier1 else args.workload
    out = summary(runs, TIER1_METRIC if args.tier1 else {m["name"]: m for m in declared["end_to_end"]})
    out.update(what=name, base={"rev": args.base, "commit": sha},
               head={"rev": "working tree", "commit": resolve("HEAD")},
               seconds=None if args.tier1 else declared["run_seconds"])
    (ROOT / f"BENCH_{name}.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for metric, entry in out["metrics"].items():
        print(summary_line(metric, entry))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
