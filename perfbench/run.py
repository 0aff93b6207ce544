"""qnn benchmark: one named workload per run, checked against the library's own outputs.

Run from the repository root:

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 30 --trace 0

A run sets up the workload from --seed, runs one epoch through train() as
the reference, then spends --seconds on optimizer steps (the same calls,
order and RNG streams as train()) interleaved with evaluate() over the
validation split. With --trace 0 it prints the end-to-end metrics. With
--trace 1 some steps are traced and replayed layer by layer, the selfcheck
suites run as well, and the per-layer metrics are printed instead. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Lines before it stamp the machine and the sample counts.

An operation is an optimizer step, an evaluate() batch, a set-up round trip
or an oracle check; it fails when it raises, yields a non-finite loss, or
misses its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pin_environment() -> None:
    """Cap BLAS threads at the CPUs this process may use; keep QNN_THREADS unset."""
    os.environ.pop("QNN_THREADS", None)
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, ""))
        except ValueError:
            wanted = 0
        if not 1 <= wanted <= cpus:
            os.environ[var] = str(cpus)


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qnn
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qnn from {src}: {exc}")
    if Path(qnn.__file__).resolve().parent != src / "qnn":
        raise SystemExit(f"perfbench: imported qnn from {qnn.__file__}, expected {src / 'qnn'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _pin_environment()
    sys.dont_write_bytecode = True
    _import_library()
    from bench import Ledger, run_workload, stamp
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload '{args.workload}', expected one of {sorted(WORKLOADS)}")
    print("stamp " + json.dumps(stamp(ROOT), sort_keys=True), flush=True)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        ledger = Ledger()
        metrics, notes = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                      bool(args.trace), Path(workdir), ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes["error_rate"] = ledger.failed / ledger.attempted
    notes["failures"] = ledger.reasons[:5]
    notes["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("samples " + json.dumps(notes, sort_keys=True), flush=True)
    if not args.trace:
        metrics["peak_rss_mb"] = (notes["peak_rss_mb"], "MB")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
