"""Where one training step's memory goes, layer by layer, under tracemalloc.

    python tools/step_memory.py --workload train_long --seed 1

Builds the benchmark workload's model and training split for the seed (the
same configuration and synthetic data perfbench/run.py uses), takes its
longest training batch and runs one training step on it in this checkout,
forward, loss and backward, with the model's own helper process when one
can run: tracemalloc traces the calling process only, as the benchmark's
peak_rss_mb does. Prints

    graph_mib G      traced bytes held after the forward and the loss
    peak_mib P       the step's traced peak, forward and backward
    shmem_mib S      the calling process's resident shared memory after the
                     step (RssShmem in /proc/self/status: the pages of the
                     helper's buffer it touched), or n/a where that file
                     does not exist
    node  op  shape  before_mib  peak_mib  after_mib

and one row per backward node in sweep order: the traced bytes when its
backward starts, the peak while it runs and the bytes when it returns. An
op output whose array the forward released (autograd.release) shows the
shape `released`.
Unlike perfbench's autograd.graph_mb, which sums the tape tensors' arrays,
this counts every array the graph holds, those kept in backward closures
included. A stdout closed early, as by `| head`, ends the run quietly with
exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from qnn import autograd  # noqa: E402
from qnn.config import ModelConfig  # noqa: E402
from qnn.data import SynthSpec, generate_synthetic, make_batches  # noqa: E402
from qnn.recurrent import build_model  # noqa: E402
from qnn.training import cross_entropy_framewise  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIB = 2**20


def longest_batch(workload, seed: int):
    """The model config and the longest batch of the workload's training split."""
    train_utts, _, _ = generate_synthetic(SynthSpec(seed=seed, **workload.synth))
    config = ModelConfig(seed=seed, epochs=1, **workload.model)
    batches = make_batches(train_utts, config.batch_size, sort_by_length=True)
    return config, max(batches, key=lambda b: b.features.shape[0])


def trace_step(model, batch) -> dict:
    """One training step's traced bytes: the forward graph, the step's peak
    and (op, output shape, before, peak, after) per backward node."""
    rows, peaks = [], []

    def traced(op, shape, backward):
        def run(g):
            rows.append([op, shape, tracemalloc.get_traced_memory()[0]])
            peaks.append(tracemalloc.get_traced_memory()[1])  # since the last node returned
            tracemalloc.reset_peak()
            grads = backward(g)
            current, peak = tracemalloc.get_traced_memory()
            rows[-1] += [peak, current]
            peaks.append(peak)
            tracemalloc.reset_peak()
            return grads
        return run

    tracemalloc.start()
    try:
        loss = cross_entropy_framewise(model.forward(batch, training=True), batch.labels, batch.mask)
        graph, forward_peak = tracemalloc.get_traced_memory()
        peaks.append(forward_peak)
        for t in autograd.Tape.from_root(loss).records:
            if t.node is not None:
                t.node.backward = traced(t.node.op, t.shape, t.node.backward)
        tracemalloc.reset_peak()
        autograd.backward(loss)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return {"graph": graph, "peak": max(peaks), "nodes": rows}


def shmem_mib() -> str:
    """RssShmem from /proc/self/status in MiB, or n/a where it is not there."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("RssShmem:"):
                    return f"{int(line.split()[1]) / 1024:.2f}"  # kB
    except OSError:
        pass
    return "n/a"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    config, batch = longest_batch(WORKLOADS[args.workload], args.seed)
    t_len, size = batch.features.shape[:2]
    print(f"workload {args.workload} seed {args.seed} batch T={t_len} B={size}")
    trace = trace_step(build_model(config), batch)
    print(f"graph_mib {trace['graph'] / MIB:.2f}")
    print(f"peak_mib {trace['peak'] / MIB:.2f}")
    print(f"shmem_mib {shmem_mib()}")
    print("node  op  shape  before_mib  peak_mib  after_mib")
    for k, (op, shape, before, peak, after) in enumerate(trace["nodes"]):
        shape = "released" if shape == (0,) else "x".join(map(str, shape)) or "scalar"
        print(f"{k}  {op}  {shape}  {before / MIB:.2f}  {peak / MIB:.2f}  {after / MIB:.2f}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the Python docs' SIGPIPE note: no more writes, no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
