"""Smoke test of the benchmark against the current library.

Every perfbench module is imported here, so a library change that removes
a name the benchmark imports fails collection in the tier-1 suite rather
than the benchmark run. perfbench/probes.py replays single layers through
qnn's public functions; a change that breaks those replays fails below.
"""

import math
import sys
from pathlib import Path

from qnn.config import ModelConfig
from qnn.data import SynthSpec, generate_synthetic, make_batches
from qnn.recurrent import build_model
from qnn.training import Adam

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import bench  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402
from probes import StepProbe  # noqa: E402


def test_benchmark_modules_import():
    assert callable(run.main) and callable(sweep.main) and callable(bench.run_workload)
    assert set(workloads.WORKLOADS) == {"train_short", "train_long"}


def test_step_probe_traces_and_replays_one_step():
    config = ModelConfig(front_end="r2h-norm", r2h_size=16, stack_kind="qlstm", depth=2,
                         hidden_real_width=16, classes=4, dropout=0.2, input_dim=8,
                         batch_size=4, seed=3)
    train_utts, _, _ = generate_synthetic(SynthSpec(train_utts=4, valid_utts=1, test_utts=1,
                                                    dim=8, seed=7))
    batch = make_batches(train_utts, config.batch_size)[0]
    model = build_model(config)
    probe = StepProbe(seed=1)
    loss = probe.traced_step(model, Adam(model.named_parameters(), lr=config.lr0), batch)
    probe.plain_ms_per_frame.append(probe.traced_ms_per_frame[0])  # metrics() compares against it
    metrics = probe.metrics(config.depth)
    assert math.isfinite(loss)
    timings = {name: value for name, (value, _) in metrics.items() if "_dir." in name}
    assert len(timings) == 2 * 2 * config.depth  # fwd/bwd direction x fwd/bwd pass per layer
    assert all(math.isfinite(value) for value in timings.values()), timings
