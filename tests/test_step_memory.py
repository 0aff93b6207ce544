"""tools/step_memory.py's per-layer trace of one training step, on train_short,
and its exit when its stdout closes early."""

import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import step_memory  # noqa: E402


def test_step_memory_prints_graph_peak_and_a_row_per_backward_node(capsys):
    assert step_memory.main(["--workload", "train_short", "--seed", "1"]) == 0
    head, graph, peak, shmem, header, *rows = capsys.readouterr().out.splitlines()
    assert head.startswith("workload train_short seed 1 batch T=") and head.endswith(" B=8")
    assert graph.split()[0] == "graph_mib" and peak.split()[0] == "peak_mib"
    graph_mib, peak_mib = float(graph.split()[1]), float(peak.split()[1])
    assert 0 < graph_mib <= peak_mib
    key, value = shmem.split()
    assert key == "shmem_mib"
    if os.path.exists("/proc/self/status"):
        assert float(value) >= 0
    else:
        assert value == "n/a"
    assert header.split() == ["node", "op", "shape", "before_mib", "peak_mib", "after_mib"]
    fields = [row.split() for row in rows]
    assert [int(f[0]) for f in fields] == list(range(len(rows)))
    # loss, output layer, then per stack layer (deepest first) its dropout
    # and the layer, then the front end's dropout, normalization, tanh, dense
    assert [f[1] for f in fields] == ["cross_entropy", "linear"] + ["dropout", "lstm_layer"] * 2 + [
        "dropout", "quat_normalize", "tanh", "linear"]
    # the forward released the dense output and every pre-dropout output
    assert [f[2] for f in fields].count("released") == 4
    for f in fields:
        before, node_peak, after = map(float, f[3:])
        assert max(before, after) <= node_peak <= peak_mib


def test_a_stdout_closed_early_ends_the_tool_without_a_traceback():
    proc = subprocess.Popen([sys.executable, str(TOOLS / "step_memory.py"), "--workload", "train_short"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONUNBUFFERED="1"))  # each line reaches the pipe at once
    try:
        assert proc.stdout.readline().startswith("workload train_short seed 1 ")
        proc.stdout.close()  # as `| head -1` does
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == ""
