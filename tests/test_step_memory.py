"""tools/step_memory.py's per-layer trace of one training step, on train_short."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import step_memory  # noqa: E402


def test_step_memory_prints_graph_peak_and_a_row_per_backward_node(capsys):
    assert step_memory.main(["--workload", "train_short", "--seed", "1"]) == 0
    head, graph, peak, header, *rows = capsys.readouterr().out.splitlines()
    assert head.startswith("workload train_short seed 1 batch T=") and head.endswith(" B=8")
    assert graph.split()[0] == "graph_mib" and peak.split()[0] == "peak_mib"
    graph_mib, peak_mib = float(graph.split()[1]), float(peak.split()[1])
    assert 0 < graph_mib <= peak_mib
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
