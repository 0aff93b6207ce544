"""The helper process that runs a two-cell layer's reverse direction: bit
equality with the in-process path, threads, failure, process lifetime, and
bytes that no longer depend on the BLAS thread count."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from qnn import recurrent
from qnn.autograd import Tensor
from qnn.errors import QnnError
from qnn.recurrent import BiRecurrentLayer
from test_recurrent import RAGGED_MASKS, direction_grads, make_cell

SRC = Path(__file__).resolve().parents[1] / "src"

needs_helper = pytest.mark.skipif(recurrent._helper is None, reason="no helper process can run here")


def layer_case(kind, dtype, seed, case="mid_batch_padding"):
    rng = np.random.default_rng(seed)
    mask = RAGGED_MASKS[case]
    layer = BiRecurrentLayer(make_cell(kind, dtype, rng), make_cell(kind, dtype, rng))
    seq = (2.0 * rng.standard_normal(mask.shape + (layer.fwd.input_size,))).astype(dtype)
    cotangent = rng.standard_normal(mask.shape + (layer.fwd.hidden_size,)).astype(dtype)
    return layer, seq, mask, cotangent


def in_process(monkeypatch):
    monkeypatch.setattr(recurrent, "_helper", None)


def alive(pid: int) -> bool:
    """Whether pid is a process that has not ended (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def wait_gone(pid: int, seconds: float = 10.0) -> bool:
    deadline = time.monotonic() + seconds
    while alive(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@needs_helper
@pytest.mark.parametrize("case", sorted(RAGGED_MASKS))
@pytest.mark.parametrize("kind", ["qlstm", "lstm"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_helper_path_bit_equal_to_in_process_path(case, kind, dtype, monkeypatch):
    layer, seq, mask, cotangent = layer_case(kind, dtype, 60, case)
    out, grads = direction_grads(layer, seq, mask, BiRecurrentLayer.forward, cotangent)
    assert recurrent._helper.pid is not None and alive(recurrent._helper.pid)
    in_process(monkeypatch)
    ref_out, ref_grads = direction_grads(layer, seq, mask, BiRecurrentLayer.forward, cotangent)
    assert out.dtype == dtype and np.array_equal(out, ref_out)
    names = ["input"] + [name for name, _ in layer.named_parameters()]
    for name, got, want in zip(names, grads, ref_grads):
        assert got.dtype == dtype and np.array_equal(got, want), name


@needs_helper
@pytest.mark.parametrize("kind", ["qlstm", "lstm"])
def test_a_recorded_layer_keeps_its_inputs_past_a_later_request(kind, monkeypatch):
    # the helper runs a request on views of the shared buffer; the second
    # layer's forward writes its own input and maps over the first's before
    # the first layer's backward runs
    layer, seq, mask, cotangent = layer_case(kind, np.float32, 66)
    other, other_seq, other_mask, _ = layer_case(kind, np.float32, 67)
    out = layer.forward(Tensor(seq, requires_grad=True), mask)
    other.forward(Tensor(other_seq, requires_grad=True), other_mask)
    grads = out.node.backward(cotangent)
    in_process(monkeypatch)
    want = layer.forward(Tensor(seq, requires_grad=True), mask).node.backward(cotangent)
    names = ["input"] + [name for name, _ in layer.named_parameters()]
    for name, got, ref in zip(names, grads, want, strict=True):
        assert np.array_equal(got, ref), name


@pytest.mark.parametrize("kind", ["qlstm", "lstm"])
def test_layer_input_gradient_is_skipped_when_the_input_needs_none(kind):
    # stack 0 under a fixed front end: the layer's backward skips d @ wx.T
    layer, seq, mask, cotangent = layer_case(kind, np.float64, 61)
    with_input, without = (layer.forward(Tensor(seq, requires_grad=needs), mask).node.backward(cotangent)
                           for needs in (True, False))
    assert with_input[0] is not None and without[0] is None
    for got, want in zip(without[1:], with_input[1:]):
        assert np.array_equal(got, want)


@needs_helper
def test_threads_running_layers_at_once_get_the_serial_results():
    # more threads than cores, switching often: the lock must keep each
    # request and its reply together
    cases = [layer_case(kind, np.float32, 62 + k) for k, kind in enumerate(("qlstm", "lstm", "qlstm"))]

    def run(case):
        return [direction_grads(case[0], *case[1:3], BiRecurrentLayer.forward, case[3]) for _ in range(8)]

    serial = [run(case) for case in cases]
    results = [None] * len(cases)
    threads = [threading.Thread(target=lambda k=k: results.__setitem__(k, run(cases[k])))
               for k in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got_runs, want_runs in zip(results, serial):
        for (out, grads), (ref_out, ref_grads) in zip(got_runs, want_runs):
            assert np.array_equal(out, ref_out)
            assert all(np.array_equal(g, w) for g, w in zip(grads, ref_grads))


@needs_helper
def test_a_killed_helper_fails_the_next_call_at_once_and_is_replaced():
    layer, seq, mask, cotangent = layer_case("qlstm", np.float32, 63)
    want = layer.forward(Tensor(seq), mask).data
    pid = recurrent._helper.pid
    os.kill(pid, signal.SIGKILL)
    started = time.monotonic()
    with pytest.raises(QnnError, match=f"helper process {pid} ended"):
        layer.forward(Tensor(seq), mask)
    assert time.monotonic() - started < 1.0
    assert not alive(pid)
    assert np.array_equal(layer.forward(Tensor(seq), mask).data, want)
    assert recurrent._helper.pid not in (None, pid)


@needs_helper
def test_a_graph_from_an_ended_helper_refuses_its_backward():
    layer, seq, mask, cotangent = layer_case("lstm", np.float32, 64)
    out = layer.forward(Tensor(seq, requires_grad=True), mask)
    recurrent._helper.stop()
    with pytest.raises(QnnError, match="has ended"):
        out.node.backward(cotangent)


@needs_helper
def test_helper_warnings_reach_the_caller_under_its_errstate():
    layer, seq, mask, _ = layer_case("lstm", np.float32, 65)
    seq[:] = 1.0
    # the reverse direction's projection gives 2e38 in every c gate column, and adding the bias overflows
    layer.bwd.w["c"]["weight"].data[:] = 0.0
    layer.bwd.w["c"]["weight"].data[0] = 2e38
    layer.bwd.b["c"].data[:] = 2e38
    with pytest.warns(RuntimeWarning, match="overflow"):
        layer.forward(Tensor(seq), mask)
    with np.errstate(over="ignore", invalid="ignore"):
        layer.forward(Tensor(seq), mask)


TWO_CELL_FORWARD = """
import sys, numpy as np
from qnn import recurrent
from qnn.autograd import Tensor
from qnn.recurrent import QLSTMCell, lstm_layer
rng = np.random.default_rng(0)
cells = [QLSTMCell(2, 3, rng) for _ in range(2)]
lstm_layer(Tensor(np.ones((4, 2, 8), dtype=np.float32)), np.ones((4, 2), dtype=bool), cells)
print(recurrent._helper.pid, flush=True)
if sys.argv[1] == "wait":
    sys.stdin.read()
"""


@needs_helper
@pytest.mark.parametrize("ending", ["exit", "sigkill"])
def test_no_helper_outlives_its_process(ending):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-c", TWO_CELL_FORWARD, "wait" if ending == "sigkill" else "exit"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
    try:
        pid = int(proc.stdout.readline())
        if ending == "sigkill":
            assert alive(pid)
            proc.kill()
        assert proc.wait(timeout=30) == (-signal.SIGKILL if ending == "sigkill" else 0)
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    assert wait_gone(pid)


@needs_helper
def test_training_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 150-frame utterances in batches of 4: T*B = 600, a size at which
    # OpenBLAS's weight-gradient GEMMs reduce in a thread-count order
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        work = tmp_path / threads
        for args in (["synth", "--out", "data", "--dim", "12", "--train-utts", "8", "--valid-utts", "4",
                      "--test-utts", "4", "--seg-min", "25", "--seg-max", "25", "--segments", "6", "--seed", "5"],
                     ["train", "--train", "data/train.qfea", "--valid", "data/valid.qfea", "--out", "run",
                      "--r2h-size", "32", "--depth", "1", "--hidden", "16", "--batch-size", "4",
                      "--epochs", "2", "--seed", "5"]):
            work.mkdir(exist_ok=True)
            subprocess.run([sys.executable, "-m", "qnn.cli", *args], cwd=work, env=env, check=True,
                           capture_output=True)
        runs.append([(work / "run" / name).read_bytes() for name in ("metrics.txt", "last.qnn")])
    assert runs[0] == runs[1]
