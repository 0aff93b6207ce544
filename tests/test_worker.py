"""The helper process that runs a two-cell layer's reverse direction: bit
equality with the in-process stand-in that runs where no helper can, which
of the two runs and whether BLAS is pinned, finding the BLAS thread setter,
threads, failure, process lifetime, and bytes that no longer depend on the
BLAS thread count."""

import gc
import inspect
import io
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from qnn import recurrent, worker
from qnn.autograd import Tensor
from qnn.errors import QnnError
from qnn.recurrent import BiRecurrentLayer
from test_recurrent import RAGGED_MASKS, direction_grads, make_cell

SRC = Path(__file__).resolve().parents[1] / "src"

needs_helper = pytest.mark.skipif(not isinstance(recurrent._helper, worker.Helper),
                                  reason="no helper process can run here")


def layer_case(kind, dtype, seed, case="mid_batch_padding"):
    rng = np.random.default_rng(seed)
    mask = RAGGED_MASKS[case]
    layer = BiRecurrentLayer(make_cell(kind, dtype, rng), make_cell(kind, dtype, rng))
    seq = (2.0 * rng.standard_normal(mask.shape + (layer.fwd.input_size,))).astype(dtype)
    cotangent = rng.standard_normal(mask.shape + (layer.fwd.hidden_size,)).astype(dtype)
    return layer, seq, mask, cotangent


def in_process(monkeypatch):
    """Run two-cell layers through the stand-in used where no helper can run."""
    monkeypatch.setattr(recurrent, "_helper", worker.InProcess(recurrent._direction))


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


@pytest.fixture
def own_helper():
    """Helper(start) for a start of the test's own, stopped afterwards."""
    helpers = []

    def make(start):
        helpers.append(worker.Helper(start))
        return helpers[-1]

    yield make
    for helper in helpers:
        helper.stop()


def copied(mine, theirs):
    return [a.copy() for a in theirs]


@needs_helper
def test_an_output_that_views_its_request_comes_back_intact(own_helper):
    # the fresh output, written first, would land on the request's array if
    # the reply started at the buffer's offset 0
    helper = own_helper(lambda a: ([a + 1, a, a[::-1]], None))
    a = np.arange(1000, dtype=np.float64)
    got, call = helper.call(None, [a], {}, lambda: None, copied)
    assert call is None
    assert [g.tolist() for g in got] == [(a + 1).tolist(), a.tolist(), a[::-1].tolist()]


@needs_helper
def test_a_reply_is_written_over_its_request(own_helper):
    helper = own_helper(lambda a: ([2 * a], None))
    a = np.ones(2**17, dtype=np.float64)  # 1 MiB
    (got,), _ = helper.call(None, [a], {}, lambda: None, copied)
    assert np.array_equal(got, 2 * a)
    assert os.fstat(helper._buffer.fd).st_size == a.nbytes


def keeping_start(a, count=False):
    """A start for the helper that keeps a state, and on a count request
    returns how many of its states are alive there."""
    if count:
        return [np.array([len(KEPT)])], None
    state = Kept()
    KEPT.add(state)
    return [a], state


class Kept:
    def __call__(self, a):
        return [a]


KEPT = weakref.WeakSet()  # the helper's own copy, after the fork


def kept_count(helper) -> int:
    (got,), _ = helper.call(None, [np.zeros(1)], {"count": True}, lambda: None, copied)
    return int(got[0])


@needs_helper
def test_a_kept_state_lives_as_long_as_its_call(own_helper):
    helper = own_helper(keeping_start)
    a = np.arange(3.0)
    _, call = helper.call(None, [a], {}, lambda: None, copied)
    assert kept_count(helper) == 1
    del call
    gc.collect()
    assert kept_count(helper) == 0  # the request that says so also drops it
    _, call = helper.call(None, [a], {}, lambda: None, copied)
    got, none = helper.call(call, [a], {}, lambda: None, copied)
    assert none is None and got[0].tolist() == a.tolist()
    assert kept_count(helper) == 0


@needs_helper
def test_a_call_of_an_ended_helper_drops_nothing_in_its_replacement(own_helper):
    # both helpers number their states from 0
    helper = own_helper(keeping_start)
    a = np.arange(3.0)
    _, old = helper.call(None, [a], {}, lambda: None, copied)
    helper.stop()
    _, new = helper.call(None, [a], {}, lambda: None, copied)
    assert (old.number, new.number) == (0, 0)
    del old
    gc.collect()
    assert kept_count(helper) == 1
    assert helper.call(new, [a], {}, lambda: None, copied)[0][0].tolist() == a.tolist()


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
    with pytest.warns(RuntimeWarning, match="overflow") as caught:
        layer.forward(Tensor(seq), mask)
    # pointed at lstm_layer, which calls the helper
    lines, first = inspect.getsourcelines(recurrent.lstm_layer)
    assert {Path(w.filename).name for w in caught} == {"recurrent.py"}
    assert all(first <= w.lineno < first + len(lines) for w in caught)
    with np.errstate(over="ignore", invalid="ignore"):
        layer.forward(Tensor(seq), mask)


TWO_CELL_FORWARD = """
import sys, numpy as np
from qnn import recurrent, worker
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
@pytest.mark.parametrize("ending", ["exit", "sigkill", "sigint"])
def test_no_helper_outlives_its_process(ending):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # a process started in the background ignores SIGINT, and its children inherit that
    proc = subprocess.Popen([sys.executable, "-c", TWO_CELL_FORWARD, "exit" if ending == "exit" else "wait"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
                            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        pid = int(proc.stdout.readline())
        if ending != "exit":
            assert alive(pid)
            proc.send_signal(signal.SIGKILL if ending == "sigkill" else signal.SIGINT)
        assert proc.wait(timeout=30) == {"exit": 0, "sigkill": -signal.SIGKILL, "sigint": -signal.SIGINT}[ending]
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    assert wait_gone(pid)


# 150-frame utterances in batches of 4: T*B = 600, a size at which
# OpenBLAS's weight-gradient GEMMs reduce in a thread-count order
SYNTH_ARGS = ["synth", "--out", "data", "--dim", "12", "--train-utts", "8", "--valid-utts", "4",
              "--test-utts", "4", "--seg-min", "25", "--seg-max", "25", "--segments", "6", "--seed", "5"]
TRAIN_ARGS = ["train", "--train", "data/train.qfea", "--valid", "data/valid.qfea", "--out", "run",
              "--r2h-size", "32", "--depth", "1", "--hidden", "16", "--batch-size", "4", "--epochs", "2",
              "--seed", "5"]
# runs qnn.cli as python -m does, in a process where no helper can run
NO_HELPER = """
import os, runpy
del os.memfd_create
from qnn import recurrent, worker
assert isinstance(recurrent._helper, worker.InProcess)
runpy.run_module("qnn.cli", run_name="__main__", alter_sys=True)
"""


def training_bytes(work: Path, threads: str, run=("-m", "qnn.cli")) -> list:
    """metrics.txt, last.qnn and best.qnn of a qnn synth and 2-epoch qnn
    train in work, run as python *run at OPENBLAS_NUM_THREADS=threads."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
    work.mkdir()
    for args in (SYNTH_ARGS, TRAIN_ARGS):
        subprocess.run([sys.executable, *run, *args], cwd=work, env=env, check=True, capture_output=True)
    return [(work / "run" / name).read_bytes() for name in ("metrics.txt", "last.qnn", "best.qnn")]


@needs_helper
def test_training_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    assert training_bytes(tmp_path / "1", "1") == training_bytes(tmp_path / "2", "2")


@needs_helper
def test_training_bytes_equal_with_and_without_the_helper(tmp_path):
    # one thread on both sides: unpinned, the stand-in's bytes at T*B = 600
    # depend on the thread count, which this test does not cover
    helper = training_bytes(tmp_path / "helper", "1")
    assert training_bytes(tmp_path / "in_process", "1", ("-c", NO_HELPER)) == helper


@pytest.mark.parametrize("missing", ["fork", "memfd_create", "setter"])
def test_where_no_helper_can_run_the_stand_in_runs_and_nothing_is_pinned(missing, monkeypatch):
    pins = []
    monkeypatch.setattr(worker, "_blas_thread_setter", lambda: None if missing == "setter" else pins.append)
    if missing != "setter":
        monkeypatch.delattr(os, missing, raising=False)
    assert isinstance(worker.helper(recurrent._helper_reverse, recurrent._direction), worker.InProcess)
    assert pins == []


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "memfd_create")), reason="no fork or memfd_create")
def test_where_a_helper_can_run_blas_is_pinned_to_one_thread_once(monkeypatch):
    pins = []
    monkeypatch.setattr(worker, "_blas_thread_setter", lambda: pins.append)
    assert isinstance(worker.helper(recurrent._helper_reverse, recurrent._direction), worker.Helper)
    assert pins == [1]


def loaded_openblas() -> Path:
    """The path of the OpenBLAS library this process has loaded; skips the test if none."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in fh}
    libs = sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1].lower() and Path(p).is_file())
    if not libs:
        pytest.skip("no OpenBLAS library is loaded")
    return Path(libs[0])


def setter_from_maps(path: Path, monkeypatch):
    """_blas_thread_setter reading one maps line that names path."""
    line = f"7f0000000000-7f0000100000 r-xp 00000000 08:01 123456                     {path}\n"
    monkeypatch.setattr(worker, "open", lambda *args, **kwargs: io.StringIO(line), raising=False)
    return worker._blas_thread_setter()


def test_blas_setter_is_found_under_a_path_with_a_space(tmp_path, monkeypatch):
    lib = loaded_openblas()
    link = tmp_path / "sp ace" / lib.name
    link.parent.mkdir()
    link.symlink_to(lib)
    # found, and not called: calling it would change this process's thread count
    assert setter_from_maps(link, monkeypatch) is not None


@pytest.mark.parametrize("entry", ["missing", "deleted"])
def test_blas_setter_is_none_for_a_library_it_cannot_open(entry, tmp_path, monkeypatch):
    lib = loaded_openblas()
    path = tmp_path / lib.name
    if entry == "deleted":  # a file of that name exists, so only the " (deleted)" suffix excludes it
        path = tmp_path / f"{lib.name} (deleted)"
        path.symlink_to(lib)
    assert setter_from_maps(path, monkeypatch) is None
