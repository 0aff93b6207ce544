"""Loss, optimizer, learning-rate schedule, and the training loop."""

import ctypes
import gc
import math
import os
import re
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from qnn import autograd, training
from qnn.autograd import Tensor
from qnn.checkpoint import load_checkpoint, load_into_model, save_checkpoint
from qnn.config import ModelConfig
from qnn.data import SynthSpec, generate_synthetic, make_batches
from qnn.errors import ContractError, DataError, FormatError, TrainingAbort
from qnn.gradcheck import gradient_check
from qnn.recurrent import build_model
from qnn.training import (
    Adam,
    EpochReport,
    LRSchedule,
    cross_entropy_framewise,
    evaluate,
    log_softmax,
    train,
)


# --- cross entropy -------------------------------------------------------


def test_uniform_logits_loss_is_ln_classes():
    logits = Tensor(np.zeros((3, 2, 4)))
    mask = np.ones((3, 2), dtype=bool)
    labels = np.zeros((3, 2), dtype=np.int32)
    loss = cross_entropy_framewise(logits, labels, mask)
    assert abs(float(loss.data) - math.log(4.0)) < 1e-12


def test_saturated_one_hot_loss_vanishes():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, (4, 2)).astype(np.int32)
    logits = np.zeros((4, 2, 3))
    np.put_along_axis(logits, labels[..., None].astype(np.int64), 50.0, axis=-1)
    loss = cross_entropy_framewise(Tensor(logits), labels, np.ones((4, 2), dtype=bool))
    assert float(loss.data) < 1e-8


def test_loss_unchanged_by_extra_padding():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((3, 2, 4))
    labels = rng.integers(0, 4, (3, 2)).astype(np.int32)
    mask = np.ones((3, 2), dtype=bool)
    mask[2, 1] = False
    base = cross_entropy_framewise(Tensor(logits), labels, mask)

    padded_logits = np.concatenate([logits, rng.standard_normal((3, 2, 4))])
    padded_labels = np.concatenate([labels, np.zeros((3, 2), dtype=np.int32)])
    padded_mask = np.concatenate([mask, np.zeros((3, 2), dtype=bool)])
    doubled = cross_entropy_framewise(Tensor(padded_logits), padded_labels, padded_mask)
    assert float(base.data) == float(doubled.data)


def test_label_out_of_range_names_coordinates():
    logits = Tensor(np.zeros((2, 2, 3)))
    labels = np.zeros((2, 2), dtype=np.int32)
    labels[1, 0] = 3
    with pytest.raises(DataError, match=r"frame 1, sequence 0"):
        cross_entropy_framewise(logits, labels, np.ones((2, 2), dtype=bool))


def test_out_of_range_label_on_padded_frame_is_ignored():
    logits = Tensor(np.zeros((2, 1, 3)))
    labels = np.array([[0], [7]], dtype=np.int32)
    mask = np.array([[True], [False]])
    cross_entropy_framewise(logits, labels, mask)  # must not raise


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    logits = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
    labels = rng.integers(0, 4, (3, 2)).astype(np.int32)
    mask = np.ones((3, 2), dtype=bool)
    mask[1, 0] = False

    def build_loss():
        return cross_entropy_framewise(logits, labels, mask)

    errors = gradient_check(build_loss, [("logits", logits)])
    assert errors["logits"] < 1e-7


def test_cross_entropy_gradient_structure():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
    labels = rng.integers(0, 4, (3, 2)).astype(np.int32)
    mask = np.ones((3, 2), dtype=bool)
    mask[0, 1] = False
    autograd.backward(cross_entropy_framewise(logits, labels, mask))
    assert np.array_equal(logits.grad[0, 1], np.zeros(4))  # padded frame
    assert np.max(np.abs(logits.grad.sum(axis=-1))) < 1e-12  # softmax rows sum to 0


def test_softmax_sums_to_one_per_frame():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((5, 3, 6))
    probs = np.exp(log_softmax(logits))
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


# --- Adam ----------------------------------------------------------------


def test_adam_zero_gradient_leaves_params():
    w = Tensor(np.ones(4), requires_grad=True)
    opt = Adam([("w", w)], lr=0.1)
    w.grad = np.zeros(4)
    opt.step()
    assert np.array_equal(w.data, np.ones(4))


def test_adam_first_step_is_signed_lr():
    w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = Adam([("w", w)], lr=0.01)
    w.grad = np.array([0.5, -0.25, 4.0])
    opt.step()
    expected = np.array([1.0, -2.0, 3.0]) - 0.01 * np.sign([0.5, -0.25, 4.0])
    assert np.max(np.abs(w.data - expected)) < 1e-6


def test_adam_missing_grad_is_contract_error():
    w = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([("w", w)])
    with pytest.raises(ContractError, match="'w'"):
        opt.step()


def test_adam_converges_on_quadratic_bowl():
    rng = np.random.default_rng(5)
    w0 = rng.standard_normal(10)
    w = Tensor(w0 / np.linalg.norm(w0), requires_grad=True)
    opt = Adam([("w", w)], lr=0.05)
    for _ in range(200):
        opt.zero_grad()
        loss = autograd.mul(w, w).sum()
        autograd.backward(loss)
        opt.step()
    assert np.linalg.norm(w.data) < 1e-3


def per_parameter_adam(params, moments, t, lr):
    """One Adam step parameter by parameter, the formula Adam.step runs per
    group, in the same operation order."""
    bc1 = 1.0 - training.ADAM_BETA1 ** t
    bc2 = 1.0 - training.ADAM_BETA2 ** t
    for p, (m, v) in zip(params, moments):
        g = p.grad
        m += (1.0 - training.ADAM_BETA1) * (g - m)
        v += (1.0 - training.ADAM_BETA2) * (g * g - v)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + training.ADAM_EPS)


# (shape, dtype) runs that straddle a group boundary, exceed a group alone
# and switch dtype both ways
ADAM_SHAPES = [((100, 100), np.float32), ((5000,), np.float32), ((3000,), np.float32),
               ((200, 100), np.float32), ((7,), np.float64), ((4, 4), np.float64),
               ((16, 1025), np.float64), ((3,), np.float32), ((0,), np.float32)]


def test_grouped_adam_matches_the_per_parameter_formula_bit_for_bit():
    rng = np.random.default_rng(7)
    params = [Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True) for shape, dtype in ADAM_SHAPES]
    mirror = [Tensor(p.data.copy(), requires_grad=True) for p in params]
    moments = [(np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
    opt = Adam([(f"p{k}", p) for k, p in enumerate(params)], lr=1e-2)
    groups = [[p.shape for p in group[0]] for group in opt.groups]
    assert groups == [[(100, 100), (5000,)], [(3000,)], [(200, 100)], [(7,), (4, 4)], [(16, 1025)],
                      [(3,), (0,)]]
    for t in range(1, 25):
        if t == 12:
            opt.lr /= 2  # as an LR halving does
        for p, q in zip(params, mirror):
            grad = (rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2)).astype(p.dtype)
            grad.flat[::7] = 0.0
            if grad.ndim == 2:  # a transposed view, as a matmul's gradient can be
                grad = np.ascontiguousarray(grad.T).T
            p.grad, q.grad = grad, grad.copy()
        opt.step()
        per_parameter_adam(mirror, moments, t, opt.lr)
        for k, (p, q) in enumerate(zip(params, mirror)):
            assert p.data.dtype == q.data.dtype and np.array_equal(p.data, q.data), (t, k)


def test_grouped_adam_names_a_missing_gradient_and_updates_nothing():
    params = [(f"p{k}", Tensor(np.ones(shape, dtype=dtype), requires_grad=True)) for k, (shape, dtype)
              in enumerate(ADAM_SHAPES)]
    for _, p in params:
        p.grad = np.ones(p.shape, dtype=p.dtype)
    params[4][1].grad = None
    opt = Adam(params)
    with pytest.raises(ContractError, match="'p4'"):
        opt.step()
    assert all((p.data == 1).all() for _, p in params)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grouped_adam_overflows_a_huge_lr_quietly(dtype, recwarn):
    params = [(f"p{k}", Tensor(np.ones(shape, dtype=dtype), requires_grad=True)) for k, shape
              in enumerate([(100, 100), (5000,), (20000,)])]
    for _, p in params:
        p.grad = np.full(p.shape, 3.0, dtype=dtype)
    Adam(params, lr=1e308).step()
    assert not recwarn.list
    assert all(np.isneginf(p.data).all() for _, p in params)


# --- learning-rate schedule ---------------------------------------------


def test_stall_rule_examples():
    sched = LRSchedule(rule="stall")
    assert sched.update(1.0, 1e-3) == 1e-3          # first epoch never halves
    assert sched.update(0.9, 1e-3) == 1e-3          # 10% improvement keeps lr
    sched = LRSchedule(rule="stall", prev_val_loss=1.0)
    assert sched.update(0.9995, 1e-3) == 0.5e-3     # 0.05% improvement < 0.1% threshold


def test_literal_rule():
    # unlike stall, literal can halve on its first call: it needs no earlier loss
    assert LRSchedule(rule="literal").update(0.0005, 1e-3) == 0.5e-3
    sched = LRSchedule(rule="literal")
    assert sched.update(0.002, 1e-3) == 1e-3
    assert sched.update(0.0005, 1e-3) == 0.5e-3


def test_lr_sequence_stays_on_halving_grid():
    sched = LRSchedule(rule="stall")
    lr = 1e-3
    rng = np.random.default_rng(6)
    losses = np.linspace(1.0, 0.999, 20) + 0.0001 * rng.standard_normal(20)
    for loss in losses:
        lr = sched.update(float(loss), lr)
        k = round(math.log2(1e-3 / lr))
        assert math.isclose(lr, 1e-3 * 0.5 ** k, rel_tol=1e-12)


# --- evaluate ------------------------------------------------------------


class StubModel:
    """Produces logits directly from labels: perfect or constant."""

    def __init__(self, classes, perfect=True):
        self.classes = classes
        self.perfect = perfect

    def forward(self, batch, training=False):
        t_len, batch_n = batch.labels.shape
        logits = np.zeros((t_len, batch_n, self.classes))
        if self.perfect:
            np.put_along_axis(logits, batch.labels[..., None].astype(np.int64), 50.0, axis=-1)
        return Tensor(logits)


def synth_utts(**overrides):
    base = dict(train_utts=12, valid_utts=6, test_utts=4, dim=8, seed=13)
    base.update(overrides)
    return generate_synthetic(SynthSpec(**base))


def test_evaluate_perfect_model_zero_error():
    _, valid, _ = synth_utts()
    loss, fer = evaluate(StubModel(4, perfect=True), valid)
    assert fer == 0.0
    assert loss < 1e-8


def test_evaluate_constant_model_near_chance():
    train_utts, _, _ = synth_utts(train_utts=150, segments_per_utt=12)
    loss, fer = evaluate(StubModel(4, perfect=False), train_utts)
    assert abs(loss - math.log(4.0)) < 1e-9
    assert abs(fer - 75.0) < 2.0


def test_evaluate_batch_size_invariant():
    _, valid, _ = synth_utts()
    model = StubModel(4, perfect=True)
    loss_1, fer_1 = evaluate(model, valid, batch_size=1)
    loss_16, fer_16 = evaluate(model, valid, batch_size=16)
    assert fer_1 == fer_16
    assert abs(loss_1 - loss_16) < 1e-12
    # a built model agrees only within rounding, fixed here from the dtype
    model = build_model(tiny_config(precision="f64"))
    loss_1, fer_1 = evaluate(model, valid, batch_size=1)
    loss_8, fer_8 = evaluate(model, valid, batch_size=8)
    assert fer_1 == fer_8
    assert loss_1 != 0 and abs(loss_1 - loss_8) <= 1e3 * np.finfo(np.float64).eps * abs(loss_1)


# --- train loop ----------------------------------------------------------


def tiny_config(**overrides):
    base = dict(
        front_end="r2h-norm",
        r2h_size=16,
        stack_kind="qlstm",
        depth=1,
        hidden_real_width=16,
        classes=4,
        dropout=0.0,
        epochs=2,
        input_dim=8,
        batch_size=4,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_train_writes_reports_metrics_checkpoints(tmp_path):
    cfg = tiny_config()
    train_utts, valid_utts, _ = synth_utts()
    model = build_model(cfg)
    reports = train(model, train_utts, valid_utts, cfg, out_dir=str(tmp_path))
    assert [r.epoch for r in reports] == [1, 2]
    for r in reports:
        assert np.isfinite(r.train_loss) and np.isfinite(r.val_loss)
        assert 0.0 <= r.val_frame_error <= 100.0
    lines = (tmp_path / "metrics.txt").read_text().splitlines()
    assert len(lines) == 2
    assert f"digest={cfg.digest()}" in lines[0] and f"seed={cfg.seed}" in lines[0]
    assert "seconds" not in lines[0]
    for name in ("initial.qnn", "last.qnn", "best.qnn"):
        assert (tmp_path / name).exists()


def test_train_learns_on_easy_task(tmp_path):
    cfg = tiny_config(epochs=4)
    train_utts, valid_utts, _ = synth_utts(noise=0.05)
    model = build_model(cfg)
    reports = train(model, train_utts, valid_utts, cfg)
    assert reports[-1].val_loss < reports[0].val_loss


def test_train_zero_epochs_initial_checkpoint_only(tmp_path):
    cfg = tiny_config(epochs=0)
    train_utts, valid_utts, _ = synth_utts()
    reports = train(build_model(cfg), train_utts, valid_utts, cfg, out_dir=str(tmp_path))
    assert reports == []
    assert (tmp_path / "initial.qnn").exists()
    assert not (tmp_path / "last.qnn").exists()
    assert (tmp_path / "metrics.txt").read_text() == ""


@pytest.mark.parametrize("empty", ["training", "validation"])
def test_train_refuses_an_empty_split_before_writing(tmp_path, empty):
    cfg = tiny_config()
    train_utts, valid_utts, _ = synth_utts()
    splits = {"training": train_utts, "validation": valid_utts, empty: []}
    with pytest.raises(DataError, match=f"{empty} set is empty"):
        train(build_model(cfg), splits["training"], splits["validation"], cfg, out_dir=str(tmp_path / "run"))
    assert not (tmp_path / "run").exists()


def test_evaluate_refuses_an_empty_set():
    with pytest.raises(DataError, match="evaluation set is empty"):
        evaluate(build_model(tiny_config()), [])


def test_train_metrics_byte_identical_across_runs(tmp_path):
    cfg = tiny_config()
    train_utts, valid_utts, _ = synth_utts()
    train(build_model(cfg), train_utts, valid_utts, cfg, out_dir=str(tmp_path / "a"))
    train(build_model(cfg), train_utts, valid_utts, cfg, out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "metrics.txt").read_bytes()
    b = (tmp_path / "b" / "metrics.txt").read_bytes()
    assert a == b and len(a) > 0


def test_failed_metrics_write_keeps_previous_epoch(tmp_path, monkeypatch):
    cfg = tiny_config()
    train_utts, valid_utts, _ = synth_utts()
    complete = tmp_path / "complete"
    train(build_model(cfg), train_utts, valid_utts, cfg, out_dir=str(complete))
    real_atomic_write = training.atomic_write
    calls = []

    @contextmanager
    def fails_mid_write(path, text=False):
        with real_atomic_write(path, text=text) as fh:
            fh.write("epoch=2 train_lo")
            raise OSError("disk full")
        yield  # never reached

    def flaky_atomic_write(path, text=False):
        calls.append(os.path.basename(path))
        # the empty file, then epoch 1, then the failing epoch-2 rewrite
        return (fails_mid_write if len(calls) == 3 else real_atomic_write)(path, text=text)

    monkeypatch.setattr(training, "atomic_write", flaky_atomic_write)
    run = tmp_path / "run"
    with pytest.raises(OSError, match="disk full"):
        train(build_model(cfg), train_utts, valid_utts, cfg, out_dir=str(run))
    assert calls == ["metrics.txt"] * 3
    first_line = (complete / "metrics.txt").read_text().splitlines(keepends=True)[0]
    assert (run / "metrics.txt").read_text() == first_line
    assert sorted(p.name for p in run.iterdir()) == ["best.qnn", "initial.qnn", "last.qnn", "metrics.txt"]


def test_train_frees_each_steps_graph_before_the_next_forward(monkeypatch):
    cfg = tiny_config(dropout=0.2)
    train_utts, valid_utts, _ = synth_utts()
    model = build_model(cfg)
    real_forward = model.forward
    logits_refs, alive_at_entry = [], []

    def watched_forward(batch, training=False):
        if not training:
            return real_forward(batch, training=training)
        alive_at_entry.append(any(ref() is not None for ref in logits_refs))
        logits = real_forward(batch, training=training)
        logits_refs.append(weakref.ref(logits.data))
        return logits

    monkeypatch.setattr(model, "forward", watched_forward)
    gc.disable()  # freed by reference counting, not by a collection that happens to run
    try:
        train(model, train_utts, valid_utts, cfg)
    finally:
        gc.enable()
    assert len(alive_at_entry) > 2 * cfg.epochs
    assert not any(alive_at_entry)


def test_train_records_unchanged_without_mallopt(monkeypatch):
    cfg = tiny_config()
    train_utts, valid_utts, _ = synth_utts()
    lookups = []

    def no_c_library(name):
        lookups.append(name)
        raise OSError("no C library")

    runs = []
    for cdll in (ctypes.CDLL, no_c_library):
        monkeypatch.setattr(training.ctypes, "CDLL", cdll)
        training.keep_freed_pages.cache_clear()
        model = build_model(cfg)
        reports = train(model, train_utts, valid_utts, cfg)
        runs.append(([r.record("d", 0) for r in reports],
                     [p.data.tobytes() for _, p in model.named_parameters()]))
    training.keep_freed_pages.cache_clear()
    assert lookups == [None]
    assert runs[0] == runs[1]


def test_train_aborts_on_nan_with_location():
    cfg = tiny_config(epochs=1)
    train_utts, valid_utts, _ = synth_utts()
    model = build_model(cfg)
    model.output.bias.data[0] = np.nan
    with pytest.raises(TrainingAbort, match=r"epoch 1, batch 0"):
        train(model, train_utts, valid_utts, cfg)


def test_train_aborts_on_non_finite_gradient_before_step(tmp_path, monkeypatch):
    cfg = tiny_config(epochs=1)
    train_utts, valid_utts, _ = synth_utts()
    model = build_model(cfg)
    name, target = model.named_parameters()[3]
    real_backward = autograd.backward

    def poisoned_backward(loss):  # the loss stays finite, one gradient entry does not
        real_backward(loss)
        target.grad.flat[0] = np.inf

    monkeypatch.setattr(autograd, "backward", poisoned_backward)
    before = [p.data.copy() for _, p in model.named_parameters()]
    with pytest.raises(TrainingAbort, match=rf"gradient for parameter '{re.escape(name)}' at epoch 1, batch 0"):
        train(model, train_utts, valid_utts, cfg, out_dir=str(tmp_path))
    for (n, p), old in zip(model.named_parameters(), before):
        assert np.array_equal(p.data, old), n
    assert not (tmp_path / "last.qnn").exists()


def test_train_aborts_on_non_finite_weights_before_recording_the_epoch(tmp_path):
    # finite gradients, but an Adam step of about lr0 overflows every weight
    cfg = tiny_config(front_end="identity", hidden_real_width=4, batch_size=12, epochs=3, lr0=1e308)
    train_utts, valid_utts, _ = synth_utts()
    assert len(make_batches(train_utts, cfg.batch_size)) == 1
    model = build_model(cfg)
    first = model.named_parameters()[0][0]
    with pytest.raises(TrainingAbort, match=rf"non-finite weights in parameter '{re.escape(first)}' after epoch 1"):
        train(model, train_utts, valid_utts, cfg, out_dir=str(tmp_path))
    assert (tmp_path / "metrics.txt").read_text() == ""
    assert (tmp_path / "initial.qnn").exists() and not (tmp_path / "last.qnn").exists()
    assert not (tmp_path / "best.qnn").exists()


def test_step_on_overflowed_weights_aborts_on_its_loss_without_a_warning(tmp_path):
    # the first Adam step overflows the weights; the second batch's forward
    # over them gives a nan loss, which is the abort record, not a numpy warning
    cfg = tiny_config(front_end="identity", hidden_real_width=4, batch_size=4, epochs=1, lr0=1e308)
    train_utts, valid_utts, _ = synth_utts()
    assert len(make_batches(train_utts, cfg.batch_size)) > 1
    with pytest.raises(TrainingAbort, match="non-finite training loss nan at epoch 1, batch 1"):
        train(build_model(cfg), train_utts, valid_utts, cfg, out_dir=str(tmp_path))


# --- checkpoints ---------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = tiny_config()
    model = build_model(cfg)
    path = str(tmp_path / "model.qnn")
    save_checkpoint(path, model.named_parameters(), cfg.digest())
    digest, params = load_checkpoint(path)
    assert digest == cfg.digest()
    for name, tensor in model.named_parameters():
        assert params[name].tobytes() == tensor.data.tobytes()


def test_failed_checkpoint_save_keeps_earlier_file(tmp_path):
    cfg = tiny_config()
    params = build_model(cfg).named_parameters()
    path = tmp_path / "model.qnn"
    save_checkpoint(str(path), params, cfg.digest())
    before = path.read_bytes()
    # the format has no float16 tag, so this save fails after the header and
    # the first parameter are written
    name, second = params[1]
    bad = [params[0], (name, Tensor(second.data.astype(np.float16)))] + params[2:]
    with pytest.raises(ContractError, match="float16"):
        save_checkpoint(str(path), bad, "other digest")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.qnn"]


def test_checkpoint_non_ascii_name_round_trips_byte_exactly(tmp_path):
    cfg = tiny_config()
    named = [("stack.0.poids_é", Tensor(np.arange(6.0).reshape(2, 3))),
             ("重み.bias", Tensor(np.ones(3, dtype=np.float32)))]
    first, second = tmp_path / "a.qnn", tmp_path / "b.qnn"
    save_checkpoint(str(first), named, cfg.digest())
    digest, params = load_checkpoint(str(first))
    assert digest == cfg.digest() and list(params) == [name for name, _ in named]
    save_checkpoint(str(second), [(name, Tensor(data)) for name, data in params.items()], digest)
    assert second.read_bytes() == first.read_bytes()


def test_checkpoint_load_restores_evaluation(tmp_path):
    cfg = tiny_config()
    train_utts, valid_utts, _ = synth_utts()
    model = train_model = build_model(cfg)
    train(train_model, train_utts, valid_utts, cfg, out_dir=str(tmp_path))
    before = evaluate(model, valid_utts, cfg.batch_size)

    restored = build_model(cfg)
    load_into_model(str(tmp_path / "last.qnn"), restored, cfg.digest())
    after = evaluate(restored, valid_utts, cfg.batch_size)
    assert before == after


def test_checkpoint_digest_mismatch_lists_both(tmp_path):
    cfg = tiny_config()
    other = tiny_config(seed=99)
    model = build_model(cfg)
    path = str(tmp_path / "model.qnn")
    save_checkpoint(path, model.named_parameters(), cfg.digest())
    with pytest.raises(ContractError, match=f"{cfg.digest()}.*{other.digest()}"):
        load_into_model(path, build_model(other), other.digest())


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.qnn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(str(path))
