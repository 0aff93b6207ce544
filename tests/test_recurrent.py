"""Recurrent cell, bidirectional layer, and full-model behavior."""

import copy
import gc
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from qnn import autograd, layers, recurrent, worker
from qnn.autograd import Tape, Tensor, mul, op_result, tanh
from qnn.config import ModelConfig
from qnn.data import UtteranceBatch
from qnn.errors import ConfigError, ContractError, DimensionError
from qnn.gradcheck import gradient_check
from qnn.layers import FIXED_FRONT_ENDS, FixedFrontEnd
from qnn.recurrent import (
    GATES,
    BiRecurrentLayer,
    QLSTMCell,
    RealLSTMCell,
    build_model,
    count_params,
    gate_affine,
    layer_plan,
    lstm_gates,
    lstm_layer,
    param_breakdown,
    run_direction,
)
from qnn.training import Adam, cross_entropy_framewise
from reference_graphs import (add, add_bias, concat, linear_graph, matmul, mul_dropout, narrow,
                              neg_concat_quat_weight, reshape, sigmoid, two_direction_graph)


def zero_cell(cell):
    for _, p in cell.named_parameters():
        p.data[:] = 0.0
    return cell


def make_batch(features, lengths):
    t_max, batch, _ = features.shape
    mask = np.zeros((t_max, batch), dtype=bool)
    for b, n in enumerate(lengths):
        mask[:n, b] = True
    features = features * mask[:, :, None]
    labels = np.zeros((t_max, batch), dtype=np.int32)
    return UtteranceBatch(features.astype(np.float32), labels, mask, tuple(f"u{b}" for b in range(batch)))


# --- single step ---------------------------------------------------------


def step(cell, x, h_prev, c_prev):
    """One frame of run_direction's recurrence from a given state, on plain
    arrays: the cell's prepared maps, then lstm_gates on the gate-major
    (4, B, H) block."""
    wx, wh, bias = cell.prepared()
    hidden = cell.hidden_size
    affine = gate_affine(hidden, wh.dtype)
    gates = (x @ wx + bias + h_prev @ wh) * affine[0]
    block = np.ascontiguousarray(gates.reshape(-1, 4, hidden).transpose(1, 0, 2))
    h, c = np.empty_like(c_prev), np.empty_like(c_prev)
    lstm_gates(block, tuple(block), c_prev, [a[::hidden].reshape(4, 1, 1) for a in affine], c, np.empty_like(c), h)
    return h, c


def test_step_all_zero_gives_zero_state():
    rng = np.random.default_rng(0)
    cell = zero_cell(QLSTMCell(2, 2, rng, dtype=np.float64))
    x = Tensor(rng.standard_normal((1, 3, 8)))
    h1 = run_direction(cell, x, np.ones((1, 3), dtype=bool))
    assert np.array_equal(h1.data, np.zeros((1, 3, 8)))
    _, c1 = step(cell, x.data[0], np.zeros((3, 8)), np.zeros((3, 8)))
    assert np.array_equal(c1, np.zeros((3, 8)))


def test_step_zero_weights_halves_cell_state():
    rng = np.random.default_rng(1)
    cell = zero_cell(QLSTMCell(2, 2, rng, dtype=np.float64))
    x = rng.standard_normal((3, 8))
    v = rng.standard_normal((3, 8))
    h1, c1 = step(cell, x, np.zeros((3, 8)), v)
    assert np.allclose(c1, 0.5 * v, atol=1e-15)
    assert np.allclose(h1, 0.5 * np.tanh(0.5 * v), atol=1e-15)


def test_gate_ranges_and_hidden_bound():
    rng = np.random.default_rng(3)
    cell = QLSTMCell(3, 2, rng, dtype=np.float64)
    x = Tensor(3.0 * rng.standard_normal((6, 4, 12)))
    h = run_direction(cell, x, np.ones((6, 4), dtype=bool))
    assert np.all(np.abs(h.data) < 1.0)


def test_cell_state_conservation_under_gate_forcing():
    # forget bias +50 saturates sigma to exactly 1.0 in f64; input bias -50
    # leaves a contribution below one ulp of an O(1) cell state
    rng = np.random.default_rng(4)
    cell = QLSTMCell(2, 2, rng, dtype=np.float64)
    cell.b["f"].data[:] = 50.0
    cell.b["i"].data[:] = -50.0
    c = 1.0 + 0.5 * rng.standard_normal((3, 8))
    c0 = c.copy()
    h = np.zeros((3, 8))
    for _ in range(3):
        h, c = step(cell, rng.standard_normal((3, 8)), h, c)
        assert np.array_equal(c, c0)


# --- sequence rollout ----------------------------------------------------


def test_rollout_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    cell = QLSTMCell(2, 2, rng, dtype=np.float64)
    seq = rng.standard_normal((4, 3, 8))
    mask = np.ones((4, 3), dtype=bool)

    def build_loss():
        out = run_direction(cell, Tensor(seq), mask)
        return narrow(out, 0, 3, 1).sum()

    errors = gradient_check(build_loss, cell.named_parameters())
    assert max(errors.values()) < 1e-5, errors


def test_real_cell_rollout_gradients():
    rng = np.random.default_rng(6)
    cell = RealLSTMCell(5, 4, rng, dtype=np.float64)
    seq = rng.standard_normal((4, 2, 5))
    mask = np.ones((4, 2), dtype=bool)

    def build_loss():
        return run_direction(cell, Tensor(seq), mask).sum()

    errors = gradient_check(build_loss, cell.named_parameters())
    assert max(errors.values()) < 1e-5, errors


def test_run_direction_shape_errors():
    cell = QLSTMCell(2, 2, np.random.default_rng(7), dtype=np.float64)
    seq = Tensor(np.zeros((4, 3, 8)))
    with pytest.raises(DimensionError):
        run_direction(cell, Tensor(np.zeros((4, 3, 9))), np.ones((4, 3), dtype=bool))
    with pytest.raises(DimensionError):
        run_direction(cell, seq, np.ones((4, 2), dtype=bool))


def test_padded_frames_emit_zeros_and_leave_valid_frames_unchanged():
    rng = np.random.default_rng(8)
    cell = QLSTMCell(1, 1, rng, dtype=np.float64)
    seq = rng.standard_normal((5, 2, 4))
    mask = np.ones((5, 2), dtype=bool)
    mask[3:, 1] = False
    out = run_direction(cell, Tensor(seq), mask)
    short = run_direction(cell, Tensor(seq[:3, 1:2]), np.ones((3, 1), dtype=bool))
    assert np.allclose(out.data[:3, 1], short.data[:, 0], atol=1e-12)
    assert np.array_equal(out.data[3:, 1], np.zeros((2, 4)))


def graph_weights(cell):
    """The cell's (wx, wh, bias) as graph nodes, built the way the model
    built them before the direction node took the cell's parameters: per
    gate the structured matrix from neg and concat nodes (or the real leaf),
    then concat."""
    def gate_map(comps):
        return neg_concat_quat_weight(*comps.values()) if len(comps) == 4 else comps["weight"]

    return (concat([gate_map(cell.w[g]) for g in GATES], axis=1),
            concat([gate_map(cell.r[g]) for g in GATES], axis=1),
            concat([cell.b[g] for g in GATES], axis=0))


def reference_direction(cell, seq, mask):
    """Per-frame autograd unroll of run_direction, built from graph primitives."""
    t_len, batch, width = seq.shape
    hid = cell.hidden_size
    wx, wh, bias = graph_weights(cell)
    proj = reshape(add_bias(matmul(reshape(seq, (t_len * batch, width)), wx), bias), (t_len, batch, 4 * hid))
    h = c = Tensor(np.zeros((batch, hid), dtype=seq.dtype))
    outs = []
    for t in range(t_len):
        pre = add(reshape(narrow(proj, 0, t, 1), (batch, 4 * hid)), matmul(h, wh))
        f, i, o = (sigmoid(narrow(pre, 1, k * hid, hid)) for k in (0, 1, 3))
        c_new = add(mul(f, c), mul(i, tanh(narrow(pre, 1, 2 * hid, hid))))
        h_new = mul(o, tanh(c_new))
        keep = Tensor(np.broadcast_to(mask[t][:, None], (batch, hid)).astype(seq.dtype))
        h, c = mul(h_new, keep), mul(c_new, keep)  # a padded frame's state is zero
        outs.append(reshape(h, (1, batch, hid)))
    return concat(outs, axis=0)


def ragged_mask(t_len, lengths):
    return np.arange(t_len)[:, None] < np.array(lengths)[None, :]


def gapped_mask():
    # frames 2-3 of sequence 1 are padding between valid frames, so its
    # state is zero there and restarts from zero after them
    mask = ragged_mask(6, [6, 6, 4])
    mask[2:4, 1] = False
    return mask


RAGGED_MASKS = {
    "mid_batch_padding": ragged_mask(6, [6, 2, 6, 4]),
    "length_one_sequence": ragged_mask(5, [5, 1, 3]),
    "single_frame": ragged_mask(1, [1, 1]),
    "interior_gap": gapped_mask(),
}


def make_cell(kind, dtype, rng):
    cell = QLSTMCell(2, 3, rng, dtype=dtype) if kind == "qlstm" else RealLSTMCell(5, 6, rng, dtype=dtype)
    for _, p in cell.named_parameters():  # biases too, so no gate sits at its zero-bias value
        p.data[:] = rng.uniform(-1.0, 1.0, p.data.shape)
    return cell


def direction_grads(cell, seq, mask, direction, cotangent):
    leaf = Tensor(seq.copy(), requires_grad=True)
    for _, p in cell.named_parameters():
        p.zero_grad()
    out = direction(cell, leaf, mask)
    autograd.backward(autograd.sum_all(mul(out, Tensor(cotangent))))
    return out.data, [leaf.grad] + [p.grad.copy() for _, p in cell.named_parameters()]


@pytest.mark.parametrize("case", sorted(RAGGED_MASKS))
@pytest.mark.parametrize("kind", ["qlstm", "lstm"])
@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_fused_direction_matches_reference_unroll(case, kind, dtype, tol):
    rng = np.random.default_rng(22)
    mask = RAGGED_MASKS[case]
    cell = make_cell(kind, dtype, rng)
    seq = (2.0 * rng.standard_normal(mask.shape + (cell.input_size,))).astype(dtype)
    cotangent = rng.standard_normal(mask.shape + (cell.hidden_size,)).astype(dtype)
    out, grads = direction_grads(cell, seq, mask, run_direction, cotangent)
    ref_out, ref_grads = direction_grads(cell, seq, mask, reference_direction, cotangent)
    assert out.dtype == dtype and np.array_equal(out, ref_out)
    assert not out[~mask].any()
    names = ["input"] + [name for name, _ in cell.named_parameters()]
    for name, got, want in zip(names, grads, ref_grads):
        assert got.dtype == dtype, name
        assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want))), name


@pytest.mark.parametrize("kind", ["qlstm", "lstm"])
def test_ragged_rollout_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(23)
    cell = make_cell(kind, np.float64, rng)
    mask = np.concatenate([ragged_mask(6, [6, 2, 1, 4]), gapped_mask()[:, 1:2]], axis=1)
    seq = Tensor(rng.standard_normal((6, 5, cell.input_size)), requires_grad=True)
    weights = Tensor(rng.standard_normal((6, 5, cell.hidden_size)))

    def build_loss():
        return mul(run_direction(cell, seq, mask), weights).sum()

    errors = gradient_check(build_loss, [("input", seq)] + cell.named_parameters())
    assert max(errors.values()) < 1e-6, errors


def parent_lstm_gates(gates, c_prev, affine, c_out, tanh_out, h_out):
    """lstm_gates as the parent kernel ran it, on the (B, 4*hidden) block
    [f | i | c | o] with gate_affine's per-column (scale, shift)."""
    scale, shift = affine
    np.tanh(gates, out=gates)
    gates *= scale
    gates += shift
    n = c_prev.shape[-1]
    f, i, g, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:3 * n], gates[:, 3 * n:]
    np.multiply(f, c_prev, out=c_out)
    c_out += i * g
    np.tanh(c_out, out=tanh_out)
    np.multiply(o, tanh_out, out=h_out)


def parent_lstm_direction(proj, wh, mask):
    """The fused node before it owned the input projection: proj is the
    (T, B, 4*hidden) output of the matmul -> add_bias -> reshape nodes."""
    t_len, batch, width = proj.shape
    hidden = width // 4
    dtype = proj.data.dtype
    affine = gate_affine(hidden, dtype)
    gates = proj.data * affine[0]
    wh_scaled = wh.data * affine[0]
    recurrent = np.empty((batch, width), dtype=dtype)
    tanh_c = np.empty((t_len, batch, hidden), dtype=dtype)
    h_states = np.zeros((t_len + 1, batch, hidden), dtype=dtype)
    c_states = np.zeros((t_len + 1, batch, hidden), dtype=dtype)
    keeps = [None if m.all() else m[:, None].astype(dtype) for m in mask]
    for t, keep in enumerate(keeps):
        np.matmul(h_states[t], wh_scaled, out=recurrent)
        gates[t] += recurrent
        parent_lstm_gates(gates[t], c_states[t], affine, c_states[t + 1], tanh_c[t], h_states[t + 1])
        if keep is not None:
            drop = ~mask[t][:, None]
            np.copyto(h_states[t + 1], h_states[t], where=drop)
            np.copyto(c_states[t + 1], c_states[t], where=drop)
    out = h_states[1:] * mask[:, :, None]

    def backward(grad):
        f, i, g, o = np.split(gates, 4, axis=2)
        local = np.concatenate([c_states[:-1] * f * (1 - f), g * i * (1 - i), i * (1 - g * g),
                                tanh_c * o * (1 - o)], axis=2)
        through = o * (1 - tanh_c * tanh_c)
        d_pre = np.empty_like(gates)
        d_h = d_c = np.zeros((batch, hidden), dtype=dtype)
        for t in reversed(range(t_len)):
            keep = keeps[t]
            if keep is None:
                d_h = d_h + grad[t]
                d_h_skip = d_c_skip = 0
            else:
                d_h = d_h + grad[t] * keep
                d_h, d_h_skip = d_h * keep, d_h * (1 - keep)
                d_c, d_c_skip = d_c * keep, d_c * (1 - keep)
            d_c = d_c + d_h * through[t]
            d_pre[t] = np.concatenate((d_c, d_c, d_c, d_h), axis=1) * local[t]
            d_c = d_c * f[t] + d_c_skip
            d_h = d_pre[t] @ wh.data.T + d_h_skip
        d_wh = h_states[:-1].reshape(-1, hidden).T @ d_pre.reshape(-1, width)
        return d_pre, d_wh

    return op_result(out, (proj, wh), "lstm_direction", backward)


def parent_direction(cell, seq, mask):
    t_len, batch, width = seq.shape
    wx, wh, bias = graph_weights(cell)
    proj = add_bias(matmul(reshape(seq, (t_len * batch, width)), wx), bias)
    return parent_lstm_direction(reshape(proj, (t_len, batch, 4 * cell.hidden_size)), wh, mask)


# the parent kernel carries the state through padded frames, which equals
# the zero-state rule only when every sequence's padding comes after it
RIGHT_PADDED = sorted(set(RAGGED_MASKS) - {"interior_gap"})


@pytest.mark.parametrize("case", RIGHT_PADDED)
@pytest.mark.parametrize("kind", ["qlstm", "lstm"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_projection_bit_equal_to_parent_path(case, kind, dtype):
    rng = np.random.default_rng(24)
    mask = RAGGED_MASKS[case]
    cell = make_cell(kind, dtype, rng)
    seq = (2.0 * rng.standard_normal(mask.shape + (cell.input_size,))).astype(dtype)
    cotangent = rng.standard_normal(mask.shape + (cell.hidden_size,)).astype(dtype)
    out, grads = direction_grads(cell, seq, mask, run_direction, cotangent)
    ref_out, ref_grads = direction_grads(cell, seq, mask, parent_direction, cotangent)
    assert np.array_equal(out, ref_out)
    names = ["input"] + [name for name, _ in cell.named_parameters()]
    for name, got, want in zip(names, grads, ref_grads):
        assert got.dtype == dtype and np.array_equal(got, want), name


def test_training_step_tape_has_one_node_per_layer():
    cfg = toy_config(dropout=0.2, precision="f32")
    rng = np.random.default_rng(25)
    batch = make_batch(rng.standard_normal((6, 3, 8)), [6, 4, 2])
    model = build_model(cfg)
    loss = cross_entropy_framewise(model.forward(batch, training=True), batch.labels, batch.mask)
    nodes = [t.node for t in Tape.from_root(loss).records if t.node is not None]
    ops = Counter(node.op for node in nodes)
    assert ops == {"linear": 2, "tanh": 1, "quat_normalize": 1, "dropout": 3, "lstm_layer": 2,
                   "cross_entropy": 1}, ops
    layers = [node for node in nodes if node.op == "lstm_layer"]
    for node, layer in zip(layers, model.stack):
        assert [id(p) for p in node.inputs[1:]] == [id(p) for _, p in layer.named_parameters()]
        feeders = [inp.node.op for inp in node.inputs if inp.node is not None]
        assert feeders == ["dropout"], feeders  # only the dropout before the layer


def test_direction_dtype_mismatch_is_contract_error():
    cell = QLSTMCell(2, 2, np.random.default_rng(26), dtype=np.float32)
    seq = Tensor(np.zeros((3, 2, 8), dtype=np.float64))
    with pytest.raises(ContractError):
        run_direction(cell, seq, np.ones((3, 2), dtype=bool))


# --- bidirectional layer -------------------------------------------------


def test_bidirectional_single_frame_is_sum_of_directions():
    rng = np.random.default_rng(9)
    layer = BiRecurrentLayer(
        QLSTMCell(2, 2, rng, dtype=np.float64), QLSTMCell(2, 2, rng, dtype=np.float64)
    )
    x = rng.standard_normal((1, 3, 8))
    mask = np.ones((1, 3), dtype=bool)
    out = layer.forward(Tensor(x), mask)
    hf, hb = (run_direction(cell, Tensor(x), mask).data for cell in (layer.fwd, layer.bwd))
    assert np.allclose(out.data, hf + hb, atol=1e-15)


@pytest.mark.parametrize("case", sorted(RAGGED_MASKS))
@pytest.mark.parametrize("kind", ["qlstm", "lstm"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_node_bit_equal_to_two_direction_graph(case, kind, dtype):
    rng = np.random.default_rng(27)
    mask = RAGGED_MASKS[case]
    layer = BiRecurrentLayer(make_cell(kind, dtype, rng), make_cell(kind, dtype, rng))
    seq = (2.0 * rng.standard_normal(mask.shape + (layer.fwd.input_size,))).astype(dtype)
    cotangent = rng.standard_normal(mask.shape + (layer.fwd.hidden_size,)).astype(dtype)
    out, grads = direction_grads(layer, seq, mask, BiRecurrentLayer.forward, cotangent)
    ref_out, ref_grads = direction_grads(layer, seq, mask, two_direction_graph, cotangent)
    assert out.dtype == dtype and np.array_equal(out, ref_out)
    names = ["input"] + [name for name, _ in layer.named_parameters()]
    for name, got, want in zip(names, grads, ref_grads):
        assert got.dtype == dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("case", sorted(RAGGED_MASKS))
@pytest.mark.parametrize("kind", ["qlstm", "lstm"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_cells", [1, 2])
def test_layer_output_is_the_same_recorded_or_not(case, kind, dtype, n_cells):
    # the kernel fills its gate caches only while recording; the output must not notice
    rng = np.random.default_rng(42)
    mask = RAGGED_MASKS[case]
    cells = [make_cell(kind, dtype, rng) for _ in range(n_cells)]
    seq = Tensor((2.0 * rng.standard_normal(mask.shape + (cells[0].input_size,))).astype(dtype),
                 requires_grad=True)
    recorded = lstm_layer(seq, mask, cells)
    with autograd.no_grad():
        plain = lstm_layer(seq, mask, cells)
    assert recorded.node is not None and plain.node is None
    assert recorded.dtype == dtype and np.array_equal(recorded.data, plain.data)


@pytest.mark.parametrize("kind", ["qlstm", "lstm"])
@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("n_cells", [1, 2])
def test_a_gap_restarts_the_state(kind, dtype, tol, n_cells):
    # each stretch of sequence 1 on either side of its gap runs as if alone,
    # in both directions
    rng = np.random.default_rng(43)
    mask = gapped_mask()
    cells = [make_cell(kind, dtype, rng) for _ in range(n_cells)]
    seq = (2.0 * rng.standard_normal(mask.shape + (cells[0].input_size,))).astype(dtype)
    out = lstm_layer(Tensor(seq), mask, cells).data[:, 1]
    assert not out[2:4].any()
    for frames in (slice(0, 2), slice(4, 6)):
        alone = lstm_layer(Tensor(seq[frames, 1:2]), np.ones((2, 1), dtype=bool), cells).data[:, 0]
        assert np.max(np.abs(out[frames] - alone)) <= tol


@pytest.mark.parametrize("n_cells", [1, 2])
def test_layer_output_survives_its_backward(n_cells):
    # a one-cell layer's output is a view of the h states the backward reads,
    # and the backward writes over its other caches
    rng = np.random.default_rng(44)
    mask = RAGGED_MASKS["mid_batch_padding"]
    cells = [make_cell("qlstm", np.float32, rng) for _ in range(n_cells)]
    seq = Tensor((2.0 * rng.standard_normal(mask.shape + (cells[0].input_size,))).astype(np.float32),
                 requires_grad=True)
    out = lstm_layer(seq, mask, cells)
    before = out.data.copy()
    autograd.backward(autograd.sum_all(mul(out, Tensor(rng.standard_normal(out.shape).astype(np.float32)))))
    assert np.array_equal(out.data, before)


def test_training_step_memory_stays_within_bounds(monkeypatch):
    """One ragged training step's forward-graph bytes and traced peak, run
    through the in-process stand-in: tracemalloc sees neither the helper
    process nor the buffer it shares. The bounds sit above the measured
    5,315,240 and 6,021,857 bytes, with both directions' caches held
    through the layer's backward and, freed, the arrays no backward reads:
    the R2H dense output and every pre-dropout output. Keeping those, as
    the model did before (5,970,775 and 6,675,115), fails both bounds.
    Caching tanh(c) per frame, a separate (T, B, 4H) gate-gradient buffer
    or float dropout masks each pushed one over the earlier bounds of
    6,300,000 and 7,000,000. So did the copies of x, wx and wh that only
    the helper process needs, made on this path too (7.12 MB), and a
    backward that held tanh(c), its square and the forget-gate copy at
    once, instead of writing tanh(c) over the c states (7.13 MB)."""
    monkeypatch.setattr(recurrent, "_helper", worker.InProcess(recurrent._direction))
    cfg = ModelConfig(front_end="r2h-norm", r2h_size=64, stack_kind="qlstm", depth=2,
                      hidden_real_width=64, classes=4, dropout=0.2, input_dim=40, seed=3, precision="f32")
    rng = np.random.default_rng(40)
    batch = make_batch(rng.standard_normal((160, 4, 40)), [160, 97, 160, 33])
    model = build_model(cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = cross_entropy_framewise(model.forward(batch, training=True), batch.labels, batch.mask)
        graph = tracemalloc.get_traced_memory()[0] - base
        autograd.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert graph < 5_600_000, graph
    assert peak < 6_200_000, peak


def test_bidirectional_cells_must_share_the_hidden_width():
    rng = np.random.default_rng(12)
    with pytest.raises(ConfigError, match="hidden width"):
        BiRecurrentLayer(QLSTMCell(2, 2, rng), QLSTMCell(2, 3, rng))


def test_bidirectional_palindrome_symmetry():
    rng = np.random.default_rng(10)
    cell = QLSTMCell(2, 2, rng, dtype=np.float64)
    layer = BiRecurrentLayer(cell, cell)
    half = rng.standard_normal((3, 2, 8))
    seq = np.concatenate([half, half[::-1]])  # palindromic in time
    out = layer.forward(Tensor(seq), np.ones((6, 2), dtype=bool)).data
    assert np.array_equal(out, out[::-1])


def test_bidirectional_zero_weights_zero_output():
    rng = np.random.default_rng(11)
    layer = BiRecurrentLayer(
        zero_cell(QLSTMCell(2, 3, rng, dtype=np.float64)),
        zero_cell(QLSTMCell(2, 3, rng, dtype=np.float64)),
    )
    out = layer.forward(Tensor(rng.standard_normal((4, 2, 8))), np.ones((4, 2), dtype=bool))
    assert np.array_equal(out.data, np.zeros((4, 2, 12)))


def test_bidirectional_gradients():
    rng = np.random.default_rng(13)
    layer = BiRecurrentLayer(
        QLSTMCell(2, 2, rng, dtype=np.float64), QLSTMCell(2, 2, rng, dtype=np.float64)
    )
    seq = rng.standard_normal((3, 2, 8))
    mask = np.ones((3, 2), dtype=bool)
    mask[2, 1] = False

    def build_loss():
        return layer.forward(Tensor(seq), mask).sum()

    errors = gradient_check(build_loss, layer.named_parameters())
    assert max(errors.values()) < 1e-5, errors


# --- front ends ----------------------------------------------------------


def test_naive_quat_front_layout():
    transform, width = FIXED_FRONT_ENDS["naive-quat"]
    front = FixedFrontEnd(transform)
    frame = np.arange(40.0).reshape(1, 1, 40)
    out = front.forward(frame).data[0, 0]
    assert out.shape == (width(40),) == (40,)
    # quaternion k comes from coefficients (4k..4k+3); quarter-block layout
    for k in range(10):
        assert out[k] == frame[0, 0, 4 * k]          # r block
        assert out[10 + k] == frame[0, 0, 4 * k + 1]  # x block
        assert out[20 + k] == frame[0, 0, 4 * k + 2]  # y block
        assert out[30 + k] == frame[0, 0, 4 * k + 3]  # z block


@pytest.mark.parametrize("front_end", sorted(FIXED_FRONT_ENDS))
def test_fixed_front_end_width_is_its_transforms(front_end):
    transform, width = FIXED_FRONT_ENDS[front_end]
    for dim in range(1, 10):
        assert transform(np.zeros((2, 3, dim))).shape == (2, 3, width(dim)), dim


def test_naive_quat_front_pads_to_multiple_of_four():
    front = FixedFrontEnd(FIXED_FRONT_ENDS["naive-quat"][0])
    out = front.forward(np.ones((2, 1, 6), dtype=np.float32))
    assert out.shape == (2, 1, 8)
    assert np.array_equal(out.data[1, 0], [1, 1, 1, 1, 1, 0, 1, 0])  # y and z of quaternion 1 are padding


def test_identity_front_is_passthrough():
    front = FixedFrontEnd(FIXED_FRONT_ENDS["identity"][0])
    x = np.random.default_rng(14).standard_normal((3, 2, 5))
    assert np.array_equal(front.forward(x).data, x)
    assert front.named_parameters() == []


@pytest.mark.parametrize("front_end", sorted(FIXED_FRONT_ENDS))
def test_f64_model_casts_a_float32_batch_and_trains(front_end):
    """The model casts the batch to its parameters' dtype before any front
    end, so a parameter-free front end feeds float64 to an f64 stack."""
    model = build_model(toy_config(front_end=front_end, dropout=0.2))
    batch = make_batch(np.random.default_rng(23).standard_normal((4, 2, 8)), [4, 3])
    assert batch.features.dtype == np.float32
    logits = model.forward(batch, training=True)
    assert logits.dtype == np.float64
    autograd.backward(cross_entropy_framewise(logits, batch.labels, batch.mask))
    params = model.named_parameters()
    assert all(p.grad.dtype == np.float64 and np.isfinite(p.grad).all() for _, p in params)
    before = model.output.weight.data.copy()
    Adam(params, lr=1e-3).step()
    assert model.output.weight.dtype == np.float64 and not np.array_equal(model.output.weight.data, before)


# --- full model ----------------------------------------------------------


def toy_config(**overrides):
    base = dict(
        front_end="r2h-norm",
        r2h_size=8,
        r2h_activation="tanh",
        stack_kind="qlstm",
        depth=2,
        hidden_real_width=8,
        classes=3,
        dropout=0.0,
        input_dim=8,
        seed=21,
        precision="f64",
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_model_forward_shapes_and_determinism():
    cfg = toy_config()
    rng = np.random.default_rng(15)
    batch = make_batch(rng.standard_normal((5, 2, 8)), [5, 3])
    a = build_model(cfg).forward(batch).data
    b = build_model(cfg).forward(batch).data
    assert a.shape == (5, 2, 3)
    assert np.array_equal(a, b)


def test_model_dropout_reproducible_across_builds():
    cfg = toy_config(dropout=0.5, precision="f32")
    rng = np.random.default_rng(16)
    batch = make_batch(rng.standard_normal((4, 2, 8)), [4, 4])
    a = build_model(cfg).forward(batch, training=True).data
    b = build_model(cfg).forward(batch, training=True).data
    assert np.array_equal(a, b)


def test_model_masking_invariance_logits_and_grads():
    cfg = toy_config()
    rng = np.random.default_rng(17)
    frames = rng.standard_normal((5, 2, 8))
    short = make_batch(frames, [5, 3])
    padded = make_batch(np.concatenate([frames, np.zeros((3, 2, 8))]), [5, 3])

    def masked_sum(model, batch):
        logits = model.forward(batch)
        m = np.broadcast_to(batch.mask[:, :, None], logits.shape).astype(np.float64)
        return autograd.mul(logits, Tensor(m)).sum()

    model_a = build_model(cfg)
    loss_a = masked_sum(model_a, short)
    autograd.backward(loss_a)
    logits_a = model_a.forward(short).data

    model_b = build_model(cfg)
    loss_b = masked_sum(model_b, padded)
    autograd.backward(loss_b)
    logits_b = model_b.forward(padded).data

    assert np.max(np.abs(logits_b[:5] - logits_a)) < 1e-6
    grads_a = dict(model_a.named_parameters())
    for name, p in model_b.named_parameters():
        assert np.max(np.abs(p.grad - grads_a[name].grad)) < 1e-6, name


def test_backward_frees_the_stack_output_while_the_loss_is_held():
    # in evaluation mode the stack output is the next layer's input, which the
    # graph holds until the sweep; a training forward frees it at once
    # (test_training_forward_frees_the_arrays_no_backward_reads)
    model = build_model(toy_config(dropout=0.2))
    batch = make_batch(np.random.default_rng(28).standard_normal((6, 3, 8)), [6, 4, 2])
    seen = {}

    def watch(obj, name):
        forward = obj.forward
        def watched(*args):
            seen[name] = forward(*args)
            return seen[name]
        obj.forward = watched

    watch(model.front_end, "front")
    watch(model.stack[0], "stack0")
    loss = cross_entropy_framewise(model.forward(batch), batch.labels, batch.mask)
    stack0_out = weakref.ref(seen.pop("stack0").data)
    front_node = seen.pop("front").node
    front_backward = front_node.backward
    dead_before_front = []

    def front_backward_after_stack(g):  # the front end's node runs after stack 0's
        dead_before_front.append(stack0_out() is None)
        return front_backward(g)

    front_node.backward = front_backward_after_stack
    del front_node
    assert stack0_out() is not None
    autograd.backward(loss)
    assert dead_before_front == [True]
    assert np.isfinite(loss.item())


def watch_arrays(monkeypatch):
    """Record, in call order, each tensor the model hands to its split
    activation (the R2H dense output) and to dropout (the front-end and
    stack layer outputs), with weak references to its array and that
    array's bases. The tensors themselves are held, as the graph holds them."""
    seen = {"dense": [], "dropped": []}

    def watch(kind, t):
        arrays, a = [], t.data
        while a is not None:
            arrays.append(weakref.ref(a))
            a = a.base
        seen[kind].append((t, arrays))

    for name, op in list(layers.ACTIVATIONS.items()):
        def watched_activation(a, op=op):
            watch("dense", a)
            return op(a)
        monkeypatch.setitem(layers.ACTIVATIONS, name, watched_activation)
    dropout = recurrent.quaternion_dropout

    def watched_dropout(x, *args):
        watch("dropped", x)
        return dropout(x, *args)

    monkeypatch.setattr(recurrent, "quaternion_dropout", watched_dropout)
    return seen


def freed(entry) -> bool:
    """Whether a watched array and all its bases are gone; the tensor then
    holds an empty array of its dtype."""
    t, arrays = entry
    gone = all(ref() is None for ref in arrays)
    assert not gone or (t.data.shape == (0,) and t.dtype == np.float32)
    return gone


def reference_forward(model, batch, dropout_rng):
    """The model's training forward with nothing freed: the dense layers
    as linear_graph, dropout as mul_dropout drawn from dropout_rng and each
    layer as two_direction_graph, reference-graph nodes; the activation and
    quat_normalize are the library's."""
    x = Tensor(batch.features.astype(model.output.weight.dtype))
    front = model.front_end
    if isinstance(front, FixedFrontEnd):
        x = Tensor(front.transform(x.data))
    else:
        x = layers.ACTIVATIONS[front.activation](linear_graph(front.dense, x))
        x = layers.quat_normalize(x) if front.normalized else x
    x = mul_dropout(x, model.dropout, dropout_rng, model.unit)
    for layer in model.stack:
        x = mul_dropout(two_direction_graph(layer, x, batch.mask), model.dropout, dropout_rng, model.unit)
    return linear_graph(model.output, x)


@pytest.mark.parametrize("front_end,activation", [(fe, act) for fe in ("r2h-norm", "r2h")
                                                  for act in layers.ACTIVATIONS]
                         + [(fe, "tanh") for fe in sorted(FIXED_FRONT_ENDS)])
def test_training_forward_frees_the_arrays_no_backward_reads(front_end, activation, monkeypatch):
    """A recorded training forward frees the R2H dense output once the
    activation has read it, and each pre-dropout output once dropout has.
    Kept: the output of an r2h encoder without normalization, which its
    activation's backward reads, and a fixed front end's output, which is
    not in the graph. The backward then gives the reference graph's bits."""
    cfg = toy_config(front_end=front_end, r2h_activation=activation, dropout=0.3, precision="f32")
    batch = make_batch(np.random.default_rng(29).standard_normal((7, 3, 8)), [7, 5, 2])
    model = build_model(cfg)
    dropout_rng = copy.deepcopy(model.dropout_rng)
    seen = watch_arrays(monkeypatch)
    loss = cross_entropy_framewise(model.forward(batch, training=True), batch.labels, batch.mask)
    gc.collect()
    assert [freed(e) for e in seen["dense"]] == [True] * (front_end not in FIXED_FRONT_ENDS)
    front, *stack = seen["dropped"]
    assert freed(front) == (front_end == "r2h-norm")
    assert len(stack) == len(model.stack) and all(freed(e) for e in stack)
    autograd.backward(loss)
    grads = [p.grad for _, p in model.named_parameters()]
    for _, p in model.named_parameters():
        p.zero_grad()
    monkeypatch.undo()
    ref_loss = cross_entropy_framewise(reference_forward(model, batch, dropout_rng), batch.labels, batch.mask)
    assert ref_loss.item() == loss.item()
    autograd.backward(ref_loss)
    for (name, p), got in zip(model.named_parameters(), grads):
        assert np.array_equal(got, p.grad), name


@pytest.mark.parametrize("mode", ["eval", "no_grad"])
def test_forward_without_dropout_or_graph_frees_no_layer_output(mode, monkeypatch):
    """Evaluation-mode dropout passes its input on, so the front-end and
    layer outputs are the next layers' inputs and stay; the encoder still
    frees its recorded dense output, which only its activation reads. Under
    no_grad nothing is recorded and nothing is released."""
    model = build_model(toy_config(dropout=0.3, precision="f32"))
    batch = make_batch(np.random.default_rng(30).standard_normal((7, 3, 8)), [7, 5, 2])
    seen = watch_arrays(monkeypatch)
    if mode == "eval":
        logits = model.forward(batch)
    else:
        with autograd.no_grad():
            logits = model.forward(batch, training=True)
    gc.collect()
    assert [freed(e) for e in seen["dense"]] == [mode == "eval"]
    assert len(seen["dropped"]) == 1 + len(model.stack)
    assert not any(freed(e) for e in seen["dropped"])
    assert all(t.data.shape[:2] == (7, 3) for t, _ in seen["dropped"])
    assert logits.shape == (7, 3, 3)


def test_full_toy_model_gradient_check():
    cfg = toy_config()
    rng = np.random.default_rng(18)
    batch = make_batch(rng.standard_normal((5, 2, 8)), [5, 4])
    model = build_model(cfg)
    mask_t = Tensor(np.broadcast_to(batch.mask[:, :, None], (5, 2, 3)).astype(np.float64))

    def build_loss():
        return autograd.mul(model.forward(batch), mask_t).sum()

    errors = gradient_check(build_loss, model.named_parameters())
    assert max(errors.values()) < 1e-5, errors


@pytest.mark.parametrize("front_end,stack_kind", [("r2h-norm", "qlstm"), ("naive-quat", "qlstm"),
                                                   ("identity", "lstm")])
def test_layer_plan_is_the_built_width_chain(front_end, stack_kind):
    for depth in (0, 3):
        cfg = toy_config(front_end=front_end, stack_kind=stack_kind, input_dim=6, r2h_size=12, depth=depth)
        model = build_model(cfg)
        front_width, cell, hidden = layer_plan(cfg)
        features = np.zeros((2, 1, cfg.input_dim), dtype=cfg.dtype)
        built = [model.front_end.forward(features).shape[-1]] + [layer.fwd.hidden_size for layer in model.stack]
        assert [front_width] + [hidden] * depth == built
        assert built == [layer.fwd.input_size for layer in model.stack] + [model.output.n_in]
        assert hidden == built[-1]  # the output layer's input
        assert all(type(c) is cell and c.input_size == layer.fwd.input_size
                   for layer in model.stack for c in (layer.fwd, layer.bwd))
        assert model.unit == len(cell.places)


def test_model_construction_errors():
    with pytest.raises(ConfigError):
        build_model(toy_config(front_end="identity", input_dim=10))  # 10 not divisible by 4
    with pytest.raises(ConfigError):
        build_model(toy_config(dropout=1.5))
    with pytest.raises(ConfigError):
        build_model(toy_config(front_end="fourier"))


# --- parameter accounting ------------------------------------------------


def test_stack_weight_ratio_exactly_four():
    width = 64
    q = toy_config(front_end="r2h", r2h_size=width, hidden_real_width=width,
                   depth=4, stack_kind="qlstm", precision="f32")
    r = toy_config(front_end="r2h", r2h_size=width, hidden_real_width=width,
                   depth=4, stack_kind="lstm", precision="f32")
    qs = param_breakdown(build_model(q))["stack_weight_scalars"]
    rs = param_breakdown(build_model(r))["stack_weight_scalars"]
    assert rs == 4 * qs
    # symbolic: depth 4 x 2 directions x 4 gates x (W + R, each width x width)
    assert rs == 4 * 2 * 4 * 2 * width * width


def test_real_lstm_cell_matches_standard_count():
    n, m = 12, 7
    cell = RealLSTMCell(m, n, np.random.default_rng(19))
    total = sum(p.size for _, p in cell.named_parameters())
    assert total == 4 * (n * m + n * n + n)


def test_qlstm_cell_count():
    # in_q=256, hidden_q=256: each gate W holds 4*256*256 weight scalars
    cell = QLSTMCell(4, 8, np.random.default_rng(20))
    per_gate = 4 * 4 * 8 + 4 * 8 * 8
    assert sum(p.size for _, p in cell.named_parameters() if p.data.ndim == 2) == 4 * per_gate
    total = sum(p.size for _, p in cell.named_parameters())
    assert total == 4 * per_gate + 4 * (4 * 8)


def test_param_breakdown_depth_zero():
    cfg = toy_config(depth=0)
    model = build_model(cfg)
    parts = param_breakdown(model)
    assert parts["stack"] == 0 and parts["stack_weight_scalars"] == 0
    assert parts["total"] == parts["front_end"] + parts["output"]
    assert parts["total"] == count_params(model)
    # r2h dense 8->8 plus bias, output 8->3 plus bias
    assert parts["front_end"] == 8 * 8 + 8
    assert parts["output"] == 8 * 3 + 3
