"""Quaternion layer semantics, checked against the exact scalar algebra."""

import numpy as np
import pytest

from qnn import quat
from qnn.autograd import Tape, Tensor, backward, mul, op_result, sum_all
from qnn.config import ModelConfig
from qnn.data import SynthSpec, generate_synthetic, make_batches
from qnn.errors import ConfigError, ContractError, DimensionError
from qnn.gradcheck import gradient_check
from qnn.layers import (
    NORM_EPS,
    QUAT_PLACES,
    RealLinear,
    RealToQuatEncoder,
    block_grads,
    block_matrix,
    chi4_init,
    quat_normalize,
    quaternion_dropout,
    split_activation,
)
from qnn import recurrent
from qnn.recurrent import GATES, QLSTMCell, RealLSTMCell, build_model, lstm_layer
from qnn.training import cross_entropy_framewise, train
from reference_graphs import add, concat, linear_graph, matmul, narrow, neg_concat_quat_weight


def unpack_quaternions(v: np.ndarray):
    """Quarter-block real vector of length 4H -> list of H Quaternions."""
    h = v.shape[-1] // 4
    return [quat.Quaternion(float(v[j]), float(v[h + j]), float(v[2 * h + j]), float(v[3 * h + j]))
            for j in range(h)]


def reference_quat_map(comps, bias: np.ndarray, x_row: np.ndarray) -> np.ndarray:
    """Per-quaternion Hamilton sums computed with the scalar oracle."""
    in_q, h_out = comps[0].shape
    xs = unpack_quaternions(x_row)
    out = np.zeros(4 * h_out, dtype=np.float64)
    for o in range(h_out):
        acc = quat.Quaternion(0.0, 0.0, 0.0, 0.0)
        for j in range(in_q):
            w = quat.Quaternion(*(float(c[j, o]) for c in comps))
            p = quat.hamilton(w, xs[j])
            acc = quat.Quaternion(acc.r + p.r, acc.x + p.x, acc.y + p.y, acc.z + p.z)
        for k, part in enumerate((acc.r, acc.x, acc.y, acc.z)):
            out[k * h_out + o] = part + bias[k * h_out + o]
    return out


def quat_map(comps, x: np.ndarray) -> np.ndarray:
    """x times the structured matrix of one quaternion map, as a gate applies it."""
    return x @ block_matrix([comps], QUAT_PLACES)


def test_identity_weight_passes_input_through():
    rng = np.random.default_rng(0)
    comps = (np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    x = rng.normal(size=(3, 4))
    assert np.allclose(quat_map(comps, x), x, atol=1e-15)


def test_single_quaternion_matches_hamilton():
    rng = np.random.default_rng(1)
    comps = chi4_init(1, 1, rng, dtype=np.float32)
    qw = quat.Quaternion(*(float(c[0, 0]) for c in comps))
    qx = quat.Quaternion(0.3, -1.2, 0.7, 2.0)
    out = quat_map(comps, np.array([[qx.r, qx.x, qx.y, qx.z]], dtype=np.float32))[0]
    expected = quat.hamilton(qw, qx)
    assert np.abs(out - expected.as_array()).max() < 1e-6


@pytest.mark.parametrize("in_q,out_q", [(1, 1), (2, 3), (8, 8)])
def test_structured_matmul_equals_hamilton_sums_f64(in_q, out_q):
    rng = np.random.default_rng(2)
    comps = chi4_init(in_q, out_q, rng, dtype=np.float64)
    bias = rng.normal(size=4 * out_q)
    x = rng.normal(size=(5, 4 * in_q))
    got = quat_map(comps, x) + bias
    for n in range(x.shape[0]):
        expected = reference_quat_map(comps, bias, x[n])
        assert np.abs(got[n] - expected).max() < 1e-12


def test_structured_matmul_equals_hamilton_sums_f32():
    rng = np.random.default_rng(3)
    comps = chi4_init(4, 4, rng, dtype=np.float32)
    x = rng.normal(size=(3, 16)).astype(np.float32)
    got = quat_map(comps, x)
    for n in range(x.shape[0]):
        expected = reference_quat_map(comps, np.zeros(16), x[n].astype(np.float64))
        assert np.abs(got[n] - expected).max() < 1e-5


def test_parameter_count_quarter_of_real():
    rng = np.random.default_rng(4)
    qcell = QLSTMCell(64, 64, rng)  # 256 real in/out
    rcell = RealLSTMCell(256, 256, rng)
    q_weights, r_weights = (sum(p.size for _, p in cell.named_parameters() if p.data.ndim == 2)
                            for cell in (qcell, rcell))
    assert q_weights == 4 * 2 * 4 * 64 * 64  # gates x (W, R) x components x in_q x out_q
    assert r_weights == 524_288 == 4 * q_weights
    n_params = sum(p.size for _, p in qcell.named_parameters())
    assert n_params == q_weights + 4 * 256


def test_bad_input_width():
    rng = np.random.default_rng(5)
    with pytest.raises(DimensionError):
        RealLinear(8, 2, rng)(Tensor(np.zeros((1, 7), dtype=np.float32)))
    with pytest.raises(DimensionError, match="trailing dim 7"):
        RealLinear(8, 2, rng)(Tensor(np.zeros((3, 2, 7), dtype=np.float32)))
    with pytest.raises(ContractError, match="float64"):
        RealLinear(8, 2, rng)(Tensor(np.zeros((3, 8), dtype=np.float64)))
    with pytest.raises(DimensionError):  # not a whole number of quaternions
        quat_normalize(Tensor(np.zeros((1, 7), dtype=np.float32)))


def test_quat_linear_gradients():
    # block_grads is the gradient of block_matrix, here for two maps side by
    # side as a cell lays out its gates
    rng = np.random.default_rng(6)
    comps = [Tensor(c, requires_grad=True) for _ in range(2) for c in chi4_init(3, 2, rng, dtype=np.float64)]
    x = Tensor(rng.normal(size=(4, 12)), requires_grad=True)
    cotangent = Tensor(rng.normal(size=(4, 16)))

    def build_loss():
        w = op_result(block_matrix([[c.data for c in comps[:4]], [c.data for c in comps[4:]]], QUAT_PLACES),
                      comps, "quat_maps", lambda g: block_grads(g, QUAT_PLACES, 2))
        return sum_all(mul(matmul(x, w), cotangent))

    errs = gradient_check(build_loss, [(f"w{k}", c) for k, c in enumerate(comps)] + [("x", x)])
    assert max(errs.values()) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_q,out_q", [(64, 32), (32, 32), (3, 2)])
def test_quat_weight_bit_equal_to_neg_concat_reference(dtype, in_q, out_q):
    rng = np.random.default_rng(22)
    comps = [Tensor(c, requires_grad=True) for c in chi4_init(in_q, out_q, rng, dtype=dtype)]
    cotangent = rng.standard_normal((4 * in_q, 4 * out_q)).astype(dtype)
    w = neg_concat_quat_weight(*comps)
    backward(sum_all(mul(w, Tensor(cotangent))))
    plain = [block_matrix([[c.data for c in comps]], QUAT_PLACES)] + block_grads(cotangent, QUAT_PLACES, 1)
    for got, want in zip(plain, [w.data] + [c.grad for c in comps]):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_quat_weight_keeps_non_finite_entries_in_their_blocks():
    # copies and negations only: an inf in one component reaches exactly its
    # four blocks, and no inf * 0 turns the other twelve into NaN
    rng = np.random.default_rng(23)
    comps = chi4_init(2, 3, rng, dtype=np.float64)
    comps[1][1, 2] = np.inf
    w = block_matrix([comps], QUAT_PLACES)
    assert not np.isnan(w).any()
    assert sorted(w[~np.isfinite(w)].tolist()) == [-np.inf, -np.inf, np.inf, np.inf]


def weight_build_config(precision):
    return ModelConfig(front_end="r2h-norm", r2h_size=16, stack_kind="qlstm", depth=2,
                       hidden_real_width=16, classes=4, dropout=0.0, epochs=3,
                       input_dim=8, batch_size=4, seed=5, precision=precision)


class NegConcatWeights:
    """A quaternion cell seen through the parent path: its (wx, wh, bias)
    are graph nodes built per gate from neg and concat nodes, so
    lstm_layer takes them as its parameters and routes their gradients
    back through that graph instead of the cell's split_grads()."""

    def __init__(self, cell):
        self.wx = concat([neg_concat_quat_weight(*cell.w[g].values()) for g in GATES], axis=1)
        self.wh = concat([neg_concat_quat_weight(*cell.r[g].values()) for g in GATES], axis=1)
        self.bias = concat([cell.b[g] for g in GATES], axis=0)

    def named_parameters(self):
        return [("wx", self.wx), ("wh", self.wh), ("bias", self.bias)]

    def prepared(self):
        return self.wx.data, self.wh.data, self.bias.data

    def split_grads(self, d_wx, d_wh, d_bias):
        return [d_wx, d_wh, d_bias]


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_training_with_quat_weight_equals_neg_concat_reference(precision, monkeypatch):
    cfg = weight_build_config(precision)
    train_utts, valid_utts, _ = generate_synthetic(
        SynthSpec(train_utts=12, valid_utts=6, test_utts=1, dim=8, seed=13))

    def run():
        model = build_model(cfg)
        reports = train(model, train_utts, valid_utts, cfg)
        return ([r.record("d", 0) for r in reports], [p.data.tobytes() for _, p in model.named_parameters()])

    fused = run()
    calls = []

    def neg_concat_forward(layer, seq, mask):  # both cells' weights from neg/concat nodes
        calls.append(layer)
        return lstm_layer(seq, mask, (NegConcatWeights(layer.fwd), NegConcatWeights(layer.bwd)))

    monkeypatch.setattr(recurrent.BiRecurrentLayer, "forward", neg_concat_forward)
    assert run() == fused
    assert calls


def test_training_step_feeds_cell_parameters_to_layer_nodes():
    cfg = weight_build_config("f32")
    train_utts, _, _ = generate_synthetic(SynthSpec(train_utts=4, valid_utts=1, test_utts=1,
                                                    dim=8, seed=13))
    batch = make_batches(train_utts, 4)[0]
    model = build_model(cfg)
    loss = cross_entropy_framewise(model.forward(batch, training=True), batch.labels, batch.mask)
    nodes = [t.node for t in Tape.from_root(loss).records if t.node is not None]
    ops = [node.op for node in nodes]
    assert "concat" not in ops and "neg" not in ops
    assert "reverse_time" not in ops and "add" not in ops
    layers = [node for node in nodes if node.op == "lstm_layer"]
    assert len(layers) == len(model.stack)
    fed = {tuple(map(id, node.inputs[1:])) for node in layers}
    assert fed == {tuple(id(p) for _, p in layer.named_parameters()) for layer in model.stack}


def test_split_activation_values():
    z = split_activation("tanh", Tensor(np.zeros(8)))
    assert np.array_equal(z.data, np.zeros(8))
    # quaternion (-1, 2, -3, 4) in quarter-block layout with H=1
    v = Tensor(np.array([-1.0, 2.0, -3.0, 4.0]))
    out = split_activation("relu", v)
    assert np.array_equal(out.data, np.array([0.0, 2.0, 0.0, 4.0]))


def test_split_activation_is_layoutwise_flat():
    rng = np.random.default_rng(7)
    v = rng.normal(size=(3, 8))
    out = split_activation("sigmoid", Tensor(v)).data
    expected = 1.0 / (1.0 + np.exp(-v))
    assert np.allclose(out, expected, atol=1e-12)


def test_split_activation_unknown_kind():
    with pytest.raises(ConfigError):
        split_activation("gelu", Tensor(np.zeros(4)))


def test_chi4_biases_zero_and_determinism():
    cell = QLSTMCell(5, 7, np.random.default_rng(123))
    for g in GATES:
        assert np.array_equal(cell.b[g].data, np.zeros(4 * 7, dtype=np.float32))
    a = chi4_init(6, 8, np.random.default_rng(99))
    b = chi4_init(6, 8, np.random.default_rng(99))
    for ca, cb in zip(a, b):
        assert np.array_equal(ca, cb)


def test_chi4_magnitude_distribution():
    fan_in, fan_out = 200, 125  # 25k weights per draw set; 4 arrays gives stats on 1e5 values
    rng = np.random.default_rng(11)
    w_r, w_x, w_y, w_z = chi4_init(fan_in, fan_out, rng, dtype=np.float64)
    sigma = 1.0 / np.sqrt(2.0 * (fan_in + fan_out))
    sq = w_r**2 + w_x**2 + w_y**2 + w_z**2
    # 25k modulus draws: chi-square with 4 dof has mean 4
    mean_ratio = (sq / sigma**2).mean()
    assert abs(mean_ratio - 4.0) < 0.2
    # symmetric direction/angle: component means vanish
    n = w_r.size
    for comp in (w_r, w_x, w_y, w_z):
        se = comp.std() / np.sqrt(n)
        assert abs(comp.mean()) < 3.0 * se + 1e-12


def test_quat_normalize_units():
    rng = np.random.default_rng(12)
    v = Tensor(rng.normal(size=(50, 16)))
    out = quat_normalize(v).data
    h = 4
    norms = np.sqrt(sum(out[:, c * h:(c + 1) * h] ** 2 for c in range(4)))
    assert np.abs(norms - 1.0).max() < 1e-6


def test_quat_normalize_zero_guard():
    out = quat_normalize(Tensor(np.zeros((2, 8))))
    assert np.array_equal(out.data, np.zeros((2, 8)))


def test_quat_normalize_gradients():
    rng = np.random.default_rng(13)
    v = Tensor(rng.normal(size=(2, 3, 12)) + 0.5, requires_grad=True)
    cotangent = Tensor(rng.normal(size=(2, 3, 12)))
    errs = gradient_check(lambda: sum_all(mul(quat_normalize(v), cotangent)), [("v", v)])
    assert errs["v"] < 1e-6


# The per-quaternion normalization as the graph of narrow, mul, add, sqrt,
# div and concat nodes that quat_normalize replaces, kept as its reference.


def graph_sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def backward(g):
        safe = np.where(out > 0, out, 1.0)
        return (np.where(out > 0, 0.5 * g / safe, 0.0),)

    return op_result(out, (a,), "sqrt", backward)


def graph_div(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return g / b.data, -g * a.data / (b.data * b.data)

    return op_result(a.data / b.data, (a, b), "div", backward)


def graph_quat_normalize(x: Tensor, eps: float = NORM_EPS) -> Tensor:
    h = x.shape[-1] // 4
    axis = x.data.ndim - 1
    blocks = [narrow(x, axis, c * h, h) for c in range(4)]
    sq = mul(blocks[0], blocks[0])
    for b in blocks[1:]:
        sq = add(sq, mul(b, b))
    denom = add(graph_sqrt(sq), Tensor(np.full(sq.shape, eps, dtype=sq.dtype)))
    return concat([graph_div(b, denom) for b in blocks], axis=axis)


def pre_activations(rng, shape, dtype):
    """Pre-activation rows where whole quaternions and single components are
    exactly zero, plus components large enough to saturate tanh/hardtanh."""
    x = rng.standard_normal(shape) * rng.choice([0.01, 1.0, 30.0], size=shape)
    h = shape[-1] // 4
    flat = x.reshape(-1, 4, h)
    flat[::3, :, 0] = 0.0                      # zero quaternions
    flat[1::4, :, 1] = -np.abs(flat[1::4, :, 1])  # all-negative: zero after relu
    flat[::5, 2, 2] = 0.0                      # a single zero component
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", ["tanh", "relu", "hardtanh"])
@pytest.mark.parametrize("shape", [(7, 3, 64), (40, 16)])
def test_quat_normalize_bit_equal_to_graph_reference(dtype, activation, shape):
    rng = np.random.default_rng(24)
    pre = pre_activations(rng, shape, dtype)
    cotangent = Tensor(rng.standard_normal(shape).astype(dtype))
    cotangent.data.reshape(-1, shape[-1])[::7] = 0.0  # dropped-out rows pass back zeros
    results = []
    for normalize in (quat_normalize, graph_quat_normalize):
        x = Tensor(pre.copy(), requires_grad=True)
        out = normalize(split_activation(activation, x))
        backward(sum_all(mul(out, cotangent)))
        results.append((out.data, x.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


def test_quat_normalize_is_one_node():
    x = Tensor(np.ones((3, 8)), requires_grad=True)
    out = quat_normalize(x)
    ops = [t.node.op for t in Tape.from_root(sum_all(out)).records if t.node is not None]
    assert ops == ["quat_normalize", "sum"]


def test_quat_normalize_zero_quaternion_gradient_is_finite():
    # the derivative of the norm at 0 is taken as 0: a zero quaternion passes
    # back g / eps and no NaN
    x = Tensor(np.zeros((2, 8)), requires_grad=True)
    g = np.arange(16.0).reshape(2, 8)
    backward(sum_all(mul(quat_normalize(x), Tensor(g))))
    assert np.array_equal(x.grad, g / (0.0 + NORM_EPS))


def test_dropout_identity_cases():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(5, 8)).astype(np.float32))
    assert quaternion_dropout(x, 0.0, training=True, rng=rng) is x
    assert quaternion_dropout(x, 0.5, training=False) is x
    with pytest.raises(ConfigError):
        quaternion_dropout(x, 1.0, training=True, rng=rng)
    with pytest.raises(ConfigError):
        quaternion_dropout(x, -0.1, training=True, rng=rng)


def test_dropout_whole_quaternions():
    rng = np.random.default_rng(15)
    h = 100
    x_data = np.ones((1000, 4 * h), dtype=np.float64)
    out = quaternion_dropout(Tensor(x_data), 0.2, training=True, rng=rng).data
    blocks = out.reshape(1000, 4, h)  # [n, component, quaternion]
    zeroed = blocks == 0.0
    # a dropped quaternion loses all four components at once
    assert np.array_equal(zeroed.all(axis=1), zeroed.any(axis=1))
    drop_frac = zeroed.all(axis=1).mean()
    assert abs(drop_frac - 0.2) < 0.01
    survivors = blocks[~zeroed].ravel()
    assert np.allclose(survivors, 1.0 / 0.8, atol=1e-12)


def test_real_linear_identity_and_grads():
    rng = np.random.default_rng(16)
    layer = RealLinear(3, 3, rng, dtype=np.float64)
    layer.weight.data[:] = np.eye(3)
    layer.bias.data[:] = 0.0
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    assert np.allclose(layer(x).data, x.data, atol=1e-15)
    layer2 = RealLinear(4, 2, rng, dtype=np.float64)
    y = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    errs = gradient_check(lambda: layer2(y).sum(), layer2.named_parameters() + [("y", y)])
    assert max(errs.values()) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(24, 12), (6, 4, 12)])
@pytest.mark.parametrize("x_is_leaf", [True, False])
def test_linear_node_bit_equal_to_graph_reference(dtype, shape, x_is_leaf):
    rng = np.random.default_rng(30)
    layer = RealLinear(shape[-1], 7, rng, dtype=dtype)
    layer.bias.data[:] = rng.standard_normal(7)
    x_data = rng.standard_normal(shape).astype(dtype)
    cotangent = Tensor(rng.standard_normal(shape[:-1] + (7,)).astype(dtype))
    results = []
    for dense in (RealLinear.forward, linear_graph):
        x = Tensor(x_data.copy(), requires_grad=x_is_leaf)
        for _, p in layer.named_parameters():
            p.zero_grad()
        out = dense(layer, x)
        backward(sum_all(mul(out, cotangent)))
        results.append([out.data, x.grad, layer.weight.grad, layer.bias.grad])
    fused, graph = results
    assert (fused[1] is None) == (graph[1] is None) == (not x_is_leaf)
    for got, want in zip(fused, graph):
        if want is not None:
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)


class WatchedTranspose(np.ndarray):
    """A weight array that counts how often its transpose is taken."""

    transposes = 0

    @property
    def T(self):
        WatchedTranspose.transposes += 1
        return self.transpose()


def test_linear_node_skips_input_gradient_of_constant_input():
    rng = np.random.default_rng(31)
    layer = RealLinear(5, 3, rng, dtype=np.float64)
    layer.weight.data = layer.weight.data.view(WatchedTranspose)
    g = rng.standard_normal((2, 4, 3))
    features = Tensor(rng.standard_normal((2, 4, 5)))  # raw input: needs no gradient
    out = layer(features)
    assert out.node.op == "linear" and out.node.inputs == (features, layer.weight, layer.bias)
    WatchedTranspose.transposes = 0
    d_x, d_w, d_b = out.node.backward(g)
    assert d_x is None and WatchedTranspose.transposes == 0
    flat_g = g.reshape(8, 3)
    assert np.array_equal(d_w, features.data.reshape(8, 5).T @ flat_g)
    assert np.array_equal(d_b, flat_g.sum(axis=0))
    x = Tensor(features.data, requires_grad=True)
    d_x, _, _ = layer(x).node.backward(g)
    assert WatchedTranspose.transposes == 1
    assert np.array_equal(d_x, (flat_g @ np.asarray(layer.weight.data).T).reshape(2, 4, 5))


def test_encoder_shapes_and_unit_norm():
    rng = np.random.default_rng(17)
    enc = RealToQuatEncoder(40, 1024, "tanh", normalized=True, rng=rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(6, 40)))
    out = enc(x).data
    assert out.shape == (6, 1024)
    h = 256
    norms = np.sqrt(sum(out[:, c * h:(c + 1) * h] ** 2 for c in range(4)))
    assert np.abs(norms - 1.0).max() < 1e-6


def test_encoder_zero_everything_is_zero():
    rng = np.random.default_rng(18)
    enc = RealToQuatEncoder(5, 8, "tanh", normalized=True, rng=rng, dtype=np.float64)
    enc.dense.weight.data[:] = 0.0
    enc.dense.bias.data[:] = 0.0
    out = enc(Tensor(np.ones((3, 5)))).data
    assert np.array_equal(out, np.zeros((3, 8)))


@pytest.mark.parametrize("a", [0.1, 1.0, 5.0])
def test_encoder_equal_components_normalize_to_half(a):
    rng = np.random.default_rng(19)
    enc = RealToQuatEncoder(1, 4, "tanh", normalized=True, rng=rng, dtype=np.float64)
    enc.dense.weight.data[:] = 1.0  # pre-activation quaternion (a, a, a, a)
    enc.dense.bias.data[:] = 0.0
    out = enc(Tensor(np.array([[a]]))).data[0]
    assert np.abs(out - 0.5).max() < 1e-6


def test_encoder_gradients_both_variants():
    rng = np.random.default_rng(20)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    for normalized in (False, True):
        enc = RealToQuatEncoder(5, 8, "tanh", normalized=normalized, rng=rng, dtype=np.float64)
        errs = gradient_check(
            lambda: enc(x).sum(),
            enc.named_parameters() + [("x", x)],
        )
        assert max(errs.values()) < 1e-6, f"normalized={normalized}"


def test_encoder_rejects_bad_config():
    rng = np.random.default_rng(21)
    with pytest.raises(ConfigError):
        RealToQuatEncoder(5, 10, "tanh", normalized=True, rng=rng)
    with pytest.raises(ConfigError):
        RealToQuatEncoder(5, 8, "softsign", normalized=True, rng=rng)
