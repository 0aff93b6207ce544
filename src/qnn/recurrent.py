"""Recurrent cells and the full sequence-labeling model.

The quaternion LSTM cell applies the gate recurrences

    f_t = sigmoid(W_f x_t + R_f h_{t-1} + b_f)
    i_t = sigmoid(W_i x_t + R_i h_{t-1} + b_i)
    c_t = f_t * c_{t-1} + i_t * tanh(W_c x_t + R_c h_{t-1} + b_c)
    o_t = sigmoid(W_o x_t + R_o h_{t-1} + b_o)
    h_t = o_t * tanh(c_t)

where W and R are quaternion-weighted linear maps (Hamilton product against
the input, realised as structured real matmuls), the activations are split
(componentwise), and * is the componentwise product. The real-valued
baseline cell runs the identical recurrence with ordinary dense maps, so
one driver handles both.

Sequences are time-major (T, B, D) with a boolean validity mask; states
carry across padded frames unchanged and padded outputs are zeroed, so
appending padding to a batch never changes valid-frame results.

Each layer is one graph node (Appleyard et al., arXiv:1604.01946) fed by
the sequence and its cells' parameters, which each cell lays out as plain
W, R and bias arrays with layers.block_matrix. Per direction one matmul
projects all frames into the (T, B, 4H) gate buffer, a numpy loop runs the
recurrence caching gates and states, and the backward is full BPTT over
that cache; the cell splits the W, bias and R gradients back per component.
The loop works in place on its caches and applies one tanh per frame over
all four gates, using sigmoid(x) = tanh(x/2)/2 + 1/2 with the halving folded
into W, the bias and R once per call.

A bidirectional layer's second cell runs in reverse time over views of the
same projection, mask and incoming gradient, and the node returns the
componentwise sum of the two directions.
"""

from __future__ import annotations

import numpy as np

from qnn.autograd import Tensor, op_result
from qnn.config import ModelConfig
from qnn.data import UtteranceBatch, naive_quat_compose
from qnn.errors import ConfigError, ContractError, DimensionError
from qnn import layers
from qnn.layers import RealLinear, RealToQuatEncoder, quaternion_dropout

GATES = ("f", "i", "c", "o")


class _LSTMCell:
    """Both cell kinds: per gate an input map W and a recurrent map R, each
    its named component matrices drawn by init and laid out by places
    (layers.block_matrix), and one zero-initialised bias per gate."""

    def __init__(self, names, places, init, n_in: int, n_hidden: int, rng: np.random.Generator, dtype):
        def gate_maps(fan_in):
            return {g: {name: Tensor(c, requires_grad=True)
                        for name, c in zip(names, init(fan_in, n_hidden, rng, dtype=dtype))} for g in GATES}
        self.places = places
        self.w = gate_maps(n_in)
        self.r = gate_maps(n_hidden)
        self.b = {g: Tensor(np.zeros(self.hidden_size, dtype=dtype), requires_grad=True) for g in GATES}

    def prepared(self):
        """Plain arrays: the (input, 4H) input map, the (H, 4H) recurrent map
        and the (4H,) bias, gates side by side as [f | i | c | o]."""
        wx = layers.block_matrix([[p.data for p in self.w[g].values()] for g in GATES], self.places)
        wh = layers.block_matrix([[p.data for p in self.r[g].values()] for g in GATES], self.places)
        return wx, wh, np.concatenate([self.b[g].data for g in GATES])

    def split_grads(self, d_wx, d_wh, d_bias) -> list:
        """prepared()'s gradients split per parameter, in named_parameters() order."""
        return (layers.block_grads(d_wx, self.places, len(GATES))
                + layers.block_grads(d_wh, self.places, len(GATES)) + np.split(d_bias, len(GATES)))

    def named_parameters(self, prefix: str = ""):
        out = [(f"{prefix}w_{g}.{name}", p) for g in GATES for name, p in self.w[g].items()]
        out += [(f"{prefix}r_{g}.{name}", p) for g in GATES for name, p in self.r[g].items()]
        return out + [(f"{prefix}b_{g}", self.b[g]) for g in GATES]


class QLSTMCell(_LSTMCell):
    """One direction of a quaternion LSTM layer (widths in quaternions)."""

    def __init__(self, in_q: int, hidden_q: int, rng: np.random.Generator, dtype=np.float32):
        self.input_size, self.hidden_size = 4 * in_q, 4 * hidden_q
        super().__init__(("w_r", "w_x", "w_y", "w_z"), layers.QUAT_PLACES, layers.chi4_init,
                         in_q, hidden_q, rng, dtype)


class RealLSTMCell(_LSTMCell):
    """One direction of the real-valued baseline LSTM layer."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator, dtype=np.float32):
        self.input_size, self.hidden_size = input_size, hidden_size
        super().__init__(("weight",), layers.REAL_PLACES, lambda *a, **k: (layers.glorot_uniform(*a, **k),),
                         input_size, hidden_size, rng, dtype)


def gate_affine(hidden: int, dtype):
    """(scale, shift) over the [f | i | c | o] columns: with s = 1/2 on f, i
    and o, sigmoid(x) = tanh(s x) s + (1 - s), and with s = 1 on c the same
    expression is tanh(x), so one tanh activates all four gates."""
    scale = np.full(4 * hidden, 0.5, dtype=dtype)
    scale[2 * hidden:3 * hidden] = 1
    return scale, 1 - scale


def lstm_gates(gates: np.ndarray, c_prev: np.ndarray, affine, c_out, tanh_out, h_out) -> None:
    """Gate arithmetic on plain arrays, in place: gates is the (B, 4*hidden)
    pre-activation block [f | i | c | o] already multiplied by affine's
    scale, and on return holds the activated gates; c_t, tanh(c_t) and h_t
    are written into c_out, tanh_out and h_out."""
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


def _direction(cell, x: np.ndarray, mask: np.ndarray, reverse: bool):
    """One cell over the (T, B, input) array x on plain arrays, in reverse
    time order if asked. Returns the (T, B, hidden) output in x's time order
    and backward(grad) -> (d_x, the cell's split_grads()).

    One matmul projects every frame by the cell's prepared() input map into
    the gate buffer; the loop caches gates and states and the backward runs
    full BPTT over that cache. A reverse pass walks negative-stride views of
    the projection, the mask and the incoming gradient, and keeps its other
    caches in its own (reversed) time order, so its GEMMs and its bias sum
    reduce over time in the order a pass over a reversed copy of x would.
    """
    wx, wh, bias = cell.prepared()
    if x.dtype != wx.dtype:
        raise ContractError(f"lstm_layer: dtype mismatch {x.dtype} vs cell {wx.dtype}")
    t_len, batch, n_in = x.shape
    if n_in != wx.shape[0]:
        raise DimensionError(f"sequence width {n_in} does not match cell input {wx.shape[0]}")
    width = wh.shape[1]
    hidden = width // 4
    dtype = x.dtype
    affine = gate_affine(hidden, dtype)
    # the pre-activations scaled by gate_affine; power-of-two scaling is exact
    gates = np.matmul(x.reshape(t_len * batch, n_in), wx * affine[0]).reshape(t_len, batch, width)
    gates += bias * affine[0]
    if reverse:
        gates, mask = gates[::-1], mask[::-1]
    wh_scaled = wh * affine[0]
    recurrent = np.empty((batch, width), dtype=dtype)
    tanh_c = np.empty((t_len, batch, hidden), dtype=dtype)
    h_states = np.zeros((t_len + 1, batch, hidden), dtype=dtype)  # h_states[t] is h_{t-1}
    c_states = np.zeros((t_len + 1, batch, hidden), dtype=dtype)
    keeps = [None if full else m[:, None].astype(dtype) for m, full in zip(mask, mask.all(axis=1))]
    for t, keep in enumerate(keeps):
        np.matmul(h_states[t], wh_scaled, out=recurrent)
        gates[t] += recurrent
        lstm_gates(gates[t], c_states[t], affine, c_states[t + 1], tanh_c[t], h_states[t + 1])
        if keep is not None:  # padded sequences carry their state
            drop = ~mask[t][:, None]
            np.copyto(h_states[t + 1], h_states[t], where=drop)
            np.copyto(c_states[t + 1], c_states[t], where=drop)
    out = h_states[1:] * mask[:, :, None]  # padded frames emit zeros

    def backward(grad):
        if reverse:
            grad = grad[::-1]
        f, i, g, o = np.split(gates, 4, axis=2)
        # d pre_t = [d_c, d_c, d_c, d_h] * local_t, and d_c picks up d_h * through_t;
        # d_pre[t] is written over local[t]
        d_pre = np.empty((t_len, batch, width), dtype=dtype)
        l_f, l_i, l_g, l_o = np.split(d_pre, 4, axis=2)
        np.multiply(c_states[:-1], f, out=l_f)
        l_f *= 1 - f
        np.multiply(g, i, out=l_i)
        l_i *= 1 - i
        np.multiply(g, g, out=l_g)
        np.subtract(1, l_g, out=l_g)
        l_g *= i
        np.multiply(tanh_c, o, out=l_o)
        l_o *= 1 - o
        through = o * (1 - tanh_c * tanh_c)
        d_h = d_c = np.zeros((batch, hidden), dtype=dtype)  # rebound, never written in place
        for t in reversed(range(t_len)):
            keep = keeps[t]
            if keep is None:
                d_h = d_h + grad[t]
            else:  # state gradients pass unchanged through padded frames
                d_h = d_h + grad[t] * keep
                d_h, d_h_skip = d_h * keep, d_h * (1 - keep)
                d_c, d_c_skip = d_c * keep, d_c * (1 - keep)
            d_c = d_c + d_h * through[t]
            d_pre[t] *= np.concatenate((d_c, d_c, d_c, d_h), axis=1)
            d_c = d_c * f[t]
            d_h = d_pre[t] @ wh.T
            if keep is not None:
                d_c += d_c_skip
                d_h += d_h_skip
        d_pre = d_pre.reshape(-1, width)
        # the one copy a reverse pass makes: x in its own time order, for d_wx
        d_wx = (np.ascontiguousarray(x[::-1]) if reverse else x).reshape(-1, n_in).T @ d_pre
        d_wh = h_states[:-1].reshape(-1, hidden).T @ d_pre
        d_x = (d_pre @ wx.T).reshape(x.shape)
        return d_x[::-1] if reverse else d_x, cell.split_grads(d_wx, d_wh, d_pre.sum(axis=0))

    return out[::-1] if reverse else out, backward


def lstm_layer(seq: Tensor, mask: np.ndarray, cells) -> Tensor:
    """Fused recurrent layer: one graph node fed by seq and every cell's
    parameters (Appleyard et al., arXiv:1604.01946).

    seq is (T, B, input) and mask (T, B) boolean. cells[0] runs forward in
    time; a second cell runs over the same sequence in reverse time and its
    output is added frame by frame. State carries through masked frames
    unchanged and masked outputs are zero.
    """
    if mask.shape != seq.shape[:2]:
        raise DimensionError(f"mask shape {mask.shape} does not match sequence {seq.shape[:2]}")
    out, first = _direction(cells[0], seq.data, mask, reverse=False)
    passes = [first]
    if len(cells) == 2:
        out_b, second = _direction(cells[1], seq.data, mask, reverse=True)
        out = out + out_b
        passes.append(second)

    def backward(grad):
        d_seq, grads = None, []
        for run in passes:
            d_x, cell_grads = run(grad)
            d_seq = d_x if d_seq is None else d_seq + d_x
            grads += cell_grads
        return [d_seq] + grads

    params = [p for cell in cells for _, p in cell.named_parameters()]
    return op_result(out, [seq] + params, "lstm_layer", backward)


def run_direction(cell, seq: Tensor, mask: np.ndarray) -> Tensor:
    """Unroll one cell forward over a time-major sequence: (T, B, hidden)."""
    return lstm_layer(seq, mask, (cell,))


class BiRecurrentLayer:
    """Forward and backward cells over the same sequence, summed per step."""

    def __init__(self, forward_cell, backward_cell):
        if forward_cell.hidden_size != backward_cell.hidden_size:
            raise ConfigError("direction cells must share the hidden width")
        self.fwd = forward_cell
        self.bwd = backward_cell

    def forward(self, seq: Tensor, mask: np.ndarray) -> Tensor:
        return lstm_layer(seq, mask, (self.fwd, self.bwd))

    def named_parameters(self, prefix: str = ""):
        return self.fwd.named_parameters(prefix + "fwd.") + self.bwd.named_parameters(prefix + "bwd.")


class IdentityFrontEnd:
    """Pass features through unchanged (real baseline input)."""

    def __init__(self, input_dim: int, dtype=np.float32):
        self.output_dim = input_dim
        self.dtype = dtype

    def forward(self, features: np.ndarray) -> Tensor:
        return Tensor(features.astype(self.dtype, copy=False))

    def named_parameters(self, prefix: str = ""):
        return []


class NaiveQuatFrontEnd:
    """Group four consecutive feature coefficients into one quaternion.

    Pure reindexing of the input (no parameters): frame coefficients
    (4k, 4k+1, 4k+2, 4k+3) become quaternion k, repacked to the
    quarter-block layout. Widths not divisible by 4 are zero-padded.
    """

    def __init__(self, input_dim: int, dtype=np.float32):
        self.pad = (-input_dim) % 4
        self.output_dim = input_dim + self.pad
        self.dtype = dtype

    def forward(self, features: np.ndarray) -> Tensor:
        return Tensor(naive_quat_compose(features).astype(self.dtype, copy=False))

    def named_parameters(self, prefix: str = ""):
        return []


class AcousticModel:
    """Front end -> (bi)recurrent stack -> real dense output, framewise.

    Dropout (whole quaternions on the quaternion path, per component on the
    real path) is applied to the front-end output and to every stack layer
    output, never to the logits.
    """

    def __init__(self, front_end, stack, output: RealLinear, dropout: float,
                 dropout_rng: np.random.Generator, quaternion_dropout_masks: bool):
        self.front_end = front_end
        self.stack = list(stack)
        self.output = output
        self.dropout = dropout
        self.dropout_rng = dropout_rng
        self.quaternion_dropout_masks = quaternion_dropout_masks

    def _drop(self, x: Tensor, training: bool) -> Tensor:
        return quaternion_dropout(
            x, self.dropout, training=training, rng=self.dropout_rng,
            per_component=not self.quaternion_dropout_masks,
        )

    def forward(self, batch: UtteranceBatch, training: bool = False) -> Tensor:
        """Logits (T, B, C); padded frames carry meaningless values and must
        be excluded from losses/metrics via the batch mask."""
        x = self.front_end.forward(batch.features)
        x = self._drop(x, training)
        for layer in self.stack:
            x = self._drop(layer.forward(x, batch.mask), training)
        return self.output(x)

    def named_parameters(self):
        out = list(self.front_end.named_parameters("front_end."))
        for idx, layer in enumerate(self.stack):
            out.extend(layer.named_parameters(f"stack.{idx}."))
        out.extend(self.output.named_parameters("output."))
        return out


def count_params(model: AcousticModel) -> int:
    return sum(p.size for _, p in model.named_parameters())


def _breakdown(front: int, stack: int, output: int, stack_weights: int) -> dict:
    return {"front_end": front, "stack": stack, "output": output,
            "total": front + stack + output, "stack_weight_scalars": stack_weights}


def param_breakdown(model: AcousticModel) -> dict:
    """Per-module totals plus the bias-free stack count used for ratios."""
    front = sum(p.size for _, p in model.front_end.named_parameters(""))
    stack = [p for n, p in model.named_parameters() if n.startswith("stack.")]
    output = sum(p.size for _, p in model.output.named_parameters(""))
    return _breakdown(front, sum(p.size for p in stack), output,
                      sum(p.size for p in stack if p.data.ndim == 2))


def layer_plan(config: ModelConfig) -> tuple[int, int]:
    """Real widths along the model, read by both build_model and
    symbolic_param_counts: the front-end output and every stack layer's
    output. The first stack layer maps the one to the other, the remaining
    depth - 1 layers map the stack width to itself."""
    config.validate()
    dim = config.input_dim
    width = {"identity": dim, "naive-quat": 4 * ((dim + 3) // 4)}.get(config.front_end, config.r2h_size)
    if config.stack_kind == "qlstm" and width % 4 != 0:
        raise ConfigError(f"qlstm stack needs an input width divisible by 4, front end provides {width}")
    return width, config.hidden_real_width


def symbolic_param_counts(config: ModelConfig) -> dict:
    """Parameter counts computed from the architecture formulas alone, in
    closed form over the depth, without allocating any buffers. Matches
    param_breakdown(build_model(c)) exactly; used by the params command and
    the memory budget so large configs stay cheap."""
    front_width, hidden = layer_plan(config)
    depth = config.depth
    front = config.input_dim * front_width + front_width if config.front_end in ("r2h-norm", "r2h") else 0
    shrink = 4 if config.stack_kind == "qlstm" else 1  # real scalars per weight entry

    def layer_weights(n_in):  # two directions, four gates, each an input map W and a recurrent map R
        return 2 * 4 * (n_in * hidden + hidden * hidden) // shrink

    stack_weights = layer_weights(front_width) + (depth - 1) * layer_weights(hidden) if depth else 0
    stack = stack_weights + depth * 2 * 4 * hidden  # plus one bias per gate
    out_in = hidden if depth else front_width
    return _breakdown(front, stack, out_in * config.classes + config.classes, stack_weights)


def build_model(config: ModelConfig) -> AcousticModel:
    """Construct the model described by a validated config.

    Initialisation and dropout use generators spawned deterministically
    from config.seed, so identical configs give identical models.
    """
    front_width, hidden = layer_plan(config)
    dtype = config.dtype
    ss_init, ss_drop = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(ss_init)
    dropout_rng = np.random.default_rng(ss_drop)

    if config.front_end == "identity":
        front = IdentityFrontEnd(config.input_dim, dtype=dtype)
    elif config.front_end == "naive-quat":
        front = NaiveQuatFrontEnd(config.input_dim, dtype=dtype)
    else:
        front = RealToQuatEncoder(
            config.input_dim,
            front_width,
            config.r2h_activation,
            normalized=(config.front_end == "r2h-norm"),
            rng=rng,
            dtype=dtype,
        )

    stack = []
    n_in = front_width
    for _ in range(config.depth):
        if config.stack_kind == "qlstm":
            fwd = QLSTMCell(n_in // 4, hidden // 4, rng, dtype=dtype)
            bwd = QLSTMCell(n_in // 4, hidden // 4, rng, dtype=dtype)
        else:
            fwd = RealLSTMCell(n_in, hidden, rng, dtype=dtype)
            bwd = RealLSTMCell(n_in, hidden, rng, dtype=dtype)
        stack.append(BiRecurrentLayer(fwd, bwd))
        n_in = hidden

    output = RealLinear(n_in, config.classes, rng, dtype=dtype)
    return AcousticModel(
        front,
        stack,
        output,
        dropout=config.dropout,
        dropout_rng=dropout_rng,
        quaternion_dropout_masks=(config.stack_kind == "qlstm"),
    )
