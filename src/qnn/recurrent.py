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
one cell class and one driver handle both. CELLS maps each stack kind to
its cell; everything that depends on the kind reads it.

Sequences are time-major (T, B, D) with a boolean validity mask; states
carry across padded frames unchanged and padded outputs are zeroed, so
appending padding to a batch never changes valid-frame results.

Each layer is one graph node (Appleyard et al., arXiv:1604.01946) fed by
the sequence and its cells' parameters, which each cell lays out as plain
W, R and bias arrays with layers.block_matrix. One numpy kernel runs the N
directions of a layer together over one (N, T, B, 4H) gate array, laid out
like the (N, T + 1, B, H) h and c states. Per direction one matmul projects
all frames into its slice of that array. One loop then runs the recurrence
of all directions in lockstep: per frame one stacked matmul of the N hidden
states against the N recurrent maps, the frame's projected rows added, one
transposed copy into a contiguous gate-major (4, N, B, H) frame block, and
one tanh over that block, using sigmoid(x) = tanh(x/2)/2 + 1/2 with the
halving folded into W, the bias and R once per call; the cell-state and
output arithmetic then runs on the block's contiguous (N, B, H) gate
slices. Only while a graph is being recorded is each frame's activated
block copied back into the gate array, which becomes the gate cache;
evaluation skips the copy. The backward is full BPTT of all N directions in
one reversed per-frame loop over the gate cache and the states; the cell
splits the W, bias and R gradients back per component.

What a step holds is kept small without changing a bit: tanh(c) goes to a
per-frame scratch and the backward recomputes it for all frames at once
over the c states, and the backward writes its gate gradients over the gate
cache.

The loop never knows which way a direction runs: each walks the arrays it
is given in their own time order. The layer hands the second cell
time-reversed views of the sequence, the mask and the incoming gradient,
reverses that pass's output and input gradient back, and returns the
componentwise sum of the two directions.
"""

from __future__ import annotations

import numpy as np

from qnn.autograd import Tensor, op_result, recording
from qnn.config import ModelConfig
from qnn.data import UtteranceBatch, naive_quat_compose
from qnn.errors import ConfigError, ContractError, DimensionError
from qnn import layers
from qnn.layers import RealLinear, RealToQuatEncoder, quaternion_dropout

GATES = ("f", "i", "c", "o")


class _LSTMCell:
    """Both cell kinds: per gate an input map W and a recurrent map R, each
    its named component matrices drawn by init and laid out by places
    (layers.block_matrix), and one zero-initialised bias per gate. A cell
    kind declares names, places and init; the widths it is built with count
    units of len(places) reals (quaternions or reals)."""

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator, dtype=np.float32):
        unit = len(self.places)
        self.input_size, self.hidden_size = unit * n_in, unit * n_hidden

        def gate_maps(fan_in):
            return {g: {name: Tensor(c, requires_grad=True)
                        for name, c in zip(self.names, self.init(fan_in, n_hidden, rng, dtype=dtype))}
                    for g in GATES}
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
    """One direction of a quaternion LSTM layer: QLSTMCell(in_q, hidden_q, rng)."""

    names = ("w_r", "w_x", "w_y", "w_z")
    places = layers.QUAT_PLACES
    init = staticmethod(layers.chi4_init)


class RealLSTMCell(_LSTMCell):
    """One direction of the real-valued baseline LSTM layer: RealLSTMCell(n_in, hidden, rng)."""

    names = ("weight",)
    places = layers.REAL_PLACES
    init = staticmethod(lambda *a, **k: (layers.glorot_uniform(*a, **k),))


# The cell of each stack kind; len(places) reals make one unit (quaternion or
# real), which divides every width the stack sees and is what dropout drops.
CELLS = {"qlstm": QLSTMCell, "lstm": RealLSTMCell}


def gate_affine(hidden: int, dtype):
    """(scale, shift) over the [f | i | c | o] columns: with s = 1/2 on f, i
    and o, sigmoid(x) = tanh(s x) s + (1 - s), and with s = 1 on c the same
    expression is tanh(x), so one tanh activates all four gates."""
    scale = np.full(4 * hidden, 0.5, dtype=dtype)
    scale[2 * hidden:3 * hidden] = 1
    return scale, 1 - scale


def lstm_gates(block: np.ndarray, c_prev: np.ndarray, affine, c_out, tanh_out, h_out) -> None:
    """Gate arithmetic on plain arrays, in place: block is the gate-major
    (4, ..., hidden) pre-activation [f, i, c, o] already multiplied by
    affine's scale, and on return holds the activated gates; affine is
    gate_affine's (scale, shift) per gate, shaped to broadcast over block.
    c_t, tanh(c_t) and h_t are written into c_out, tanh_out and h_out."""
    scale, shift = affine
    np.tanh(block, out=block)
    block *= scale
    block += shift
    f, i, g, o = block
    np.multiply(f, c_prev, out=c_out)
    np.multiply(i, g, out=tanh_out)
    c_out += tanh_out
    np.tanh(c_out, out=tanh_out)
    np.multiply(o, tanh_out, out=h_out)


def _lockstep(xs, masks, params, record: bool):
    """The LSTM recurrence of N = len(params) independent directions on
    plain arrays, advanced together frame by frame. Direction n walks the
    (T, B, input) array xs[n] and the (T, B) mask masks[n] in their own
    time order with params[n] = (wx, wh, bias): the (input, 4H) input map,
    the (H, 4H) recurrent map and the (4H,) bias, gates side by side as
    [f | i | c | o]. Returns the N (T, B, H) outputs and one closure
    backward(grads) -> N tuples (d_x, d_wx, d_wh, d_bias), grads being the
    N output gradients, each in its direction's time order.

    The gates, h and c states are (N, T, B, 4H) and (N, T + 1, B, H) arrays:
    each direction's slice is contiguous in its own time order, so its
    projection and closing GEMMs and its bias sum run over time in that
    order, and each frame's are N contiguous blocks for the stacked
    per-frame matmuls. A time-reversed view is projected from a contiguous
    copy (reshape copies a reversed view). Only when record is set (a graph
    node will hold the backward) is each frame's activated gate-major block
    copied back into the gate array, which becomes the gate cache.

    The backward runs once: it writes over the gate cache and the c states.
    Its reversed loop makes per frame one joint [d_c, d_c, d_c, d_h]
    product and one stacked matmul against the N transposed recurrent maps.
    A frame where any direction is padded (the forward's drops) takes the
    keep/skip path for all N, which passes a full direction through as is.
    """
    for x, (wx, _, _) in zip(xs, params):
        if x.dtype != wx.dtype:
            raise ContractError(f"lstm_layer: dtype mismatch {x.dtype} vs cell {wx.dtype}")
        if x.shape[2] != wx.shape[0]:
            raise DimensionError(f"sequence width {x.shape[2]} does not match cell input {wx.shape[0]}")
    t_len, batch, n_in = xs[0].shape
    n_dir = len(params)
    hidden = params[0][1].shape[0]
    width = 4 * hidden
    dtype = xs[0].dtype
    affine = gate_affine(hidden, dtype)
    # the pre-activations scaled by gate_affine; power-of-two scaling is exact
    gates = np.empty((n_dir, t_len, batch, width), dtype=dtype)
    for x, (wx, _, bias), projected in zip(xs, params, gates):
        np.matmul(x.reshape(t_len * batch, n_in), wx * affine[0], out=projected.reshape(t_len * batch, width))
        projected += bias * affine[0]
    wh_scaled = np.stack([wh * affine[0] for _, wh, _ in params])
    recurrent = np.empty((n_dir, batch, width), dtype=dtype)
    block = np.empty((4, n_dir, batch, hidden), dtype=dtype)
    tanh_c = np.empty((n_dir, batch, hidden), dtype=dtype)  # per-frame scratch, recomputed by the backward
    # the loop writes every frame after the first
    h_dirs = np.empty((n_dir, t_len + 1, batch, hidden), dtype=dtype)
    c_dirs = np.empty((n_dir, t_len + 1, batch, hidden), dtype=dtype)
    h_dirs[:, 0] = c_dirs[:, 0] = 0
    h_states, c_states = h_dirs.swapaxes(0, 1), c_dirs.swapaxes(0, 1)  # h_states[t] is the N h_{t-1}
    # gate-major views: the recurrent term as (4, N, B, H), the gate array as (T, 4, N, B, H)
    recurrent_block = recurrent.reshape(n_dir, batch, 4, hidden).transpose(2, 0, 1, 3)
    gate_blocks = gates.reshape(n_dir, t_len, batch, 4, hidden).transpose(1, 3, 0, 2, 4)
    # per gate over the whole block: an operand of the block's shape takes numpy's contiguous path
    block_affine = [np.broadcast_to(a[::hidden, None, None, None], block.shape).copy() for a in affine]
    joint = np.stack(masks, axis=1)
    drops = [None if full else ~m[:, :, None] for m, full in zip(joint, joint.all(axis=(1, 2)))]
    for t, drop in enumerate(drops):
        np.matmul(h_states[t], wh_scaled, out=recurrent)
        recurrent += gates[:, t]
        np.copyto(block, recurrent_block)
        lstm_gates(block, c_states[t], block_affine, c_states[t + 1], tanh_c, h_states[t + 1])
        if record:
            gate_blocks[t] = block
        if drop is not None:  # padded sequences carry their state
            np.copyto(h_states[t + 1], h_states[t], where=drop)
            np.copyto(c_states[t + 1], c_states[t], where=drop)
    outs = [h[1:] * m[:, :, None] for h, m in zip(h_dirs, masks)]  # padded frames emit zeros

    def backward(grads):
        # d pre_t = [d_c, d_c, d_c, d_h] * local_t, and d_c picks up d_h * through_t.
        # local, then d_pre, is written over the gate cache, so f is copied
        # first for the loop; tanh(c) and g * i are written over the c states,
        # which nothing reads after local. On padded frames the recomputed
        # tanh(c) is the carried state's, which only ever meets a zero keep.
        d_pre = gates
        l_f, l_i, l_g, l_o = f, i, g, o = np.split(d_pre, 4, axis=3)
        f = f.copy()
        np.multiply(c_dirs[:, :-1], f, out=l_f)
        tanh_c = np.tanh(c_dirs, out=c_dirs)[:, 1:]
        through = np.subtract(1, f)  # 1 - f first, then through_t in the same buffer
        l_f *= through
        np.multiply(tanh_c, tanh_c, out=through)
        np.subtract(1, through, out=through)
        through *= o
        tanh_c *= o
        np.subtract(1, o, out=l_o)
        l_o *= tanh_c
        gi = np.multiply(g, i, out=tanh_c)
        np.multiply(g, g, out=l_g)
        np.subtract(1, l_g, out=l_g)
        l_g *= i
        np.subtract(1, i, out=l_i)
        l_i *= gi
        del tanh_c, gi
        whT = np.stack([wh for _, wh, _ in params]).swapaxes(1, 2)
        keeps = [None if drop is None else (~drop).astype(dtype) for drop in drops]
        d_h, d_c = np.zeros((2, n_dir, batch, hidden), dtype=dtype)  # each frame makes new ones
        for t in reversed(range(t_len)):
            keep = keeps[t]
            if keep is None:
                for d, grad in zip(d_h, grads):
                    d += grad[t]
            else:  # state gradients pass unchanged through padded frames
                for d, grad, k in zip(d_h, grads, keep):
                    d += grad[t] * k
                d_h, d_h_skip = d_h * keep, d_h * (1 - keep)
                d_c, d_c_skip = d_c * keep, d_c * (1 - keep)
            d_c = d_c + d_h * through[:, t]
            d_pre[:, t] *= np.concatenate((d_c, d_c, d_c, d_h), axis=2)
            d_c = d_c * f[:, t]
            d_h = np.matmul(d_pre[:, t], whT)
            if keep is not None:
                d_c += d_c_skip
                d_h += d_h_skip
        del f, through
        results = []
        for x, (wx, _, _), d, h in zip(xs, params, d_pre, h_dirs):
            d = d.reshape(-1, width)
            d_wx = x.reshape(-1, n_in).T @ d
            d_wh = h[:-1].reshape(-1, hidden).T @ d
            results.append(((d @ wx.T).reshape(x.shape), d_wx, d_wh, d.sum(axis=0)))
        return results

    return outs, backward


def lstm_layer(seq: Tensor, mask: np.ndarray, cells) -> Tensor:
    """Fused recurrent layer: one graph node fed by seq and every cell's
    parameters (Appleyard et al., arXiv:1604.01946).

    seq is (T, B, input) and mask (T, B) boolean. cells[0] runs forward in
    time; a second cell is handed time-reversed views of the sequence and
    the mask, runs in lockstep with the first, and its output, reversed
    back, is added frame by frame. State carries through masked frames
    unchanged and masked outputs are zero. The backward hands each
    direction the incoming gradient in its own time order and runs the
    BPTT of all its directions in one joint loop.
    """
    if mask.shape != seq.shape[:2]:
        raise DimensionError(f"mask shape {mask.shape} does not match sequence {seq.shape[:2]}")
    inputs = [seq] + [p for cell in cells for _, p in cell.named_parameters()]
    steps = (1, -1)[:len(cells)]
    ys, joint_backward = _lockstep([seq.data[::step] for step in steps], [mask[::step] for step in steps],
                                   [cell.prepared() for cell in cells], recording(inputs))
    out = None
    for y, step in zip(ys, steps):
        out = y if out is None else out + y[::step]

    def backward(grad):
        d_seq, grads = None, []
        for cell, step, (d_x, *d_w) in zip(cells, steps, joint_backward([grad[::step] for step in steps])):
            d_seq = d_x if d_seq is None else d_seq + d_x[::step]
            grads += cell.split_grads(*d_w)
        return [d_seq] + grads

    return op_result(out, inputs, "lstm_layer", backward)


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


class FixedFrontEnd:
    """A parameter-free front end: transform(features) cast to dtype."""

    def __init__(self, transform, dtype=np.float32):
        self.transform = transform
        self.dtype = dtype

    def forward(self, features: np.ndarray) -> Tensor:
        return Tensor(self.transform(features).astype(self.dtype, copy=False))

    def named_parameters(self, prefix: str = ""):
        return []


# The transform of each parameter-free front end: the features unchanged, or
# each four consecutive coefficients as one quaternion (zero-padded to 4k).
FIXED_FRONT_ENDS = {"identity": lambda features: features, "naive-quat": naive_quat_compose}


class AcousticModel:
    """Front end -> (bi)recurrent stack -> real dense output, framewise.

    Dropout (whole quaternions, or single components when per_component is
    set, as for the real stack) is applied to the front-end output and to
    every stack layer output, never to the logits.
    """

    def __init__(self, front_end, stack, output: RealLinear, dropout: float,
                 dropout_rng: np.random.Generator, per_component: bool):
        self.front_end = front_end
        self.stack = list(stack)
        self.output = output
        self.dropout = dropout
        self.dropout_rng = dropout_rng
        self.per_component = per_component

    def _drop(self, x: Tensor, training: bool) -> Tensor:
        return quaternion_dropout(x, self.dropout, training, self.dropout_rng, self.per_component)

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
    depth - 1 layers map the stack width to itself; the front-end output
    must be a whole number of the stack kind's units (CELLS)."""
    config.validate()
    dim = config.input_dim
    width = {"identity": dim, "naive-quat": 4 * ((dim + 3) // 4)}.get(config.front_end, config.r2h_size)
    unit = len(CELLS[config.stack_kind].places)
    if width % unit != 0:
        raise ConfigError(f"{config.stack_kind} stack needs an input width divisible by {unit}, "
                          f"front end provides {width}")
    return width, config.hidden_real_width


def symbolic_param_counts(config: ModelConfig) -> dict:
    """Parameter counts computed from the architecture formulas alone, in
    closed form over the depth, without allocating any buffers. Matches
    param_breakdown(build_model(c)) exactly; used by the params command and
    the memory budget so large configs stay cheap."""
    front_width, hidden = layer_plan(config)
    depth = config.depth
    front = 0 if config.front_end in FIXED_FRONT_ENDS else config.input_dim * front_width + front_width
    unit = len(CELLS[config.stack_kind].places)  # real matrix entries per weight scalar

    def layer_weights(n_in):  # two directions, each gate an input map W and a recurrent map R
        return 2 * len(GATES) * (n_in * hidden + hidden * hidden) // unit

    stack_weights = layer_weights(front_width) + (depth - 1) * layer_weights(hidden) if depth else 0
    stack = stack_weights + depth * 2 * len(GATES) * hidden  # plus one bias per gate
    out_in = hidden if depth else front_width
    return _breakdown(front, stack, out_in * config.classes + config.classes, stack_weights)


def build_model(config: ModelConfig) -> AcousticModel:
    """Construct the model described by a validated config.

    Initialisation and dropout use generators spawned deterministically
    from config.seed, so identical configs give identical models: the front
    end draws first, then per layer the forward cell and the backward cell,
    then the output layer.
    """
    front_width, hidden = layer_plan(config)
    dtype = config.dtype
    ss_init, ss_drop = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(ss_init)
    dropout_rng = np.random.default_rng(ss_drop)

    if config.front_end in FIXED_FRONT_ENDS:
        front = FixedFrontEnd(FIXED_FRONT_ENDS[config.front_end], dtype=dtype)
    else:
        front = RealToQuatEncoder(config.input_dim, front_width, config.r2h_activation,
                                  normalized=(config.front_end == "r2h-norm"), rng=rng, dtype=dtype)

    cell = CELLS[config.stack_kind]
    unit = len(cell.places)
    stack = []
    n_in = front_width
    for _ in range(config.depth):
        stack.append(BiRecurrentLayer(cell(n_in // unit, hidden // unit, rng, dtype=dtype),
                                      cell(n_in // unit, hidden // unit, rng, dtype=dtype)))
        n_in = hidden

    output = RealLinear(n_in, config.classes, rng, dtype=dtype)
    return AcousticModel(front, stack, output, config.dropout, dropout_rng, per_component=(unit == 1))
