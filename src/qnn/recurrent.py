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
its cell; layer_plan reads it, and build_model and symbolic_param_counts
read layer_plan.

Sequences are time-major (T, B, D) with a boolean validity mask, and
batches are right-padded. Each bidirectional layer is one fused graph node
(lstm_layer) with hand-written backpropagation through time, fed by the
sequence and both cells' parameters, that returns the sum of its two
directions. On a padded frame h and c are zero, so padded outputs are zero
and each direction starts a sequence from the zero state. _direction's
docstring describes the one-direction kernel: the gate layout, the
per-frame loop and the padding rule. lstm_layer runs a two-cell layer's
reverse direction through _helper: a helper process (qnn.worker) while the
forward direction runs in this one, or where none can run its in-process
stand-in, with the same interface.
"""

from __future__ import annotations

import numpy as np

from qnn.autograd import Tensor, op_result, recording, release
from qnn.config import ModelConfig, seed_streams
from qnn.data import UtteranceBatch
from qnn.errors import ConfigError, ContractError, DimensionError
from qnn import layers, worker
from qnn.layers import FIXED_FRONT_ENDS, FixedFrontEnd, RealLinear, RealToQuatEncoder, quaternion_dropout

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
# real), which divides every width the stack sees and is what dropout drops
# (quaternion_dropout's unit).
CELLS = {"qlstm": QLSTMCell, "lstm": RealLSTMCell}


def gate_affine(hidden: int, dtype):
    """(scale, shift) over the [f | i | c | o] columns: with s = 1/2 on f, i
    and o, sigmoid(x) = tanh(s x) s + (1 - s), and with s = 1 on c the same
    expression is tanh(x), so one tanh activates all four gates."""
    scale = np.full(4 * hidden, 0.5, dtype=dtype)
    scale[2 * hidden:3 * hidden] = 1
    return scale, 1 - scale


def _direction(x, mask, wx, wh, bias, record: bool):
    """The LSTM recurrence of one direction on plain arrays, walking the
    (T, B, input) array x and the (T, B) mask in their time order with the
    (input, 4H) input map wx, the (H, 4H) recurrent map wh and the (4H,)
    bias, gates side by side as [f | i | c | o]. Returns ([the (T, B, H)
    output], backward), the form worker.Helper's start returns, backward
    being None unless record is set and otherwise a closure
    backward(grad, input_grad) -> (d_x, d_wx, d_wh, d_bias), d_x being None
    unless input_grad is set. The kernel never knows which way it runs:
    lstm_layer hands a reverse direction time-reversed arrays.

    Layout. The gates, h and c states are (T, B, 4H) and (T + 1, B, H)
    arrays, contiguous in the direction's time order, so its projection and
    closing GEMMs and its bias sum run over time in that order. A
    time-reversed view is projected from a contiguous copy (reshape copies
    a reversed view).

    Forward. One matmul projects all frames into the gate array. Then per
    frame: one matmul of the hidden state against the recurrent map, the
    frame's projected rows added, one transposed copy into a contiguous
    gate-major (4, B, H) block, and one tanh over that block, using
    sigmoid(x) = tanh(x/2)/2 + 1/2 with the halving folded into W, the bias
    and R once per call (gate_affine); the cell-state and output arithmetic
    then runs on the block's contiguous (B, H) gate slices, with tanh(c) in
    a per-frame scratch. Only when record is set (a graph node will hold the
    backward) is each frame's activated block copied back into the gate
    array, which becomes the gate cache; evaluation skips the copy.

    Padding. On a padded frame the forward zeroes h and c and the backward
    zeroes d_h and d_c, so the direction starts every sequence from the
    zero state. In a right-padded batch the forward direction's padding
    follows its sequence and the reverse direction's precedes it, so
    appending padding never changes valid-frame results; a gap inside a
    sequence restarts the state. One mask.all(axis=1) finds the frames
    with a padded row, and only those get a (B, 1) keep column.

    Backward. Full BPTT. It keeps the gate cache and the c states, not the
    h states, which are only the output. It recomputes tanh(c) for all
    frames over the c states and multiplies it by o there, which rebuilds
    the forward's h states bit for bit for the d_wh GEMM; it writes its
    local derivatives over the gate cache, keeping a copy of the forget
    gate, and holds g i in the buffer that then takes through. Its one
    reversed loop makes per frame one joint [d_c, d_c, d_c, d_h] product
    and one matmul against the transposed recurrent map; the input-gradient
    GEMM runs only for input_grad, and each cell splits the W, bias and R
    gradients back per component (split_grads).

    Both loops walk their arrays' frames by iteration, not by index: the
    forward zips the gate rows, h and c states and cache frames and works on
    the block's four gate slices, made once; the backward zips the reversed
    incoming gradient, keep columns, through, gate-gradient and forget-gate
    frames, and drops that zip and its last frames before the closing
    GEMMs, since their views would keep f and through alive.
    """
    t_len, batch, n_in = x.shape
    hidden = wh.shape[0]
    width = 4 * hidden
    dtype = x.dtype
    affine = gate_affine(hidden, dtype)
    # the pre-activations scaled by gate_affine; power-of-two scaling is exact
    gates = np.empty((t_len, batch, width), dtype=dtype)
    np.matmul(x.reshape(t_len * batch, n_in), wx * affine[0], out=gates.reshape(t_len * batch, width))
    gates += bias * affine[0]
    wh_scaled = wh * affine[0]
    recurrent = np.empty((batch, width), dtype=dtype)
    block = np.empty((4, batch, hidden), dtype=dtype)
    tanh_c = np.empty((batch, hidden), dtype=dtype)  # per-frame scratch, recomputed by the backward
    # the loop writes every frame after the first
    h_states = np.empty((t_len + 1, batch, hidden), dtype=dtype)
    c_states = np.empty((t_len + 1, batch, hidden), dtype=dtype)
    h_states[0] = c_states[0] = 0
    # gate-major views: the recurrent term as (4, B, H), the gate array as (T, 4, B, H)
    recurrent_block = recurrent.reshape(batch, 4, hidden).transpose(1, 0, 2)
    gate_blocks = gates.reshape(t_len, batch, 4, hidden).transpose(0, 2, 1, 3)
    # per gate over the whole block: an operand of the block's shape takes numpy's contiguous path
    scale, shift = (np.broadcast_to(a[::hidden, None, None], block.shape).copy() for a in affine)
    # a padded frame's state is zeroed by its (B, 1) keep column; None where every row is valid
    keeps = [None] * t_len
    for t in np.flatnonzero(~mask.all(axis=1)).tolist():
        keeps[t] = mask[t, :, None].astype(dtype)
    f, i, g, o = block
    frames = zip(gates, h_states[:-1], h_states[1:], c_states[:-1], c_states[1:], gate_blocks, keeps)
    for projected, h_prev, h, c_prev, c, cache, keep in frames:
        np.matmul(h_prev, wh_scaled, out=recurrent)
        recurrent += projected
        np.copyto(block, recurrent_block)
        np.tanh(block, out=block)
        block *= scale
        block += shift
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=tanh_c)
        c += tanh_c
        np.tanh(c, out=tanh_c)
        np.multiply(o, tanh_c, out=h)
        if record:
            cache[...] = block
        if keep is not None:
            h *= keep
            c *= keep

    def backward(grad, input_grad: bool):
        # d pre_t = [d_c, d_c, d_c, d_h] * local_t, and d_c picks up d_h * through_t.
        # local, then d_pre, is written over the gate cache, so f is copied
        # first for the loop; l_g and l_i are g and i, written over in place.
        # The through buffer holds 1 - f, then g * i, then through_t.
        # tanh(c), then o * tanh(c), is written over the c states, which then
        # hold the forward's h states for the closing d_wh GEMM: tanh(0) * o
        # is h_0, and on a padded frame the zeroed c gives h's zero, of the
        # same sign as o >= 0. On padded frames the recomputed tanh(c) only
        # meets gradients keep zeroed.
        d_pre = gates
        l_f, _, _, l_o = f, i, g, o = np.split(d_pre, 4, axis=2)
        f = f.copy()
        np.multiply(c_states[:-1], f, out=l_f)
        tanh_c = np.tanh(c_states, out=c_states)[1:]
        through = np.subtract(1, f)
        l_f *= through
        np.multiply(g, i, out=through)
        np.multiply(g, g, out=g)
        np.subtract(1, g, out=g)
        g *= i
        np.subtract(1, i, out=i)
        i *= through
        np.multiply(tanh_c, tanh_c, out=through)
        np.subtract(1, through, out=through)
        through *= o
        tanh_c *= o
        np.subtract(1, o, out=l_o)
        l_o *= tanh_c
        del tanh_c
        d_h, d_c = np.zeros((2, batch, hidden), dtype=dtype)  # each frame makes new ones
        wh_t = wh.T
        frames = zip(grad[::-1], reversed(keeps), through[::-1], d_pre[::-1], f[::-1])
        for grad_t, keep, through_t, d_pre_t, f_t in frames:
            d_h += grad_t
            if keep is not None:  # nothing flows through a zeroed state
                d_h *= keep
                d_c *= keep
            d_c = d_c + d_h * through_t
            d_pre_t *= np.concatenate((d_c, d_c, d_c, d_h), axis=1)
            d_c = d_c * f_t
            d_h = np.matmul(d_pre_t, wh_t)
        f = through = frames = f_t = through_t = None  # the frame views would keep f and through alive
        d = d_pre.reshape(-1, width)
        d_x = (d @ wx.T).reshape(x.shape) if input_grad else None
        return d_x, x.reshape(-1, n_in).T @ d, c_states[:-1].reshape(-1, hidden).T @ d, d.sum(axis=0)

    return [h_states[1:]], backward if record else None


def _helper_reverse(x, mask, wx, wh, bias, record: bool):
    """_direction as the helper process runs it, on views of the shared
    buffer that the next request overwrites: a recorded forward copies the
    arrays its backward reads, x, wx and wh, and nothing else is copied."""
    if record:
        x, wx, wh = x.copy(), wx.copy(), wh.copy()
    return _direction(x, mask, wx, wh, bias, record)


# what runs each two-cell layer's reverse direction: the helper process, or
# where none can run its in-process stand-in, which runs _direction here
_helper = worker.helper(_helper_reverse, _direction)


def lstm_layer(seq: Tensor, mask: np.ndarray, cells) -> Tensor:
    """Fused recurrent layer: one graph node fed by seq and every cell's
    parameters (Appleyard et al., arXiv:1604.01946).

    seq is (T, B, input) and mask (T, B) boolean. cells[0] runs forward in
    time; a second cell runs backward in time, and its output is added
    frame by frame. _direction runs and describes the kernel of each. The
    second cell gets the sequence, the mask and the incoming gradient
    reversed in time, and its output and input gradient are reversed back.
    It runs through recurrent._helper, bound once at the forward: in the
    helper process (qnn.worker) while the first runs here, forward and
    backward, so the two directions take the host's two cores, or where no
    helper can run in its in-process stand-in, after the first. The forward
    starts it with helper.call(None, ...), which returns the state the
    helper keeps for a recorded forward; the backward resumes that state
    with helper.call(state, ...).
    """
    if mask.shape != seq.shape[:2]:
        raise DimensionError(f"mask shape {mask.shape} does not match sequence {seq.shape[:2]}")
    params = [cell.prepared() for cell in cells]
    for wx, _, _ in params:
        if seq.dtype != wx.dtype:
            raise ContractError(f"lstm_layer: dtype mismatch {seq.dtype} vs cell {wx.dtype}")
        if seq.shape[2] != wx.shape[0]:
            raise DimensionError(f"sequence width {seq.shape[2]} does not match cell input {wx.shape[0]}")
    inputs = [seq] + [p for cell in cells for _, p in cell.named_parameters()]
    record = recording(inputs)
    helper = _helper

    def forward_cell():
        return _direction(seq.data, mask, *params[0], record)

    def add_reverse(mine, theirs):
        ((h,), backward), (h_reverse,) = mine, theirs
        return h + h_reverse[::-1], backward

    if len(cells) == 1:
        ((out,), forward_backward), reverse = forward_cell(), None
    else:
        (out, forward_backward), reverse = helper.call(
            None, [seq.data[::-1], mask[::-1], *params[1]], {"record": record}, forward_cell, add_reverse)

    def backward(grad):
        input_grad = seq.requires_grad

        def forward_cell_backward():
            d_seq, *d_w = forward_backward(grad, input_grad)
            return [d_seq] + cells[0].split_grads(*d_w)

        def add_reverse_grads(mine, theirs):
            # the helper's arrays are views of its buffer, and split_grads returns views
            # of the bias gradient and a real cell's blocks, so the reverse cell's are copied
            (d_seq, *grads), (d_x, *d_w) = mine, theirs
            grads += [d.copy() for d in cells[1].split_grads(*d_w)]
            return [None if d_x is None else d_seq + d_x[::-1]] + grads

        if len(cells) == 1:
            return forward_cell_backward()
        return helper.call(reverse, [grad[::-1]], {"input_grad": input_grad},
                           forward_cell_backward, add_reverse_grads)[0]

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


class AcousticModel:
    """Front end -> (bi)recurrent stack -> real dense output, framewise.

    Dropout drops whole units of `unit` reals (the stack cell's: whole
    quaternions for the quaternion stack, single reals for the real one)
    from the front-end output and from every stack layer output, never
    from the logits.
    """

    def __init__(self, front_end, stack, output: RealLinear, dropout: float,
                 dropout_rng: np.random.Generator, unit: int):
        self.front_end = front_end
        self.stack = list(stack)
        self.output = output
        self.dropout = dropout
        self.dropout_rng = dropout_rng
        self.unit = unit

    def _drop(self, x: Tensor, training: bool) -> Tensor:
        out = quaternion_dropout(x, self.dropout, training, self.dropout_rng, self.unit)
        if out is not x:  # dropout's backward keeps its draw, not x
            release(x)
        return out

    def forward(self, batch: UtteranceBatch, training: bool = False) -> Tensor:
        """Logits (T, B, C); padded frames carry meaningless values and must
        be excluded from losses/metrics via the batch mask. The features are
        cast to the parameters' dtype here, once, before any front end.

        Dropout reads the front-end output and each stack layer's output and
        nothing else does, so where it drops (training, p > 0) a recorded one
        is released (autograd.release) once dropout has run: the graph keeps
        the tensor, and its array is freed unless a backward holds it (the
        output of a tanh r2h encoder without normalization, which tanh's
        backward reads). A fixed front end's output is not recorded, and is
        left alone."""
        x = self.front_end.forward(batch.features.astype(self.output.weight.dtype, copy=False))
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


def layer_plan(config: ModelConfig) -> tuple[int, type, int]:
    """The model's shape, read by both build_model and symbolic_param_counts:
    the front-end output width, the stack cell (CELLS) and the stack output
    width. The first stack layer maps the front-end width to the stack
    width, the remaining depth - 1 layers map the stack width to itself, and
    the output layer reads the stack width, which a depth-0 stack leaves at
    the front-end width. The front-end output must be a whole number of the
    cell's units."""
    config.validate()
    fixed = FIXED_FRONT_ENDS.get(config.front_end)
    width = fixed[1](config.input_dim) if fixed else config.r2h_size
    cell = CELLS[config.stack_kind]
    unit = len(cell.places)
    if width % unit != 0:
        raise ConfigError(f"{config.stack_kind} stack needs an input width divisible by {unit}, "
                          f"front end provides {width}")
    return width, cell, config.hidden_real_width if config.depth else width


def symbolic_param_counts(config: ModelConfig) -> dict:
    """Parameter counts computed from the architecture formulas alone, in
    closed form over the depth, without allocating any buffers. Matches
    param_breakdown(build_model(c)) exactly; used by the params command and
    the memory budget so large configs stay cheap."""
    front_width, cell, hidden = layer_plan(config)
    depth = config.depth
    unit = len(cell.places)  # real matrix entries per weight scalar

    def dense(n_in, n_out):  # RealLinear: weight and bias
        return n_in * n_out + n_out

    def layer_weights(n_in):  # two directions, each gate an input map W and a recurrent map R
        return 2 * len(GATES) * (n_in * hidden + hidden * hidden) // unit

    front = 0 if config.front_end in FIXED_FRONT_ENDS else dense(config.input_dim, front_width)
    stack_weights = layer_weights(front_width) + (depth - 1) * layer_weights(hidden) if depth else 0
    stack = stack_weights + depth * 2 * len(GATES) * hidden  # plus one bias per gate
    return _breakdown(front, stack, dense(hidden, config.classes), stack_weights)


def build_model(config: ModelConfig) -> AcousticModel:
    """Construct the model described by a validated config.

    Initialisation and dropout use the first two of
    config.seed_streams(config.seed), so identical configs give identical
    models: the front end draws first, then per layer the forward cell and
    the backward cell, then the output layer.
    """
    front_width, cell, hidden = layer_plan(config)
    dtype = config.dtype
    rng, dropout_rng, _ = seed_streams(config.seed)

    if config.front_end in FIXED_FRONT_ENDS:
        front = FixedFrontEnd(FIXED_FRONT_ENDS[config.front_end][0])
    else:
        front = RealToQuatEncoder(config.input_dim, front_width, config.r2h_activation,
                                  normalized=(config.front_end == "r2h-norm"), rng=rng, dtype=dtype)

    unit = len(cell.places)
    stack = []
    for k in range(config.depth):
        n_in, n_out = (hidden if k else front_width) // unit, hidden // unit
        stack.append(BiRecurrentLayer(*(cell(n_in, n_out, rng, dtype=dtype) for _ in range(2))))

    output = RealLinear(hidden, config.classes, rng, dtype=dtype)
    return AcousticModel(front, stack, output, config.dropout, dropout_rng, unit)
