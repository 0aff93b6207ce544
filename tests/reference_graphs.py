"""Graph ops the library does not have, for building reference graphs.

The bit-equality tests compare the fused nodes of the model (quat_normalize,
lstm_layer) and the plain block layout of layers.block_matrix against
the same arithmetic spelled out as a graph of small nodes. concat and narrow
are those small nodes; neg_concat_quat_weight writes the structured
quaternion matrix out with its sign table by hand, so a reference built from
it shares no code with block_matrix. two_direction_graph is the
bidirectional layer as it was built before it became one node.
"""

import numpy as np

from qnn.autograd import Tensor, neg, op_result, reverse_time
from qnn.recurrent import run_direction


def concat(tensors, axis: int) -> Tensor:
    """Graph concatenation along one axis."""
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(g):
        return tuple(np.take(g, range(lo, hi), axis=axis) for lo, hi in zip(offsets, offsets[1:]))

    return op_result(out, tuple(tensors), "concat", backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Graph slice [start, start+length) along one axis."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        full = np.zeros(a.data.shape, dtype=a.data.dtype)
        full[idx] = g
        return (full,)

    return op_result(a.data[idx], (a,), "narrow", backward)


def neg_concat_quat_weight(r: Tensor, x: Tensor, y: Tensor, z: Tensor) -> Tensor:
    """The (4*in_q, 4*out_q) structured matrix of four (in_q, out_q)
    component matrices, its sign table written out as neg and concat nodes."""
    cols = [
        concat([r, neg(x), neg(y), neg(z)], axis=0),
        concat([x, r, neg(z), y], axis=0),
        concat([y, z, r, neg(x)], axis=0),
        concat([z, neg(y), x, r], axis=0),
    ]
    return concat(cols, axis=1)


def two_direction_graph(layer, seq: Tensor, mask: np.ndarray) -> Tensor:
    """A bidirectional layer as separate nodes: the forward cell over seq,
    the backward cell over a time-reversed copy of seq, its output reversed
    back, and the two added."""
    backward_out = run_direction(layer.bwd, reverse_time(seq), mask[::-1])
    return run_direction(layer.fwd, seq, mask) + reverse_time(backward_out)
