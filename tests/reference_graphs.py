"""Graph ops the library does not have, for building reference graphs.

The bit-equality tests compare the fused nodes of the model (linear,
quat_normalize, lstm_layer) and the plain block layout of
layers.block_matrix against the same arithmetic spelled out as a graph of
small nodes. add, neg, matmul, add_bias, reshape, concat and narrow are
those small nodes; none of them broadcasts, apart from add_bias's bias over
the trailing axis.
neg_concat_quat_weight writes the structured quaternion matrix out with its
sign table by hand, so a reference built from it shares no code with
block_matrix. linear_graph and two_direction_graph are the dense and the
bidirectional layer as they were built before each became one node.
"""

import numpy as np

from qnn.autograd import Tensor, op_result, reverse_time
from qnn.errors import ContractError, DimensionError
from qnn.recurrent import run_direction


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: incompatible shapes {a.data.shape} vs {b.data.shape}")
    if a.data.dtype != b.data.dtype:
        raise ContractError(f"add: dtype mismatch {a.data.dtype} vs {b.data.dtype}")

    def backward(g):
        return g, g

    return op_result(a.data + b.data, (a, b), "add", backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        return (-g,)

    return op_result(-a.data, (a,), "neg", backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: inner extents differ, {a.data.shape} vs {b.data.shape}")
    if a.data.dtype != b.data.dtype:
        raise ContractError(f"matmul: dtype mismatch {a.data.dtype} vs {b.data.dtype}")

    def backward(g):  # an operand that needs no gradient (the raw features) gets none
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return op_result(a.data @ b.data, (a, b), "matmul", backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., N] + b[N], broadcasting b over all leading axes."""
    if b.data.ndim != 1 or x.data.shape[-1] != b.data.shape[0]:
        raise DimensionError(f"add_bias: bias {b.data.shape} does not match input {x.data.shape}")
    if x.data.dtype != b.data.dtype:
        raise ContractError(f"add_bias: dtype mismatch {x.data.dtype} vs {b.data.dtype}")

    def backward(g):
        return g, g.reshape(-1, b.data.shape[0]).sum(axis=0)

    return op_result(x.data + b.data, (x, b), "add_bias", backward)


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        return (g.reshape(a.data.shape),)

    return op_result(a.data.reshape(shape), (a,), "reshape", backward)


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


def linear_graph(layer, x: Tensor) -> Tensor:
    """A RealLinear layer as the reshape, matmul, add_bias and reshape
    nodes it was built from before it became one node."""
    flat = x if x.data.ndim == 2 else reshape(x, (-1, layer.n_in))
    out = add_bias(matmul(flat, layer.weight), layer.bias)
    return out if x.data.ndim == 2 else reshape(out, x.shape[:-1] + (layer.n_out,))


def two_direction_graph(layer, seq: Tensor, mask: np.ndarray) -> Tensor:
    """A bidirectional layer as separate nodes: the forward cell over seq,
    the backward cell over a time-reversed copy of seq, its output reversed
    back, and the two added."""
    backward_out = run_direction(layer.bwd, reverse_time(seq), mask[::-1])
    return add(run_direction(layer.fwd, seq, mask), reverse_time(backward_out))
