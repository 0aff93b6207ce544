"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps a contiguous real ndarray. Every tracked operation attaches a
Node recording its inputs and a backward rule; backward() linearises the
graph reachable from a scalar loss into a Tape (topologically ordered record
list) and replays it in reverse, accumulating gradients into the
requires_grad leaves. The sweep consumes the graph, freeing each op's saved
buffers once its backward has run; a graph is differentiated once. Calling
backward on two graphs over the same leaves without zeroing adds the leaf
gradients: accumulation is explicit, never overwrite.

A graph keeps every Tensor, since gradients are routed by Tensor identity,
but only the arrays some backward reads. Each backward rule captures at
forward time what it reads (an input array, its own output, a shape), never
an input Tensor's data, so an op output that no backward reads can be freed
with release() once every op that reads it has run.

There is no broadcasting: mul takes two operands of one shape. The ops here
are mul, sum_all, reverse_time and the R2H encoder's three split activations
(tanh, hardtanh, relu, each built by _elementwise); the dense and recurrent
layers, dropout, the quaternion normalization and the loss are each one
op_result node with a hand-written backward; the LSTM gates are computed
inside the recurrent kernel.
Sequences are time-major (T, B, D) so recurrent code slices axis 0.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from qnn.errors import ContractError, DimensionError


class _GradMode(threading.local):
    """Per-thread recording flag, so one thread's no_grad never leaks into another."""

    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Disable graph recording inside the block (frozen evaluation) on this thread."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Node:
    """Backward record: op name, input tensors, and the local gradient rule."""

    __slots__ = ("op", "inputs", "backward")

    def __init__(self, op, inputs, backward):
        self.op = op
        self.inputs = inputs
        self.backward = backward


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data: np.ndarray, requires_grad: bool = False, node: Node | None = None):
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self.node = node

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.data.shape)}, dtype={self.data.dtype}{flag})"

    def sum(self):
        return sum_all(self)


def recording(inputs) -> bool:
    """Whether an op over inputs makes a graph node: gradients are being
    tracked on this thread and some input requires one."""
    return _grad_mode.enabled and any(t.requires_grad for t in inputs)


def op_result(data: np.ndarray, inputs, op: str, backward) -> Tensor:
    """Wrap an op's output, attaching a Node when recording(inputs)."""
    if recording(inputs):
        return Tensor(data, requires_grad=True, node=Node(op, tuple(inputs), backward))
    return Tensor(data)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of one shape and dtype."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: incompatible shapes {a.data.shape} vs {b.data.shape}")
    if a.data.dtype != b.data.dtype:
        raise ContractError(f"mul: dtype mismatch {a.data.dtype} vs {b.data.dtype}")
    x, y = a.data, b.data
    out = x * y

    def backward(g):  # an operand that needs no gradient (a constant) gets none
        return (g * y if a.requires_grad else None,
                g * x if b.requires_grad else None)

    return op_result(out, (a, b), "mul", backward)


def _elementwise(op: str, fn, grad):
    """A one-input elementwise op named op: out = fn(x) on the plain array,
    and its backward returns grad(g, out). The derivative is stated from
    the output alone, so the backward keeps out and not the input, which
    its producer may then release()."""

    def apply(a: Tensor) -> Tensor:
        out = fn(a.data)
        return op_result(out, (a,), op, lambda g: (grad(g, out),))

    apply.__name__ = op
    return apply


# Each derivative from the output, bit-equal to its rule from the input x:
# tanh's 1 - out^2; relu's x > 0 is out > 0 (a NaN fails both); hardtanh
# clamps to [-1, 1] with slope 1 strictly inside, 0 outside and at the
# kinks, and -1 < x < 1 is -1 < out < 1 (a clamped or NaN x fails both).
tanh = _elementwise("tanh", np.tanh, lambda g, out: g * (1.0 - out * out))
relu = _elementwise("relu", lambda x: np.maximum(x, 0.0), lambda g, out: g * (out > 0))
hardtanh = _elementwise("hardtanh", lambda x: np.clip(x, -1.0, 1.0),
                        lambda g, out: g * ((out > -1.0) & (out < 1.0)))


def release(t: Tensor) -> None:
    """Free the array of a recorded op output that no backward reads, once
    every op that reads it has run: t stays in the graph, routing gradients,
    while its data becomes an empty array of its dtype, so a stray later
    read fails on the shape instead of quietly keeping the array alive. A
    tensor with no node (a leaf, a constant, anything made under no_grad)
    is left as it is."""
    if t.node is not None:
        t.data = np.empty(0, dtype=t.data.dtype)


def sum_all(a: Tensor) -> Tensor:
    shape, dtype = a.data.shape, a.data.dtype
    out = np.asarray(a.data.sum(), dtype=dtype)

    def backward(g):
        return (np.full(shape, g, dtype=dtype),)

    return op_result(out, (a,), "sum", backward)


def reverse_time(a: Tensor) -> Tensor:
    """Flip the leading (time) axis."""
    out = a.data[::-1].copy()

    def backward(g):
        return (g[::-1].copy(),)

    return op_result(out, (a,), "reverse_time", backward)


class Tape:
    """Topologically ordered op records reachable from a root tensor.

    Every record's inputs appear earlier in the list than the record itself,
    so replaying the list in reverse performs one correct backward sweep.
    """

    __slots__ = ("records",)

    def __init__(self, records):
        self.records = records

    @staticmethod
    def from_root(root: Tensor) -> "Tape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            if t.node is not None:
                for inp in t.node.inputs:
                    if id(inp) not in seen:
                        stack.append((inp, False))
        return Tape(order)


_CONSUMED = Node("consumed", (), None)  # marks an op output whose backward has already run


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf tensor.

    The sweep consumes the graph: each op output drops its Node (inputs and
    saved buffers) as soon as its backward has run, so intermediate arrays
    are freed during the sweep even while the caller still holds the loss.
    Running backward again over a consumed graph raises ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    records = Tape.from_root(loss).records
    if any(t.node is _CONSUMED for t in records):
        raise ContractError("backward: the graph was already consumed by an earlier backward()")
    pending: dict[int, np.ndarray] = {
        id(loss): np.ones(loss.data.shape, dtype=loss.data.dtype)
    }
    while records:
        t = records.pop()
        g = pending.pop(id(t), None)
        if t.node is None:
            if g is not None and t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g
            continue
        node, t.node = t.node, _CONSUMED
        if g is None:
            continue
        for inp, gi in zip(node.inputs, node.backward(g)):
            if gi is None or not inp.requires_grad:
                continue
            acc = pending.get(id(inp))
            pending[id(inp)] = gi if acc is None else acc + gi
