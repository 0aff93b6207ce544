"""Forward semantics and finite-difference gradient checks for the tape.

add, neg, matmul, add_bias, reshape and concat come from reference_graphs:
the bit-equality tests build their reference graphs from them, so their
gradients are checked here beside the library's own ops.
"""

import sys
import threading

import numpy as np
import pytest

from qnn import autograd
from qnn.autograd import Tensor, backward, hardtanh, mul, relu, reverse_time, sigmoid, tanh
from qnn.errors import ContractError, DimensionError
from qnn.gradcheck import fd_grad, gradient_check, rel_err
from reference_graphs import add, add_bias, concat, matmul, neg, reshape


def leaf(rng, shape, scale=1.0):
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    b = Tensor(rng.normal(size=(3, 5)))
    out = matmul(Tensor(np.eye(3)), b)
    assert np.array_equal(out.data, b.data)


def test_matmul_grad_is_column_sums():
    rng = np.random.default_rng(1)
    a = leaf(rng, (4, 3))
    b = Tensor(rng.normal(size=(3, 2)))
    backward(matmul(a, b).sum())
    # d sum(A B) / dA broadcasts the column sums of B across rows
    expected = np.tile(b.data.sum(axis=1), (4, 1))
    assert np.allclose(a.grad, expected, atol=1e-12)


def test_matmul_skips_gradient_of_constant_operand():
    rng = np.random.default_rng(3)
    features = Tensor(rng.normal(size=(5, 4)))  # raw input: needs no gradient
    w = leaf(rng, (4, 3))
    g = rng.normal(size=(5, 3))
    d_features, d_w = matmul(features, w).node.backward(g)
    assert d_features is None and np.array_equal(d_w, features.data.T @ g)
    const = Tensor(rng.normal(size=(3, 2)))
    g = rng.normal(size=(4, 2))
    d_w, d_const = matmul(w, const).node.backward(g)
    assert d_const is None and np.array_equal(d_w, g @ const.data.T)


def test_matmul_fd():
    rng = np.random.default_rng(2)
    a = leaf(rng, (5, 4))
    b = leaf(rng, (4, 3))
    errs = gradient_check(lambda: matmul(a, b).sum(), [("a", a), ("b", b)])
    assert max(errs.values()) < 1e-6


def test_matmul_shape_error_names_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
        matmul(a, b)


def test_elementwise_values():
    assert sigmoid(Tensor(np.array(0.0))).item() == 0.5
    h = hardtanh(Tensor(np.array([-3.0, 0.4, 7.0])))
    assert np.array_equal(h.data, np.array([-1.0, 0.4, 1.0]))
    assert relu(Tensor(np.array([-2.0, 3.0]))).data.tolist() == [0.0, 3.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_edges_stay_finite_and_accurate(dtype):
    eps = np.finfo(dtype).eps
    edges = np.array([-1e4, -100.0, 0.0, 100.0, 1e4], dtype=dtype)
    grid = np.linspace(-30.0, 30.0, 2401).astype(dtype)
    with np.errstate(all="raise"):  # no overflow, underflow or invalid flag
        out = sigmoid(Tensor(edges)).data
        got = sigmoid(Tensor(grid)).data
    assert out.dtype == got.dtype == dtype
    assert np.isfinite(out).all() and ((out >= 0) & (out <= 1)).all()
    assert out[2] == 0.5
    x = grid.astype(np.longdouble)
    assert np.max(np.abs(got - 1 / (1 + np.exp(-x)))) <= eps


def test_elementwise_shape_error():
    with pytest.raises(DimensionError):
        mul(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):  # no scalar broadcasting
        mul(Tensor(np.zeros(3)), Tensor(np.asarray(2.0)))


def test_unary_fd():
    rng = np.random.default_rng(3)
    for op in (sigmoid, tanh, relu, hardtanh):
        x = leaf(rng, (4, 5), scale=2.0)
        # keep clear of the relu/hardtanh kinks
        x.data[np.abs(x.data) < 2e-2] = 0.1
        x.data[np.abs(np.abs(x.data) - 1.0) < 2e-2] = 0.5
        errs = gradient_check(lambda: op(x).sum(), [("x", x)])
        assert errs["x"] < 1e-6, op.__name__


def test_binary_fd():
    rng = np.random.default_rng(4)
    a = leaf(rng, (3, 4))
    b = leaf(rng, (3, 4))
    for op in (add, mul):
        errs = gradient_check(lambda: op(a, b).sum(), [("a", a), ("b", b)])
        assert max(errs.values()) < 1e-6, op.__name__


def test_mul_skips_gradient_of_constant_operand():
    rng = np.random.default_rng(5)
    x = leaf(rng, (3, 4))
    mask = Tensor(rng.uniform(size=(3, 4)))
    g = rng.normal(size=(3, 4))
    d_x, d_mask = mul(x, mask).node.backward(g)
    assert d_mask is None and np.array_equal(d_x, g * mask.data)
    d_mask, d_x = mul(mask, x).node.backward(g)
    assert d_mask is None and np.array_equal(d_x, g * mask.data)


def test_add_bias_fd():
    rng = np.random.default_rng(6)
    x = leaf(rng, (7, 3))
    b = leaf(rng, (3,))
    errs = gradient_check(lambda: tanh(add_bias(x, b)).sum(), [("x", x), ("b", b)])
    assert max(errs.values()) < 1e-6


def test_sum_grad_is_ones():
    w = Tensor(np.zeros((3, 2)), requires_grad=True)
    backward(w.sum())
    assert np.array_equal(w.grad, np.ones((3, 2)))


def test_backward_accumulates():
    rng = np.random.default_rng(7)
    w = leaf(rng, (3, 3))
    x = Tensor(rng.normal(size=(3, 3)))
    backward(matmul(w, x).sum())
    once = w.grad.copy()
    backward(matmul(w, x).sum())
    assert np.array_equal(w.grad, 2.0 * once)


def test_backward_over_a_consumed_graph_raises():
    rng = np.random.default_rng(8)
    w = leaf(rng, (3, 3))
    hidden = tanh(matmul(w, Tensor(rng.normal(size=(3, 3)))))
    loss = hidden.sum()
    backward(loss)
    once = w.grad.copy()
    with pytest.raises(ContractError):
        backward(loss)
    # a new loss over an op output whose backward already ran would treat
    # that output as a leaf and never reach w
    with pytest.raises(ContractError):
        backward(mul(hidden, hidden).sum())
    assert np.array_equal(w.grad, once)


def test_backward_rejects_non_scalar():
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        backward(mul(w, w))


def test_hamilton_as_matmul_fd():
    # composite 4x4 built from the quaternion components with the
    # [[r,-x,-y,-z],[x,r,-z,y],[y,z,r,-x],[z,-y,x,r]] sign pattern
    rng = np.random.default_rng(8)
    r, xx, y, z = (leaf(rng, (1, 1)) for _ in range(4))
    v = leaf(rng, (4, 1))

    def build():
        rows = [
            concat([r, neg(xx), neg(y), neg(z)], axis=1),
            concat([xx, r, neg(z), y], axis=1),
            concat([y, z, r, neg(xx)], axis=1),
            concat([z, neg(y), xx, r], axis=1),
        ]
        return matmul(concat(rows, axis=0), v).sum()

    errs = gradient_check(build, [("r", r), ("x", xx), ("y", y), ("z", z), ("v", v)])
    assert max(errs.values()) < 1e-6


def test_reverse_time_involution():
    rng = np.random.default_rng(9)
    s = Tensor(rng.normal(size=(5, 2, 3)))
    assert np.array_equal(reverse_time(reverse_time(s)).data, s.data)


def test_concat_backward_routes_blocks():
    rng = np.random.default_rng(11)
    a = leaf(rng, (2, 3))
    b = leaf(rng, (2, 2))
    errs = gradient_check(
        lambda: tanh(concat([a, b], axis=1)).sum(), [("a", a), ("b", b)]
    )
    assert max(errs.values()) < 1e-6


def test_reshape_fd():
    rng = np.random.default_rng(12)
    s = leaf(rng, (4, 2, 3))
    errs = gradient_check(lambda: tanh(reshape(s, (4 * 2, 3))).sum(), [("s", s)])
    assert errs["s"] < 1e-6


def test_reverse_time_fd():
    rng = np.random.default_rng(13)
    s = leaf(rng, (4, 2, 3))
    errs = gradient_check(lambda: tanh(reverse_time(s)).sum(), [("s", s)])
    assert errs["s"] < 1e-6


def test_no_grad_suppresses_graph():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with autograd.no_grad():
        out = mul(w, Tensor(np.full((2, 2), 3.0)))
    assert out.node is None and not out.requires_grad


def test_no_grad_is_per_thread():
    # threads entering and leaving no_grad must never switch recording off
    # for another thread
    w = Tensor(np.ones(2), requires_grad=True)
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            with autograd.no_grad():
                pass

    workers = [threading.Thread(target=churn) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        two = Tensor(np.full(2, 2.0))
        recorded = [mul(w, two).node is not None for _ in range(2000)]
    finally:
        stop.set()
        for t in workers:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert all(recorded)


def test_no_nan_for_moderate_inputs():
    rng = np.random.default_rng(14)
    x = Tensor(rng.uniform(-50.0, 50.0, size=(100,)), requires_grad=True)
    for op in (sigmoid, tanh, relu, hardtanh):
        out = op(x)
        assert np.isfinite(out.data).all()
        backward(out.sum())
        assert np.isfinite(x.grad).all()
        x.zero_grad()


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        loss = tanh(matmul(a, sigmoid(b))).sum()
        backward(loss)
        return loss.item(), a.grad.copy(), b.grad.copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert l1 == l2
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


def test_universal_gradient_sweep():
    """Every differentiable op on >= 20 random small inputs stays under 1e-5."""
    rng = np.random.default_rng(15)
    worst = 0.0
    for trial in range(20):
        x = leaf(rng, (3, 4), scale=1.5)
        y = leaf(rng, (3, 4), scale=1.5)
        y.data += 2.0
        w = leaf(rng, (4, 2))
        x.data[np.abs(x.data) < 2e-2] = 0.15
        x.data[np.abs(np.abs(x.data) - 1.0) < 2e-2] = 0.6

        def build():
            h = tanh(matmul(add(x, y), w))
            s = sigmoid(mul(x, y))
            t = relu(add(x, neg(y)))
            u = hardtanh(mul(x, y))
            return add(add(add(h.sum(), s.sum()), t.sum()), u.sum())

        errs = gradient_check(build, [("x", x), ("y", y), ("w", w)])
        worst = max(worst, max(errs.values()))
    assert worst < 1e-5


def test_fd_helper_on_quadratic():
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)

    def f():
        return float((x.data ** 2).sum())

    g = fd_grad(f, x)
    assert rel_err(2.0 * x.data, g) < 1e-8
