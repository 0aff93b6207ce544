"""Quaternion-valued layers on top of the real autograd.

A vector of H quaternions lives in a real vector of length 4H using the
quarter-block convention: entries [0, H) are the r parts, then the x, y and
z parts. A quaternion map (an LSTM gate's input or recurrent weights)
multiplies by a structured real matrix whose 4x4 grid of blocks is the
transpose of quat.QuatMatrix4 with the component matrices Wr, Wx, Wy, Wz in
place of r, x, y, z (transposed because activations are row vectors), so
each output quaternion is the sum over inputs of (weight quaternion)
Hamilton-multiplied by (input quaternion). block_matrix lays out that
matrix, for several maps side by side, from a table of block places derived
from quat.to_matrix; a real matrix is its 1x1 case, so quaternion and real
LSTM gates share one builder. The only dense layer, RealLinear, is real (the
R2H front end and the output layer) and is one graph node: x @ W + b, with
a backward of at most two GEMMs and a bias sum. Split activations apply a real
nonlinearity to every component independently. Dropout is one graph node
that keeps its boolean draw and rebuilds the float mask in its backward.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from qnn import autograd, quat
from qnn.autograd import Tensor, op_result
from qnn.config import CHOICES
from qnn.errors import ConfigError, ContractError, DimensionError

ACTIVATIONS = {
    "sigmoid": autograd.sigmoid,
    "tanh": autograd.tanh,
    "hardtanh": autograd.hardtanh,
    "relu": autograd.relu,
}

NORM_EPS = 1e-12


def split_activation(kind: str, x: Tensor) -> Tensor:
    """Apply a real activation componentwise (layout-independent)."""
    try:
        fn = ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(f"unknown activation '{kind}', expected one of {sorted(ACTIVATIONS)}")
    return fn(x)


def chi4_init(fan_in: int, fan_out: int, rng: np.random.Generator, dtype=np.float32):
    """Quaternion weight sampler: four (fan_in, fan_out) component matrices.

    Magnitudes follow a chi distribution with 4 degrees of freedom scaled by
    sigma = 1/sqrt(2*(fan_in+fan_out)) (fans counted in quaternion units);
    directions are uniform unit purely-imaginary quaternions with a uniform
    angle in (-pi, pi). Biases are everywhere initialised to zero, not here.
    """
    if fan_in <= 0 or fan_out <= 0:
        raise ConfigError(f"fans must be positive, got ({fan_in}, {fan_out})")
    sigma = 1.0 / np.sqrt(2.0 * (fan_in + fan_out))
    shape = (fan_in, fan_out)
    modulus = sigma * np.sqrt((rng.standard_normal(size=(4,) + shape) ** 2).sum(axis=0))
    axis = rng.standard_normal(size=(3,) + shape)
    axis /= np.sqrt((axis**2).sum(axis=0)) + 1e-12
    theta = rng.uniform(-np.pi, np.pi, size=shape)
    w_r = modulus * np.cos(theta)
    s = modulus * np.sin(theta)
    return tuple((c).astype(dtype) for c in (w_r, s * axis[0], s * axis[1], s * axis[2]))


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator, dtype=np.float32):
    if fan_in <= 0 or fan_out <= 0:
        raise ConfigError(f"fans must be positive, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


# For each component of a quaternion weight, the blocks (i, j) of the layer
# matrix that hold it, with their signs, by ascending column block j: block
# (i, j) is block (j, i) of quat.to_matrix of the component's basis
# quaternion, transposed because activations are row vectors.
QUAT_PLACES = [[(i, j, m[j, i] > 0) for j, i in np.argwhere(m).tolist()]
               for m in (quat.to_matrix(q).m for q in (quat.ONE, quat.I, quat.J, quat.K))]
REAL_PLACES = [[(0, 0, True)]]


def block_matrix(maps, places) -> np.ndarray:
    """The real matrices of several maps side by side, as one plain array.

    Each map is a sequence of (fan_in, fan_out) component arrays; component
    c fills the blocks (i, j, positive) of places[c] on an n x n grid,
    n = len(places). Every block is a copy or a negation of one component:
    nothing is multiplied, so an inf or NaN stays in its component's blocks.
    """
    n = len(places)
    fan_in, fan_out = maps[0][0].shape
    out = np.empty((n, fan_in, len(maps), n, fan_out), dtype=maps[0][0].dtype)
    for k, comps in enumerate(maps):
        for comp, blocks in zip(comps, places):
            for i, j, positive in blocks:
                out[i, :, k, j] = comp if positive else -comp
    return out.reshape(n * fan_in, len(maps) * n * fan_out)


def block_grads(g, places, count: int) -> list:
    """Component gradients of block_matrix for `count` maps, map by map, from
    the gradient g of its output. Each sums its signed blocks left to right
    by ascending column block: another order, or sum()'s 0 + start (-0.0
    becomes +0.0), can change the last bit, and with it same-seed results."""
    n = len(places)
    g = g.reshape(n, g.shape[0] // n, count, n, -1)
    return [functools.reduce(operator.add, [g[i, :, k, j] if positive else -g[i, :, k, j]
                                            for i, j, positive in blocks])
            for k in range(count) for blocks in places]


class RealLinear:
    """Plain affine map, used for the R2H front end and the output layer."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, dtype=np.float32):
        self.n_in = n_in
        self.n_out = n_out
        self.weight = Tensor(glorot_uniform(n_in, n_out, rng, dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        """x[..., n_in] @ weight + bias as one graph node; a constant x gets no gradient."""
        if x.shape[-1] != self.n_in:
            raise DimensionError(f"RealLinear: trailing dim {x.shape[-1]} does not match input {self.n_in}")
        if x.dtype != self.weight.dtype:
            raise ContractError(f"RealLinear: input dtype {x.dtype} does not match weight {self.weight.dtype}")
        flat = x.data.reshape(-1, self.n_in)
        w = self.weight.data
        out = flat @ w
        out += self.bias.data

        def backward(g):
            g = g.reshape(-1, self.n_out)
            d_x = (g @ w.T).reshape(x.shape) if x.requires_grad else None
            return d_x, flat.T @ g, g.sum(axis=0)

        return op_result(out.reshape(x.shape[:-1] + (self.n_out,)), (x, self.weight, self.bias),
                         "linear", backward)

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def named_parameters(self, prefix: str = ""):
        return [(prefix + "weight", self.weight), (prefix + "bias", self.bias)]


def quat_normalize(x: Tensor) -> Tensor:
    """Scale every quaternion in a quarter-block tensor to (near) unit norm.

    Divides each quaternion by (its norm + NORM_EPS); quaternions with norm
    well above NORM_EPS come out with |norm - 1| below 1e-6, the zero quaternion stays
    zero. One graph node: the backward is the closed form of
    q / (|q| + eps), with the derivative of the norm at 0 taken as 0 (the
    true one-sided one is +inf and would turn gradients into NaN).
    """
    width = x.shape[-1]
    if width % 4 != 0:
        raise DimensionError(f"quaternion tensor width must be a multiple of 4, got {width}")
    # (..., 4, h): component c of quaternion k sits at [..., c, k]
    quats = x.data.reshape(x.shape[:-1] + (4, width // 4))
    eps = x.dtype.type(NORM_EPS)
    squares = quats * quats
    sq = squares[..., 0, :] + squares[..., 1, :]
    sq += squares[..., 2, :]
    sq += squares[..., 3, :]
    del squares
    norm = np.sqrt(sq, out=sq)
    out = quats / (norm + eps)[..., None, :]

    def backward(g):
        # every sum runs in the order the graph of narrow, mul, add, sqrt,
        # div and concat nodes accumulated it, so the bits stay the same
        denom = (norm + eps)[..., None, :]
        g = g.reshape(quats.shape)
        terms = -g * quats / (denom * denom)
        d_denom = terms[..., 0, :] + terms[..., 1, :]
        d_denom += terms[..., 2, :]
        d_denom += terms[..., 3, :]
        del terms
        d_sq = np.divide(0.5 * d_denom, norm, out=np.zeros_like(norm), where=norm > 0)
        through_norm = d_sq[..., None, :] * quats
        grad = g / denom
        grad += through_norm
        grad += through_norm
        return (grad.reshape(x.shape),)

    return op_result(out.reshape(x.shape), (x,), "quat_normalize", backward)


def quaternion_dropout(
    x: Tensor,
    p: float,
    training: bool,
    rng: np.random.Generator | None = None,
    per_component: bool = False,
) -> Tensor:
    """Inverted dropout that removes whole quaternions.

    In training, each quaternion (all four components together) is zeroed
    with probability p and survivors are scaled by 1/(1-p); in evaluation
    the input passes through untouched. per_component switches to ordinary
    real dropout for ablations and for the real-valued baseline.

    One graph node that keeps only the boolean draw (one flag per
    quaternion, or per component) and rebuilds the float mask in its
    backward, with the same arithmetic as x * mask.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("training-mode dropout needs a seeded generator")
    scale = 1.0 / (1.0 - p)
    if per_component:
        keep = rng.random(size=x.shape) >= p
    else:
        width = x.shape[-1]
        if width % 4 != 0:
            raise DimensionError(f"quaternion dropout needs width divisible by 4, got {width}")
        keep = rng.random(size=x.shape[:-1] + (width // 4,)) >= p

    def mask():
        full = keep if per_component else np.concatenate([keep] * 4, axis=-1)
        return full.astype(x.dtype) * scale

    def backward(g):
        return (g * mask(),)

    return op_result(x.data * mask(), (x,), "dropout", backward)


class RealToQuatEncoder:
    """Front end mapping real feature vectors to (optionally unit) quaternions.

    A real dense layer produces 4H pre-activations, a split activation is
    applied, and with normalized=True each of the H output quaternions is
    rescaled to unit norm. The output follows the quarter-block layout.
    """

    def __init__(
        self,
        input_dim: int,
        width: int,
        activation: str,
        normalized: bool,
        rng: np.random.Generator,
        dtype=np.float32,
    ):
        if width % 4 != 0:
            raise ConfigError(f"encoder width must be a multiple of 4, got {width}")
        allowed = CHOICES["r2h_activation"]
        if activation not in allowed:
            raise ConfigError(f"encoder activation must be {'/'.join(allowed)}, got '{activation}'")
        self.dense = RealLinear(input_dim, width, rng, dtype=dtype)
        self.activation = activation
        self.normalized = normalized

    def forward(self, x) -> Tensor:
        if isinstance(x, np.ndarray):
            x = Tensor(x.astype(self.dense.weight.dtype, copy=False))
        out = split_activation(self.activation, self.dense(x))
        if self.normalized:
            out = quat_normalize(out)
        return out

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def named_parameters(self, prefix: str = ""):
        return self.dense.named_parameters(prefix + "dense.")
