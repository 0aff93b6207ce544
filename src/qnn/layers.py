"""Quaternion-valued layers on top of the real autograd.

A vector of H quaternions lives in a real vector of length 4H using the
quarter-block convention: entries [0, H) are the r parts, then the x, y and
z parts. A quaternion map (an LSTM gate's input or recurrent weights)
multiplies by a structured real matrix whose 4x4 grid of blocks is the
transpose of quat.to_matrix with the component matrices Wr, Wx, Wy, Wz in
place of r, x, y, z (transposed because activations are row vectors), so
each output quaternion is the sum over inputs of (weight quaternion)
Hamilton-multiplied by (input quaternion). block_matrix lays out that
matrix, for several maps side by side, from a table of block places derived
from quat.to_matrix; a real matrix is its 1x1 case, so quaternion and real
LSTM gates share one builder. The only dense layer, RealLinear, is real (the
R2H front end and the output layer) and is one graph node: x @ W + b, with
a backward of at most two GEMMs and a bias sum. Dropout drops whole units
of the cell that reads its output (a quaternion, or a real for the real
stack), and is one graph node that keeps its boolean draw, one flag per
unit, and multiplies by the per-unit float mask forward and backward.

Every front end lives here. RealToQuatEncoder (R2H) is a RealLinear, then
one split activation, then optionally quat_normalize. ACTIVATIONS holds the
split activations, exactly the config's r2h_activation choices; each applies
a real nonlinearity to every component independently. The parameter-free
front ends are FixedFrontEnd instances, each holding a transform from
FIXED_FRONT_ENDS: the features unchanged, or naive_quat_compose's repack of
each four coefficients into one quaternion. Beside each transform the table
states the width it makes of D features, which the model's layer plan reads
without running the transform.
"""

from __future__ import annotations

import numpy as np

from qnn import autograd, quat
from qnn.autograd import Tensor, op_result
from qnn.errors import ConfigError, ContractError, DimensionError

# The R2H encoder's split activations, in config.CHOICES["r2h_activation"]
# order: each applies a real nonlinearity to every component independently,
# and its backward reads its output, not its input (autograd._elementwise).
ACTIVATIONS = {"tanh": autograd.tanh, "hardtanh": autograd.hardtanh, "relu": autograd.relu}


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
    axis /= np.sqrt((axis**2).sum(axis=0)) + quat.NORM_EPS
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
               for m in (quat.to_matrix(q) for q in (quat.ONE, quat.I, quat.J, quat.K))]
REAL_PLACES = [[(0, 0, True)]]


def block_matrix(maps, places) -> np.ndarray:
    """The real matrices of several maps side by side, as one plain array.

    Each map is a sequence of (fan_in, fan_out) component arrays; component
    c fills the blocks (i, j, positive) of places[c] on an n x n grid,
    n = len(places). Every block is a copy or a negation of one component:
    nothing is multiplied, so an inf or NaN stays in its component's blocks.
    It is built per component across all maps at once: the maps' copies of
    a component are stacked, and each block is one assignment of the stack
    or of its negation. The negation is a fresh array, not np.negative into
    the block: numpy 2.4.6's np.negative writes wrong values into some
    strided outputs.
    """
    n = len(places)
    fan_in, fan_out = maps[0][0].shape
    out = np.empty((n, fan_in, len(maps), n, fan_out), dtype=maps[0][0].dtype)
    for comps, blocks in zip(zip(*maps), places):
        comp = np.stack(comps, axis=1)  # (fan_in, maps, fan_out)
        for i, j, positive in blocks:
            out[i, :, :, j] = comp if positive else -comp
    return out.reshape(n * fan_in, len(maps) * n * fan_out)


def block_grads(g, places, count: int) -> list:
    """Component gradients of block_matrix for `count` maps, map by map, from
    the gradient g of its output. Each sums its signed blocks left to right
    by ascending column block: another order, or sum()'s 0 + start (-0.0
    becomes +0.0), can change the last bit, and with it same-seed results.
    Each component is summed for all maps at once, into one contiguous
    (count, fan_in, fan_out) array whose rows are the maps' gradients; a
    negative block after the first is subtracted, which IEEE 754 defines
    as adding its negation. A component with one positive block (a real
    map) returns views of g itself."""
    n = len(places)
    g = g.reshape(n, g.shape[0] // n, count, n, -1).transpose(0, 3, 2, 1, 4)  # g[i, j]: (count, fan_in, fan_out)
    sums = []
    for blocks in places:
        (i, j, positive), *rest = blocks
        total = g[i, j] if positive else -g[i, j]
        out = np.empty(g.shape[2:], dtype=g.dtype)
        for i, j, positive in rest:
            total = (np.add if positive else np.subtract)(total, g[i, j], out=out)
        sums.append(total)
    return [total[k] for k in range(count) for total in sums]


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
        shape = x.shape
        flat = x.data.reshape(-1, self.n_in)
        w = self.weight.data
        out = flat @ w
        out += self.bias.data

        def backward(g):
            g = g.reshape(-1, self.n_out)
            d_x = (g @ w.T).reshape(shape) if x.requires_grad else None
            return d_x, flat.T @ g, g.sum(axis=0)

        return op_result(out.reshape(shape[:-1] + (self.n_out,)), (x, self.weight, self.bias),
                         "linear", backward)

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def named_parameters(self, prefix: str = ""):
        return [(prefix + "weight", self.weight), (prefix + "bias", self.bias)]


def quat_normalize(x: Tensor) -> Tensor:
    """Scale every quaternion in a quarter-block tensor to (near) unit norm.

    Divides each quaternion by (its norm + quat.NORM_EPS); quaternions with norm
    well above NORM_EPS come out with |norm - 1| below 1e-6, the zero quaternion stays
    zero. One graph node: the backward is the closed form of
    q / (|q| + eps), with the derivative of the norm at 0 taken as 0 (the
    true one-sided one is +inf and would turn gradients into NaN).
    """
    shape = x.shape
    width = shape[-1]
    if width % 4 != 0:
        raise DimensionError(f"quaternion tensor width must be a multiple of 4, got {width}")
    # (..., 4, h): component c of quaternion k sits at [..., c, k]
    quats = x.data.reshape(shape[:-1] + (4, width // 4))
    eps = x.dtype.type(quat.NORM_EPS)
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
        return (grad.reshape(shape),)

    return op_result(out.reshape(shape), (x,), "quat_normalize", backward)


def quaternion_dropout(
    x: Tensor,
    p: float,
    training: bool,
    rng: np.random.Generator | None = None,
    unit: int = 4,
) -> Tensor:
    """Inverted dropout that removes whole units of `unit` components.

    The last axis holds width // unit units in the quarter-block layout:
    component c of unit k sits at c * (width // unit) + k. In training,
    each unit (all its components together) is zeroed with probability p
    and survivors are scaled by 1/(1-p); in evaluation the input passes
    through untouched. unit is the cell's len(places): 4 drops whole
    quaternions, 1 is ordinary real dropout for the real-valued baseline.

    One graph node that keeps only the boolean draw (one flag per unit)
    and its input's shape, not the input: once it has run, the caller may
    release() a recorded input that nothing else reads. Its forward and its
    backward multiply the (..., unit, width // unit) view of their input by
    the per-unit float mask, with the same products as x * mask over the
    full width.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("training-mode dropout needs a seeded generator")
    scale = x.dtype.type(1.0 / (1.0 - p))
    shape = x.shape
    width = shape[-1]
    if width % unit != 0:
        raise DimensionError(f"dropout needs width divisible by its unit {unit}, got {width}")
    keep = rng.random(size=shape[:-1] + (width // unit,)) >= p

    def drop(a):
        return (a.reshape(shape[:-1] + (unit, -1)) * (keep * scale)[..., None, :]).reshape(shape)

    return op_result(drop(x.data), (x,), "dropout", lambda g: (drop(g),))


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
        if activation not in ACTIVATIONS:
            raise ConfigError(f"encoder activation must be {'/'.join(ACTIVATIONS)}, got '{activation}'")
        self.dense = RealLinear(input_dim, width, rng, dtype=dtype)
        self.activation = activation
        self.normalized = normalized

    def forward(self, x) -> Tensor:
        """The encoding of x (a Tensor or an ndarray). The dense output's
        array is released once the activation has read it: the activation's
        backward reads its own output, the dense layer's backward its input."""
        if isinstance(x, np.ndarray):
            x = Tensor(x)
        dense = self.dense(x)
        out = ACTIVATIONS[self.activation](dense)
        autograd.release(dense)
        if self.normalized:
            out = quat_normalize(out)
        return out

    def named_parameters(self, prefix: str = ""):
        return self.dense.named_parameters(prefix + "dense.")


def naive_quat_compose(features: np.ndarray) -> np.ndarray:
    """Reinterpret each frame of D reals as ceil(D/4) quaternions.

    Coefficients (4k, 4k+1, 4k+2, 4k+3) become quaternion k = (r, x, y, z),
    repacked to the quarter-block layout. Widths not divisible by 4 are
    zero-padded on the right first, to FIXED_FRONT_ENDS' naive-quat width.
    Works on any leading shape (..., D).
    """
    dim = features.shape[-1]
    width = FIXED_FRONT_ENDS["naive-quat"][1](dim)
    if width > dim:
        features = np.pad(features, [(0, 0)] * (features.ndim - 1) + [(0, width - dim)])
    grouped = features.reshape(features.shape[:-1] + (width // 4, 4))
    return np.ascontiguousarray(grouped.swapaxes(-1, -2)).reshape(features.shape[:-1] + (width,))


class FixedFrontEnd:
    """A parameter-free front end: transform(features), in their dtype."""

    def __init__(self, transform):
        self.transform = transform

    def forward(self, features: np.ndarray) -> Tensor:
        return Tensor(self.transform(features))

    def named_parameters(self, prefix: str = ""):
        return []


# Each parameter-free front end as (transform, width): the transform of
# (..., D) features and, in closed form, the width D becomes. The features
# unchanged, or each four consecutive coefficients as one quaternion,
# zero-padded to a whole number of quaternions.
FIXED_FRONT_ENDS = {"identity": (lambda features: features, lambda dim: dim),
                    "naive-quat": (naive_quat_compose, lambda dim: 4 * ((dim + 3) // 4))}
