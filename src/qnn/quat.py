"""Exact quaternion algebra.

A quaternion q = r + x*i + y*j + z*k is kept as four floats. Everything here
runs in double precision and serves as the semantic reference (and test
oracle) for the vectorised layers: the Hamilton product written out as its
16-term expansion must agree with the 4x4 real matrix to_matrix(q1) applied
to the component vector of q2. NORM_EPS is the epsilon of the quaternion
normalization, read by normalize here and by layers.quat_normalize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Quaternion:
    r: float
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        """Component vector (r, x, y, z) as float64."""
        return np.array([self.r, self.x, self.y, self.z], dtype=np.float64)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

NORM_EPS = 1e-12


def hamilton(q1: Quaternion, q2: Quaternion) -> Quaternion:
    """Hamilton product q1 (x) q2. Non-commutative; left operand first."""
    r1, x1, y1, z1 = q1.r, q1.x, q1.y, q1.z
    r2, x2, y2, z2 = q2.r, q2.x, q2.y, q2.z
    return Quaternion(
        r1 * r2 - x1 * x2 - y1 * y2 - z1 * z2,
        r1 * x2 + x1 * r2 + y1 * z2 - z1 * y2,
        r1 * y2 - x1 * z2 + y1 * r2 + z1 * x2,
        r1 * z2 + x1 * y2 - y1 * x2 + z1 * r2,
    )


def to_matrix(q: Quaternion) -> np.ndarray:
    """Real 4x4 float64 matrix M(q) with M(q) @ p.as_array() == hamilton(q, p).

    Row-major layout:

        [ r -x -y -z ]
        [ x  r -z  y ]
        [ y  z  r -x ]
        [ z -y  x  r ]

    which is r*I plus an antisymmetric part.
    """
    r, x, y, z = q.r, q.x, q.y, q.z
    return np.array(
        [
            [r, -x, -y, -z],
            [x, r, -z, y],
            [y, z, r, -x],
            [z, -y, x, r],
        ],
        dtype=np.float64,
    )


def conjugate(q: Quaternion) -> Quaternion:
    return Quaternion(q.r, -q.x, -q.y, -q.z)


def norm(q: Quaternion) -> float:
    return math.sqrt(q.r * q.r + q.x * q.x + q.y * q.y + q.z * q.z)


def normalize(q: Quaternion) -> Quaternion:
    """Scale q to (nearly) unit norm.

    The denominator is norm(q) + NORM_EPS so the zero quaternion maps to
    itself instead of dividing by zero.
    """
    d = norm(q) + NORM_EPS
    return Quaternion(q.r / d, q.x / d, q.y / d, q.z / d)
