"""End-to-end self-verification: algebra identities against the matrix
oracle, and finite-difference checks over every layer family.

The algebra suite accepts an injectable Hamilton product so a deliberately
corrupted implementation (sign_flipped_hamilton) can prove the suite's
sensitivity: a single flipped sign must fail a basis-table case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qnn import quat
from qnn.autograd import Tensor, mul
from qnn.config import ModelConfig
from qnn.data import UtteranceBatch
from qnn.gradcheck import gradient_check
from qnn.layers import ACTIVATIONS, RealToQuatEncoder, split_activation
from qnn.quat import Quaternion
from qnn.recurrent import BiRecurrentLayer, QLSTMCell, build_model, run_direction
from qnn.training import cross_entropy_framewise

ABS_TOL_MATRIX = 1e-12
REL_TOL_NORM = 1e-10
GRAD_TOL = 1e-5


@dataclass
class SuiteResult:
    name: str
    passed: int
    failed: int
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def count(self, ok: bool, detail: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = detail


def sign_flipped_hamilton(q1: Quaternion, q2: Quaternion) -> Quaternion:
    """Hamilton product with the sign of the y1*z2 term flipped: breaks
    j x k = i while keeping many other cases intact."""
    good = quat.hamilton(q1, q2)
    return Quaternion(good.r, good.x - 2.0 * q1.y * q2.z, good.y, good.z)


_BASIS = {"1": quat.ONE, "i": quat.I, "j": quat.J, "k": quat.K}
_BASIS_TABLE = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def _scaled(sign: int, name: str) -> Quaternion:
    base = _BASIS[name]
    return Quaternion(sign * base.r, sign * base.x, sign * base.y, sign * base.z)


def algebra_suite(hamilton_fn=None, pairs: int = 10_000, seed: int = 0) -> SuiteResult:
    """Basis multiplication table (exact), Hamilton-vs-matrix agreement,
    norm multiplicativity, and normalization bounds."""
    product = hamilton_fn or quat.hamilton
    result = SuiteResult("algebra", 0, 0)
    for (a, b), (sign, name) in _BASIS_TABLE.items():
        got = product(_BASIS[a], _BASIS[b])
        want = _scaled(sign, name)
        result.count(got == want, f"basis case {a} x {b}: got {got}, want {want}")

    rng = np.random.default_rng(seed)
    values = rng.standard_normal((pairs, 8))
    for row in values:
        q1 = Quaternion(*row[:4])
        q2 = Quaternion(*row[4:])
        direct = product(q1, q2).as_array()
        via_matrix = quat.to_matrix(q1).apply(q2)
        err = np.max(np.abs(direct - via_matrix.as_array()))
        result.count(err < ABS_TOL_MATRIX,
                     f"matrix oracle: q1={q1}, q2={q2}, abs err {err:.3e}")

        norm_prod = quat.norm(product(q1, q2))
        norm_sep = quat.norm(q1) * quat.norm(q2)
        rel = abs(norm_prod - norm_sep) / max(norm_sep, 1e-300)
        result.count(rel < REL_TOL_NORM,
                     f"norm multiplicativity: q1={q1}, q2={q2}, rel err {rel:.3e}")

        unit = quat.normalize(q1)
        result.count(abs(quat.norm(unit) - 1.0) < 1e-9,
                     f"normalize: q={q1} gave norm {quat.norm(unit)!r}")
    return result


def _kink_free(rng, shape):
    """Magnitudes in (0.1, 0.9) or (1.1, 1.9): at least 0.1 away from the
    hardtanh/relu kinks so central differences stay valid."""
    mag = rng.uniform(0.1, 0.9, shape) + rng.integers(0, 2, shape)
    return mag * rng.choice([-1.0, 1.0], shape)


def gradient_suite(seed: int = 0) -> SuiteResult:
    result = SuiteResult("gradients", 0, 0)

    def check(label, build_loss, params):
        errors = gradient_check(build_loss, params)
        for name, err in errors.items():
            result.count(err < GRAD_TOL, f"{label}.{name}: rel err {err:.3e}")

    rng = np.random.default_rng(seed)

    for kind in ACTIVATIONS:
        inp = Tensor(_kink_free(rng, (4, 8)), requires_grad=True)
        check(f"split_{kind}", lambda k=kind, t=inp: split_activation(k, t).sum(), [("input", inp)])

    for normalized in (False, True):
        enc = RealToQuatEncoder(6, 8, "tanh", normalized=normalized, rng=rng, dtype=np.float64)
        feats = Tensor(rng.standard_normal((4, 6)))
        label = "r2h_norm" if normalized else "r2h"
        check(label, lambda e=enc, f=feats: e.forward(f).sum(), enc.named_parameters())

    cell = QLSTMCell(2, 2, rng, dtype=np.float64)
    seq = Tensor(rng.standard_normal((5, 3, 8)), requires_grad=True)
    mask = np.ones((5, 3), dtype=bool)
    mask[1:3, 1] = mask[3:, 2] = False  # an interior gap and a short sequence: the padding path
    check("qlstm_rollout", lambda: run_direction(cell, seq, mask).sum(),
          [("input", seq)] + cell.named_parameters())
    layer = BiRecurrentLayer(QLSTMCell(2, 2, rng, dtype=np.float64), QLSTMCell(2, 2, rng, dtype=np.float64))
    weights = Tensor(rng.standard_normal((5, 3, 8)))  # uneven per-frame weights, so time order shows
    check("bilstm_layer", lambda: mul(layer.forward(seq, mask), weights).sum(),
          [("input", seq)] + layer.named_parameters())

    config = ModelConfig(
        front_end="r2h-norm", r2h_size=8, stack_kind="qlstm", depth=2,
        hidden_real_width=8, classes=3, dropout=0.0, input_dim=8,
        seed=seed, precision="f64",
    )
    model = build_model(config)
    features = rng.standard_normal((5, 2, 8)).astype(np.float64)
    labels = rng.integers(0, 3, (5, 2)).astype(np.int32)
    batch_mask = np.ones((5, 2), dtype=bool)
    batch_mask[4, 1] = False
    features[4, 1] = 0.0
    batch = UtteranceBatch(features, labels, batch_mask, ("a", "b"))
    check(
        "toy_model",
        lambda: cross_entropy_framewise(model.forward(batch), labels, batch_mask),
        model.named_parameters(),
    )
    return result


def run_selfcheck(hamilton_fn=None, log=print) -> int:
    """Run every suite; returns 0 iff all checks pass (the CLI exit code)."""
    suites = [algebra_suite(hamilton_fn=hamilton_fn), gradient_suite()]
    failed = False
    for suite in suites:
        log(f"suite={suite.name} passed={suite.passed} failed={suite.failed}")
        if not suite.ok:
            failed = True
            log(f"first failure: {suite.first_failure}")
    return 1 if failed else 0
