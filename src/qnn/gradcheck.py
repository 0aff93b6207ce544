"""Central finite-difference gradient checking.

The numeric side never touches the autograd graph: it re-evaluates the loss
with entries of the parameter buffers perturbed in place, so it stays an
independent oracle for the analytic backward pass.
"""

from __future__ import annotations

import numpy as np

from qnn import autograd
from qnn.autograd import Tensor

FD_STEP = 1e-4  # central-difference step h


def fd_grad(loss_fn, param: Tensor) -> np.ndarray:
    """Central-difference gradient of loss_fn() w.r.t. every entry of param.

    loss_fn must be a pure function of the current parameter buffers.
    """
    out = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    got = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = loss_fn()
        flat[i] = orig - FD_STEP
        fm = loss_fn()
        flat[i] = orig
        got[i] = (fp - fm) / (2.0 * FD_STEP)
    return out


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Infinity-norm error scaled by the larger gradient magnitude."""
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-12)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def gradient_check(build_loss, params) -> dict[str, float]:
    """Compare analytic and finite-difference gradients for named parameters.

    build_loss: () -> scalar Tensor, re-run for every perturbation.
    params: iterable of (name, Tensor) with requires_grad set.
    Returns per-name relative errors.
    """
    params = list(params)
    for _, p in params:
        p.zero_grad()
    loss = build_loss()
    autograd.backward(loss)
    analytic = {}
    for name, p in params:
        if p.grad is None:
            analytic[name] = np.zeros_like(p.data)
        else:
            analytic[name] = p.grad.copy()

    def loss_value():
        with autograd.no_grad():
            return float(build_loss().data.reshape(()))

    errors = {}
    for name, p in params:
        numeric = fd_grad(loss_value, p)
        errors[name] = rel_err(analytic[name], numeric)
    return errors
