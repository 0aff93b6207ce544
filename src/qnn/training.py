"""Framewise cross-entropy training with Adam and validation-driven
learning-rate halving.

The learning rate only ever takes values lr0 * 2^-k. Two halving rules are
offered: "stall" (default) halves when the relative validation improvement
(prev - curr) / prev drops below the 0.001 threshold, "literal" halves when
the validation loss itself is below 0.001. Under "stall" the first epoch
never halves, having no earlier loss to compare with; "literal" can halve
after any epoch, the first included. Shuffling draws from the third of
config.seed_streams.

Metrics are written as one self-describing key=value line per epoch. The
file deliberately excludes wall-clock timings (they are printed, and kept
on the returned EpochReport records) so that repeated runs with the same
seed produce byte-identical metrics files.
"""

from __future__ import annotations

import ctypes
import functools
import os
import time
from dataclasses import dataclass

import numpy as np

from qnn import autograd
from qnn.autograd import Tensor, op_result
from qnn.checkpoint import save_checkpoint
from qnn.config import ModelConfig, seed_streams
from qnn.data import atomic_write, make_batches
from qnn.errors import ContractError, DataError, TrainingAbort


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_framewise(logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-softmax over valid frames of a (T, B, C) batch.

    Fused forward/backward: the graph sees a single node whose gradient is
    (softmax - onehot) / n_valid on valid frames and zero elsewhere.
    """
    if logits.data.ndim != 3:
        raise ContractError(f"expected (T, B, C) logits, got shape {logits.shape}")
    t_len, batch, classes = logits.shape
    dtype = logits.dtype
    if labels.shape != (t_len, batch) or mask.shape != (t_len, batch):
        raise ContractError(
            f"labels {labels.shape} / mask {mask.shape} do not match logits {(t_len, batch)}"
        )
    bad = mask & ((labels < 0) | (labels >= classes))
    if bad.any():
        t, b = np.argwhere(bad)[0]
        raise DataError(f"label {labels[t, b]} out of range [0, {classes}) at frame {t}, sequence {b}")
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise DataError("batch has no valid frames")

    # labels on padded frames may hold anything; clamp them out of the gather
    safe_labels = np.where(mask, labels, 0).astype(np.int64)
    logp = log_softmax(logits.data)
    picked = np.take_along_axis(logp, safe_labels[..., None], axis=-1)[..., 0]
    value = -(picked * mask).sum() / n_valid

    def backward(g):
        grad = np.exp(logp) * (mask[..., None] / n_valid)
        np.subtract.at(grad, (np.arange(t_len)[:, None], np.arange(batch)[None, :], safe_labels),
                       mask / n_valid)
        return (grad * g).astype(dtype, copy=False),

    return op_result(np.asarray(value, dtype=dtype), (logits,), "cross_entropy", backward)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_GROUP = 1 << 14  # most scalars in one group of the moment state


class Adam:
    """Bias-corrected Adam with (beta1, beta2, eps) = (0.9, 0.999, 1e-8).

    The moments are kept flat per group of consecutive parameters of one
    dtype and at most ADAM_GROUP scalars together (a larger parameter makes
    a group alone), and each group runs the update elementwise in one pass:
    its gradients are gathered with one concatenate, and each parameter then
    subtracts its slice of the group's update. Elementwise, every value is
    the per-parameter formula's, in its operation order, so the bits are
    too; the step's temporaries are one group's size, not the model's.
    """

    def __init__(self, named_params, lr: float = 1e-3):
        self.params = list(named_params)
        self.lr = lr
        self.t = 0
        runs = []  # (params, offsets into the group's flat state) per group
        for _, p in self.params:
            if not runs or runs[-1][0][0].dtype != p.dtype or runs[-1][1][-1] + p.size > ADAM_GROUP:
                runs.append(([], [0]))
            runs[-1][0].append(p)
            runs[-1][1].append(runs[-1][1][-1] + p.size)
        # (params, offsets, m, v) per group
        self.groups = [(params, offsets, np.zeros(offsets[-1], params[0].dtype),
                        np.zeros(offsets[-1], params[0].dtype)) for params, offsets in runs]

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        missing = next((name for name, p in self.params if p.grad is None), None)
        if missing is not None:
            raise ContractError(f"missing gradient for parameter '{missing}'")
        with np.errstate(over="ignore"):  # a huge lr overflows quietly; train() then aborts
            for params, offsets, m, v in self.groups:
                g = np.concatenate([p.grad.reshape(-1) for p in params])
                m += (1.0 - ADAM_BETA1) * (g - m)
                v += (1.0 - ADAM_BETA2) * (g * g - v)
                update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
                for p, start, end in zip(params, offsets, offsets[1:]):
                    p.data -= update[start:end].reshape(p.shape)


LR_THRESHOLD = 0.001
LR_FACTOR = 0.5


@dataclass
class LRSchedule:
    rule: str = "stall"
    prev_val_loss: float | None = None

    def update(self, val_loss: float, lr: float) -> float:
        if self.rule == "literal":
            new_lr = lr * LR_FACTOR if val_loss < LR_THRESHOLD else lr
        else:
            if self.prev_val_loss is None:
                new_lr = lr
            else:
                improvement = (self.prev_val_loss - val_loss) / max(self.prev_val_loss, 1e-12)
                new_lr = lr * LR_FACTOR if improvement < LR_THRESHOLD else lr
        self.prev_val_loss = val_loss
        return new_lr


@dataclass
class EpochReport:
    epoch: int
    train_loss: float
    val_loss: float
    val_frame_error: float  # percent
    lr: float
    seconds: float

    def record(self, digest: str, seed: int) -> str:
        """Metrics-file line; excludes wall clock to keep files byte-stable."""
        return (
            f"epoch={self.epoch} train_loss={self.train_loss!r} val_loss={self.val_loss!r} "
            f"val_fer={self.val_frame_error!r} lr={self.lr!r} digest={digest} seed={seed}"
        )


_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


@functools.cache
def keep_freed_pages() -> None:
    """Keep the memory one training step frees mapped for the next, on glibc.

    Every step frees its graph and allocates one of the same shapes. glibc
    by default serves arrays above an adaptive threshold with fresh mmaps
    and trims the heap top on free, so each step would fault its buffers in
    again page by page. A fixed 32 MiB mmap threshold and a 1 GiB trim
    threshold keep those pages in the heap for reuse; the resident size
    then stays at its high-water mark until the process exits. Where the C
    library has no mallopt (macOS, musl) nothing changes. Runs once per
    process.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _batch_metrics(model, batch):
    with autograd.no_grad():
        logits = model.forward(batch, training=False)
    loss = float(cross_entropy_framewise(logits, batch.labels, batch.mask).data)
    predictions = logits.data.argmax(axis=-1)
    errors = int(((predictions != batch.labels) & batch.mask).sum())
    return loss * batch.valid_frames, errors, batch.valid_frames


def evaluate(model, utterances, batch_size: int = 8):
    """(mean loss, frame error rate %) over valid frames. Padded frames never
    count, so the batch size changes the result only by rounding: a frame's
    logits move in their last bits with the shapes BLAS is handed (up to
    5e-7 at f32 and 1e-15 at f64 against single-utterance batches). An empty
    set is a DataError."""
    batches = make_batches(utterances, batch_size)
    if not batches:
        raise DataError("evaluation set is empty")
    loss_sum, errors, frames = map(sum, zip(*(_batch_metrics(model, b) for b in batches)))
    return loss_sum / frames, 100.0 * errors / frames


def train(model, train_utts, valid_utts, config: ModelConfig, out_dir: str = None,
          log=None):
    """Run exactly config.epochs epochs; returns the list of EpochReports.

    Per epoch: shuffled length-bucketed batches, one Adam step per batch,
    validation pass, learning-rate update, metrics line, checkpoint. The
    initial model, the final model, and the best-validation model are kept
    when out_dir is given. A non-finite training loss or parameter gradient
    aborts immediately, before the optimizer step; a non-finite weight after
    an epoch's last step aborts before that epoch is validated or recorded.
    An empty split is refused before anything is written.
    """
    config.validate()
    for name, utterances in (("training", train_utts), ("validation", valid_utts)):
        if not utterances:
            raise DataError(f"{name} set is empty")
    keep_freed_pages()
    digest = config.digest()
    params = model.named_parameters()
    optimizer = Adam(params, lr=config.lr0)
    schedule = LRSchedule(rule=config.lr_rule)
    shuffle_rng = seed_streams(config.seed)[2]

    reports = []
    best_val = float("inf")

    def write_metrics():
        # the whole file is rewritten atomically, so a crash never leaves a partial line
        with atomic_write(os.path.join(out_dir, "metrics.txt"), text=True) as fh:
            fh.writelines(r.record(digest, config.seed) + "\n" for r in reports)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "initial.qnn"), params, digest)
        write_metrics()

    for epoch in range(1, config.epochs + 1):
        started = time.monotonic()
        lr_used = optimizer.lr
        batches = make_batches(train_utts, config.batch_size, shuffle_rng, sort_by_length=True)
        loss_sum = 0.0
        frames = 0
        for index, batch in enumerate(batches):
            optimizer.zero_grad()
            with np.errstate(over="ignore", invalid="ignore"):  # overflowed weights: refused below
                logits = model.forward(batch, training=True)
                loss = cross_entropy_framewise(logits, batch.labels, batch.mask)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingAbort(
                    f"non-finite training loss {value} at epoch {epoch}, batch {index} "
                    f"(utterances {', '.join(batch.ids)})"
                )
            autograd.backward(loss)
            bad = next((name for name, p in params
                        if p.grad is not None and not np.isfinite(p.grad).all()), None)
            if bad is not None:
                raise TrainingAbort(
                    f"non-finite gradient for parameter '{bad}' at epoch {epoch}, batch {index} "
                    f"(utterances {', '.join(batch.ids)})"
                )
            optimizer.step()
            del logits, loss  # the next forward never overlaps this step's graph
            loss_sum += value * batch.valid_frames
            frames += batch.valid_frames
        bad = next((name for name, p in params if not np.isfinite(p.data).all()), None)
        if bad is not None:  # Adam can overflow finite gradients into inf or NaN weights
            raise TrainingAbort(f"non-finite weights in parameter '{bad}' after epoch {epoch}")

        val_loss, val_fer = evaluate(model, valid_utts, config.batch_size)
        optimizer.lr = schedule.update(val_loss, optimizer.lr)
        report = EpochReport(epoch, loss_sum / frames, val_loss, val_fer, lr_used,
                             time.monotonic() - started)
        reports.append(report)
        if out_dir is not None:
            write_metrics()
        if log is not None:
            log(f"{report.record(digest, config.seed)} seconds={report.seconds:.1f}")
        if out_dir is not None:
            save_checkpoint(os.path.join(out_dir, "last.qnn"), params, digest)
            if val_loss < best_val:
                best_val = val_loss
                save_checkpoint(os.path.join(out_dir, "best.qnn"), params, digest)
    return reports
