"""Set-up, reference epoch, timed phases and output gate of one benchmark run."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from probes import GradcheckCounter, Spans, StepProbe
from qnn import autograd
from qnn.checkpoint import load_into_model, save_checkpoint
from qnn.config import ModelConfig
from qnn.data import SynthSpec, generate_synthetic, make_batches, read_features, write_features
from qnn.recurrent import build_model
from qnn.selfcheck import algebra_suite, gradient_suite
from qnn.training import Adam, cross_entropy_framewise, evaluate, train

SETUP_REPEATS = 5
TRACE_EVERY = 3          # with tracing on, steps 1, 4, 7, ... are traced
PARAM_RTOL = 1e-5        # f32 tolerance against the reference train() run
PARAM_ATOL = 1e-6
UNIT_NORM_TOL = 1e-6     # the R2H-norm output contract


class Ledger:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_rev(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(root: Path) -> dict:
    """What the numbers depend on, so results from different machines are never compared."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qnn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": _git_rev(root),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


@dataclass
class SetUp:
    config: ModelConfig
    model: object
    optimizer: Adam
    train_utts: list
    valid_utts: list
    pad_fraction: float
    checkpoint_bytes: int


def _same_utterances(a, b) -> bool:
    return len(a) == len(b) and all(
        x.id == y.id and np.array_equal(x.features, y.features) and np.array_equal(x.labels, y.labels)
        for x, y in zip(a, b))


def set_up(workload, seed: int, workdir: Path, spans: Spans, ledger: Ledger):
    """Synthesize, round-trip through QFEA, build, and round-trip the initial checkpoint."""
    started = time.perf_counter()
    train_gen, valid_gen, _ = generate_synthetic(SynthSpec(seed=seed, **workload.synth))
    train_path, valid_path = str(workdir / "train.qfea"), str(workdir / "valid.qfea")
    write_features(train_path, train_gen)
    write_features(valid_path, valid_gen)
    with spans.span("read_features"):
        train_utts = read_features(train_path)
        valid_utts = read_features(valid_path)
    config = ModelConfig(seed=seed, epochs=1, **workload.model)
    with spans.span("make_batches"):
        batches = make_batches(train_utts, config.batch_size, sort_by_length=True)
    model = build_model(config)
    optimizer = Adam(model.named_parameters(), lr=config.lr0)
    initial = {name: p.data.copy() for name, p in model.named_parameters()}
    ckpt = str(workdir / "initial.qnn")
    with spans.span("checkpoint_save"):
        save_checkpoint(ckpt, model.named_parameters(), config.digest())
    with spans.span("checkpoint_load"):
        load_into_model(ckpt, model, config.digest())
    elapsed = time.perf_counter() - started

    ledger.record(_same_utterances(train_gen, train_utts) and _same_utterances(valid_gen, valid_utts),
                  "QFEA round trip changed the utterances")
    ledger.record(all(np.array_equal(p.data, initial[name]) for name, p in model.named_parameters()),
                  "checkpoint round trip changed the weights")
    slots = sum(b.mask.size for b in batches)
    pad = 1.0 - sum(b.valid_frames for b in batches) / slots
    return SetUp(config, model, optimizer, train_utts, valid_utts, pad, os.path.getsize(ckpt)), elapsed


def train_step(model, optimizer, batch) -> float:
    """One optimizer step with train()'s calls, in train()'s order."""
    optimizer.zero_grad()
    logits = model.forward(batch, training=True)
    loss = cross_entropy_framewise(logits, batch.labels, batch.mask)
    value = float(loss.data)
    if math.isfinite(value):
        autograd.backward(loss)
        optimizer.step()
    return value


class Evaluator:
    """Walks the validation split through evaluate(), one batch per call.

    Each completed pass's frame-weighted loss and error must equal the
    validation numbers train() reported for the same weights.
    """

    def __init__(self, setup: SetUp, reference, ledger: Ledger):
        self.model, self.report = reference
        self.size = setup.config.batch_size
        utts = setup.valid_utts
        self.chunks = [utts[i:i + self.size] for i in range(0, len(utts), self.size)]
        self.ledger = ledger
        self.busy_s = 0.0
        self.passes = 0
        self._start_pass()

    def _start_pass(self):
        self.next = 0
        self.loss_sum = self.err_sum = 0.0
        self.pass_frames = 0

    def step(self):
        """Evaluate the next batch; returns (wall seconds, valid frames)."""
        chunk = self.chunks[self.next]
        n = sum(len(u) for u in chunk)
        started = time.perf_counter()
        try:
            loss, fer = evaluate(self.model, chunk, self.size)
        except Exception as exc:  # a raising batch is a failed operation, not a crash
            loss = fer = math.nan
            what = f"evaluate() raised {exc!r}"
        else:
            what = f"evaluate() loss {loss}"
        elapsed = time.perf_counter() - started
        self.busy_s += elapsed
        self.ledger.record(math.isfinite(loss), what)
        self.loss_sum += loss * n
        self.err_sum += fer * n
        self.pass_frames += n
        self.next += 1
        if self.next == len(self.chunks):
            self.passes += 1
            self.ledger.record(
                math.isclose(self.loss_sum / self.pass_frames, self.report.val_loss, rel_tol=1e-6)
                and math.isclose(self.err_sum / self.pass_frames, self.report.val_frame_error,
                                 rel_tol=1e-9, abs_tol=1e-9),
                "evaluate() batches disagree with train()'s validation pass")
            self._start_pass()
        return elapsed, n


@dataclass
class Samples:
    """Wall times with their valid-frame counts."""

    seconds: list = field(default_factory=list)
    frames: list = field(default_factory=list)

    def add(self, seconds: float, frames: int) -> None:
        self.seconds.append(seconds)
        self.frames.append(frames)


def timed_window(setup: SetUp, reference, seconds: float, eval_share: float, ledger: Ledger, probe):
    """Optimizer steps interleaved with evaluate() batches for `seconds`.

    Steps run until the window closes, never fewer than one full epoch.
    After each step, validation batches run until they hold eval_share of
    the busy time, so both sample the same stretch of machine time. Batches
    come from train()'s shuffle stream and dropout from the model's own
    stream, so epoch 1 must reproduce the reference train() epoch. Returns
    (steps, evals, epochs, evaluator).
    """
    ref_model, ref_report = reference
    config, model, optimizer = setup.config, setup.model, setup.optimizer
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[2])
    evaluator = Evaluator(setup, reference, ledger)
    eval_ratio = eval_share / (1.0 - eval_share)
    steps, evals = Samples(), Samples()
    train_busy = 0.0
    deadline = time.perf_counter() + seconds
    epoch = 0
    while epoch == 0 or time.perf_counter() < deadline:
        epoch += 1
        loss_sum, epoch_frames = 0.0, 0
        for batch in make_batches(setup.train_utts, config.batch_size, shuffle_rng, sort_by_length=True):
            if epoch > 1 and time.perf_counter() >= deadline:
                break
            traced = probe is not None and len(steps.seconds) % TRACE_EVERY == 0
            started = time.perf_counter()
            try:
                value = (probe.traced_step if traced else train_step)(model, optimizer, batch)
            except Exception as exc:  # a raising step is a failed operation, not a crash
                value, what = math.nan, f"epoch {epoch} step raised {exc!r}"
            else:
                what = f"epoch {epoch} step loss {value}"
            elapsed = time.perf_counter() - started
            ledger.record(math.isfinite(value), what)
            if probe is not None and not traced:
                probe.plain_ms_per_frame.append(1e3 * elapsed / batch.valid_frames)
            loss_sum += value * batch.valid_frames
            epoch_frames += batch.valid_frames
            train_busy += elapsed
            steps.add(elapsed, batch.valid_frames)
            while evaluator.busy_s < eval_ratio * train_busy:
                evals.add(*evaluator.step())
        if epoch == 1:
            ref_params = dict(ref_model.named_parameters())
            same = math.isclose(loss_sum / epoch_frames, ref_report.train_loss, rel_tol=PARAM_RTOL) and all(
                np.allclose(p.data, ref_params[name].data, rtol=PARAM_RTOL, atol=PARAM_ATOL)
                for name, p in model.named_parameters())
            ledger.record(same, "epoch-1 loss or weights differ from the same-seed train() run")
    while evaluator.passes == 0:
        evals.add(*evaluator.step())
    return steps, evals, epoch, evaluator


def unit_norm_check(setup: SetUp, ledger: Ledger) -> None:
    """R2H-norm outputs on valid frames lie within UNIT_NORM_TOL of unit norm."""
    model = setup.model
    for batch in make_batches(setup.valid_utts, setup.config.batch_size):
        with autograd.no_grad():
            q = model.front_end.forward(batch.features).data.astype(np.float64)
        h = q.shape[-1] // 4
        norms = np.sqrt(sum(q[..., c * h:(c + 1) * h] ** 2 for c in range(4)))
        worst = float(np.abs(norms[batch.mask] - 1.0).max())
        ledger.record(worst <= UNIT_NORM_TOL, f"R2H-norm output off unit norm by {worst:.2e}")


def run_oracles(spans: Spans, counter: GradcheckCounter, ledger: Ledger) -> None:
    """run_selfcheck()'s two suites, timed apart, with gradient_check's loss evaluations counted."""
    with spans.span("algebra"):
        algebra = algebra_suite()
    with counter.installed(), spans.span("gradients"):
        gradients = gradient_suite()
    ledger.record(algebra.ok and gradients.ok,
                  f"selfcheck failed: {algebra.first_failure or gradients.first_failure}")


def _tail_note(samples, name) -> dict:
    """Sample count, and p90 only where at least ten samples lie beyond it."""
    n = len(samples)
    note = {f"{name}_n": n}
    if n - math.ceil(0.9 * n) >= 10:
        note[f"{name}_ms_p90"] = 1e3 * statistics.quantiles(samples, n=10)[-1]
    return note


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path, ledger: Ledger):
    """One run; returns ({metric: (value, unit)}, notes)."""
    spans = Spans()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        setup, elapsed = set_up(workload, seed, workdir, spans, ledger)
        setup_s.append(elapsed)

    ref_model = build_model(setup.config)
    reference = (ref_model, train(ref_model, setup.train_utts, setup.valid_utts, setup.config)[0])

    probe = StepProbe(seed) if trace else None
    started = time.perf_counter()
    steps, evals, epochs, evaluator = timed_window(
        setup, reference, seconds, workload.eval_share, ledger, probe)
    window = time.perf_counter() - started
    if setup.config.front_end == "r2h-norm":
        unit_norm_check(setup, ledger)
    counter = GradcheckCounter()
    if trace:
        run_oracles(spans, counter, ledger)

    notes = {"workload": workload.name, "seed": seed, "window_s": window, "epochs": epochs,
             "eval_passes": evaluator.passes,
             "eval_batch_ms_p50": 1e3 * statistics.median(evals.seconds),
             **_tail_note(steps.seconds, "train_step"), **_tail_note(evals.seconds, "eval_batch")}
    if not trace:
        return {
            "train_frames_per_s": (sum(steps.frames) / sum(steps.seconds), "frames/s"),
            "train_step_ms_p50": (1e3 * statistics.median(steps.seconds), "ms"),
            "eval_frames_per_s": (sum(evals.frames) / sum(evals.seconds), "frames/s"),
            "setup_s": (statistics.median(setup_s), "s"),
        }, notes
    ms = spans.ms
    metrics = probe.metrics(setup.config.depth)
    metrics.update({
        "data.read_features_ms": (ms("read_features"), "ms"),
        "data.make_batches_ms": (ms("make_batches"), "ms"),
        "data.pad_fraction": (setup.pad_fraction, "ratio"),
        "checkpoint.save_ms": (ms("checkpoint_save"), "ms"),
        "checkpoint.load_ms": (ms("checkpoint_load"), "ms"),
        "checkpoint.bytes": (setup.checkpoint_bytes, "bytes"),
        "selfcheck.algebra_s": (spans.median("algebra"), "s"),
        "selfcheck.gradients_s": (spans.median("gradients"), "s"),
        "gradcheck.loss_evals": (counter.evals, "count"),
        "gradcheck.loss_eval_ms": (1e3 * counter.seconds / max(counter.evals, 1), "ms"),
    })
    return metrics, notes
