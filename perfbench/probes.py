"""Per-layer measurement from outside the library.

Spans are recorded around calls into qnn's public functions and objects:
instance-level wrappers on the model's front end, stack layers and output
layer during a traced step, and replays of single layers on detached leaf
copies of the inputs captured in that step, each with a fixed cotangent.
Nothing here changes what the library computes; replays only accumulate
parameter gradients, which the next step's zero_grad() clears.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager

import numpy as np

from qnn import autograd
from qnn import selfcheck as selfcheck_module
from qnn.autograd import Tape, Tensor, reverse_time
from qnn.recurrent import run_direction
from qnn.training import cross_entropy_framewise

COUNTED_OPS = ("narrow", "concat", "neg", "mul", "add", "matmul", "reshape", "stack0", "reverse_time")
BASE_T = 48  # prefix length of the T-linearity reference replay


class Spans:
    """Named duration samples, in seconds."""

    def __init__(self):
        self.samples = defaultdict(list)

    def add(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds)

    @contextmanager
    def span(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else math.nan

    def ms(self, name: str) -> float:
        return 1e3 * self.median(name)


@contextmanager
def _instance_patch(obj, attr: str, replacement):
    setattr(obj, attr, replacement)
    try:
        yield
    finally:
        delattr(obj, attr)


class StepProbe:
    """Spans, graph counts and layer replays for traced optimizer steps."""

    def __init__(self, seed: int):
        self.spans = Spans()
        self.counts = defaultdict(list)
        self.rng = np.random.default_rng(seed)
        self.traced_ms_per_frame = []
        self.plain_ms_per_frame = []

    def _timed(self, name, fn, capture=None):
        def call(*args):
            if capture is not None:
                capture.append(args)
            with self.spans.span(name):
                return fn(*args)
        return call

    def traced_step(self, model, optimizer, batch) -> float:
        """One step in train()'s order with spans at every layer boundary.

        Returns the loss value; the step's layer inputs are replayed after it.
        """
        captured = {}
        started = time.perf_counter()
        patches = [
            (model.front_end, "forward", self._timed("front_end", model.front_end.forward)),
            (model.output, "forward", self._timed("output", model.output.forward,
                                                  captured.setdefault("output", []))),
        ]
        for idx, layer in enumerate(model.stack):
            patches.append((layer, "forward", self._timed(
                f"stack{idx}", layer.forward, captured.setdefault(f"stack{idx}", []))))
        with ExitStack() as stack:
            for obj, attr, replacement in patches:
                stack.enter_context(_instance_patch(obj, attr, replacement))
            optimizer.zero_grad()
            logits = model.forward(batch, training=True)
        with self.spans.span("loss"):
            loss = cross_entropy_framewise(logits, batch.labels, batch.mask)
        value = float(loss.data)
        if not math.isfinite(value):
            return value
        with self.spans.span("tape"):
            tape = Tape.from_root(loss)
        with self.spans.span("count"):
            self._graph_counts(tape)
        del tape
        with self.spans.span("backward"):
            autograd.backward(loss)
        with self.spans.span("adam"):
            optimizer.step()
        total = time.perf_counter() - started
        attributed = sum(self.spans.samples[name][-1] for name in
                         ["front_end", "output", "loss", "tape", "count", "backward", "adam"]
                         + [f"stack{i}" for i in range(len(model.stack))])
        self.spans.add("unattributed", total - attributed)
        self.traced_ms_per_frame.append(1e3 * total / batch.valid_frames)
        self._replay(model, batch, captured)
        return value

    def _graph_counts(self, tape: Tape) -> None:
        nodes = [t for t in tape.records if t.node is not None]
        ops = Counter(t.node.op for t in nodes)
        self.counts["graph_nodes"].append(len(nodes))
        self.counts["graph_mb"].append(sum(t.data.nbytes for t in tape.records) / 2**20)
        for op in COUNTED_OPS:
            self.counts[f"nodes.{op}"].append(ops.get(op, 0))

    def _cotangent(self, like: np.ndarray) -> Tensor:
        return Tensor(self.rng.standard_normal(like.shape).astype(like.dtype))

    def _fwd_bwd(self, name: str, forward):
        """Time forward() building a graph, then backward of <out, fixed cotangent>."""
        with self.spans.span(f"{name}.fwd"):
            out = forward()
        loss = autograd.sum_all(autograd.mul(out, self._cotangent(out.data)))
        with self.spans.span(f"{name}.bwd"):
            autograd.backward(loss)

    def _replay(self, model, batch, captured) -> None:
        features = batch.features
        self._fwd_bwd("r2h", lambda: model.front_end.forward(features))
        with self.spans.span("weight_matrix"):
            for layer in model.stack:
                layer.fwd.prepared()
                layer.bwd.prepared()
        t_len = features.shape[0]
        base = min(BASE_T, t_len)
        for idx, layer in enumerate(model.stack):
            (x, mask), = captured[f"stack{idx}"]
            for t_used, tag in ((t_len, ""), (base, ".t48")):
                leaf = Tensor(np.array(x.data[:t_used]), requires_grad=True)
                m = mask[:t_used]
                self._fwd_bwd(f"stack{idx}.fwd_dir{tag}", lambda: run_direction(layer.fwd, leaf, m))
                self._fwd_bwd(f"stack{idx}.bwd_dir{tag}", lambda: reverse_time(
                    run_direction(layer.bwd, reverse_time(leaf), m[::-1])))
            self.counts["t_len"].append(t_len)
            self.counts["t_base"].append(base)
        (x,), = captured["output"]
        leaf = Tensor(np.array(x.data), requires_grad=True)
        with self.spans.span("output_loss.fwd"):
            loss = cross_entropy_framewise(model.output(leaf), batch.labels, batch.mask)
        with self.spans.span("output_loss.bwd"):
            autograd.backward(loss)

    def metrics(self, depth: int) -> dict:
        s = self.spans
        ms = s.ms

        def med(name):
            return statistics.median(self.counts[name])

        out = {}
        bwd_full, bwd_base = [], []
        for idx in range(depth):
            out[f"recurrent.stack{idx}.step_fwd_ms"] = (ms(f"stack{idx}"), "ms")
            for d in ("fwd_dir", "bwd_dir"):
                for phase in ("fwd", "bwd"):
                    out[f"recurrent.stack{idx}.{d}.{phase}_ms"] = (ms(f"stack{idx}.{d}.{phase}"), "ms")
                bwd_full.append(s.median(f"stack{idx}.{d}.bwd"))
                bwd_base.append(s.median(f"stack{idx}.{d}.t48.bwd"))
        per_frame = 1e6 * statistics.fmean(bwd_full) / med("t_len")
        per_frame_base = 1e6 * statistics.fmean(bwd_base) / med("t_base")
        out["recurrent.bwd_us_per_frame"] = (per_frame, "us")
        out["recurrent.bwd_us_per_frame_t48"] = (per_frame_base, "us")
        out["recurrent.bwd_t_ratio"] = (per_frame / per_frame_base, "ratio")
        out["autograd.graph_nodes"] = (med("graph_nodes"), "count")
        out["autograd.graph_mb"] = (med("graph_mb"), "MB")
        for op in COUNTED_OPS:
            out[f"autograd.nodes.{op}"] = (med(f"nodes.{op}"), "count")
        out["autograd.tape_ms"] = (ms("tape"), "ms")
        out["autograd.backward_ms"] = (ms("backward"), "ms")
        out["layers.r2h.step_fwd_ms"] = (ms("front_end"), "ms")
        out["layers.r2h.fwd_ms"] = (ms("r2h.fwd"), "ms")
        out["layers.r2h.bwd_ms"] = (ms("r2h.bwd"), "ms")
        out["layers.quat_weight_matrix_ms"] = (ms("weight_matrix"), "ms")
        out["training.output_loss.step_fwd_ms"] = (ms("output") + ms("loss"), "ms")
        out["training.output_loss.fwd_ms"] = (ms("output_loss.fwd"), "ms")
        out["training.output_loss.bwd_ms"] = (ms("output_loss.bwd"), "ms")
        out["training.adam_ms"] = (ms("adam"), "ms")
        out["trace.unattributed_ms"] = (ms("unattributed"), "ms")
        traced = statistics.median(self.traced_ms_per_frame)
        plain = statistics.median(self.plain_ms_per_frame)
        out["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
        return out


class GradcheckCounter:
    """Counts and times the loss evaluations gradient_check makes for selfcheck."""

    def __init__(self):
        self.evals = 0
        self.seconds = 0.0

    @contextmanager
    def installed(self):
        original = selfcheck_module.gradient_check

        def counted(build_loss, *args, **kwargs):
            def build():
                started = time.perf_counter()
                try:
                    return build_loss()
                finally:
                    self.evals += 1
                    self.seconds += time.perf_counter() - started
            return original(build, *args, **kwargs)

        selfcheck_module.gradient_check = counted
        try:
            yield
        finally:
            selfcheck_module.gradient_check = original
