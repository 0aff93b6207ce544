"""The benchmark's named workloads.

Each workload fixes a model configuration and a synthetic-data shape; the
seed given on the command line fills in ModelConfig.seed and SynthSpec.seed,
so the same seed always yields the same utterances and the same initial
weights. Split sizes are small on purpose: one training epoch is what the
output gate replays through train(), so it has to fit in a run.
"""

from __future__ import annotations

from dataclasses import dataclass

# Criterion-6 shape: r2h-norm 256 -> 2x128 bidirectional QLSTM, f32.
_QUAT_MODEL = dict(
    front_end="r2h-norm", r2h_size=256, r2h_activation="tanh", stack_kind="qlstm",
    depth=2, hidden_real_width=128, classes=4, dropout=0.2, input_dim=40,
    batch_size=8, precision="f32",
)


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict            # ModelConfig fields other than seed and epochs
    synth: dict            # SynthSpec fields other than seed
    eval_share: float      # share of the window spent on evaluate() batches


# evaluate() gets half the window where steps are short: with a quarter, its
# frames/s spread up to 0.25 across ten seeds, with a half 0.06-0.10 across
# five. train_long keeps more for training, as its 3 s steps are few.
# Two workloads only: within the total time of a benchmark sweep, a third one
# (such as a real-LSTM control) leaves room for 30 s runs, and on a 2-vCPU
# host those spread about twice as much across seeds as 60 s runs.
WORKLOADS = {
    w.name: w
    for w in (
        # BLAS matmuls and per-op dispatch share the step; BPTT term is small.
        Workload("train_short", _QUAT_MODEL,
                 dict(train_utts=48, valid_utts=64, test_utts=1),
                 eval_share=0.5),
        # T about 384: the (T, B, 4H) gradient that narrow() allocates every
        # frame makes recurrent backward dominate; fused BPTT shows here.
        Workload("train_long", _QUAT_MODEL,
                 dict(segments_per_utt=32, train_utts=16, valid_utts=32, test_utts=1),
                 eval_share=0.35),
    )
}
