"""Acceptance suite: eight verifiable claims about the library, each
printing one PASS/FAIL line with its measured quantities.

The end-to-end criteria use the synthetic delta-coded task: a four-class
framewise labeling problem whose last two classes share identical
single-frame statistics and differ only in temporal slope, so solving them
requires sequence context.
"""

import math
import time

import numpy as np

from qnn import autograd
from qnn.autograd import Tensor
from qnn.checkpoint import load_checkpoint, save_checkpoint
from qnn.cli import main
from qnn.config import ModelConfig
from qnn.data import SynthSpec, generate_synthetic, read_features, write_features
from qnn.layers import ACTIVATIONS, RealLinear, RealToQuatEncoder, chi4_init
from qnn.recurrent import build_model, count_params, symbolic_param_counts
from qnn.selfcheck import algebra_suite, gradient_suite
from qnn.training import Adam, LRSchedule, cross_entropy_framewise, train


def report(index, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {index}] {name}: {state}{suffix}")


def test_criterion_1_algebra_oracle():
    ok = False
    try:
        started = time.monotonic()
        suite = algebra_suite(pairs=10_000, seed=2024)
        elapsed = time.monotonic() - started
        assert suite.failed == 0, suite.first_failure
        assert suite.passed == 16 + 3 * 10_000
        assert elapsed < 5.0, f"algebra suite took {elapsed:.1f}s"
        ok = True
    finally:
        report(1, "algebra oracle (10^4 pairs vs matrix, basis table, norms)", ok)


def test_criterion_2_unit_quaternion_contract():
    ok = False
    try:
        started = time.monotonic()
        rng = np.random.default_rng(7)
        quats = 16
        for activation in ("tanh", "hardtanh", "relu"):
            enc = RealToQuatEncoder(12, 4 * quats, activation, normalized=True,
                                    rng=rng, dtype=np.float64)
            x = Tensor(rng.standard_normal((1000, 12)))
            pre = ACTIVATIONS[activation](enc.dense(x)).data
            pre_norms = np.sqrt((pre.reshape(-1, 4, quats) ** 2).sum(axis=1))
            out = enc.forward(x).data
            out_norms = np.sqrt((out.reshape(-1, 4, quats) ** 2).sum(axis=1))
            live = pre_norms > 1e-6
            assert live.any()
            worst = np.max(np.abs(out_norms[live] - 1.0))
            assert worst < 1e-6, f"{activation}: |norm-1| up to {worst:.2e}"
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        ok = True
    finally:
        report(2, "unit-quaternion output contract, all activations", ok)


def test_criterion_3_gradient_suite():
    ok = False
    try:
        started = time.monotonic()
        suite = gradient_suite(seed=11)
        elapsed = time.monotonic() - started
        assert suite.failed == 0, suite.first_failure
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
        ok = True
    finally:
        report(3, "finite-difference suite incl. full toy model", ok)


def test_criterion_4_parameter_accounting(capsys):
    ok = False
    try:
        # matched stacks at equal real widths: exact factor 4
        base = dict(front_end="r2h", r2h_size=1024, depth=4, hidden_real_width=1024,
                    classes=1000, input_dim=40)
        quat_cfg = ModelConfig(stack_kind="qlstm", **base)
        real_cfg = ModelConfig(stack_kind="lstm", **base)
        quat_counts = symbolic_param_counts(quat_cfg)
        real_counts = symbolic_param_counts(real_cfg)
        assert real_counts["stack_weight_scalars"] == 4 * quat_counts["stack_weight_scalars"]

        # full models: real-input LSTM vs R2H QLSTM land near a 3x total gap
        lstm_cfg = ModelConfig(front_end="identity", stack_kind="lstm", depth=4,
                               hidden_real_width=1024, classes=1000, input_dim=40)
        total_ratio = symbolic_param_counts(lstm_cfg)["total"] / quat_counts["total"]
        assert 2.5 <= total_ratio <= 4.0, f"total ratio {total_ratio:.2f}"

        # the params command reports the same numbers
        assert main(["params", "--front-end", "r2h", "--r2h-size", "1024",
                     "--stack", "qlstm", "--depth", "4", "--hidden", "1024",
                     "--classes", "1000", "--input-dim", "40"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("result=params "))
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        assert int(fields["total"]) == quat_counts["total"]
        assert int(fields["stack"]) == quat_counts["stack"]
        matched = next(l for l in out.splitlines() if l.startswith("result=params_matched"))
        assert "stack_weight_ratio=4.0" in matched

        # symbolic counts agree with an actually-built model
        small = ModelConfig(front_end="r2h", r2h_size=32, stack_kind="qlstm", depth=2,
                            hidden_real_width=16, classes=5, input_dim=10, dropout=0.0)
        assert symbolic_param_counts(small)["total"] == count_params(build_model(small))
        ok = True
    finally:
        report(4, "parameter accounting: stack ratio 4.00, totals", ok)


def test_criterion_5_initialization_statistics():
    ok = False
    ratio = float("nan")
    try:
        rng = np.random.default_rng(123)
        fan_in, fan_out = 400, 250  # 100,000 weight quaternions
        comps = chi4_init(fan_in, fan_out, rng, dtype=np.float64)
        sigma_sq = 1.0 / (2.0 * (fan_in + fan_out))
        phi_sq = sum(c.astype(np.float64) ** 2 for c in comps)
        ratio = float(phi_sq.mean() / sigma_sq)
        assert abs(ratio - 4.0) < 0.2, f"mean phi^2/sigma^2 = {ratio:.3f}"
        n = fan_in * fan_out
        for c in comps:
            se = c.std() / math.sqrt(n)
            assert abs(c.mean()) < 3.0 * se

        model = build_model(ModelConfig(front_end="r2h-norm", r2h_size=16,
                                        stack_kind="qlstm", depth=2,
                                        hidden_real_width=16, classes=4, input_dim=8))
        biases = [p for name, p in model.named_parameters()
                  if name.endswith("bias") or ".b_" in name]
        assert biases and all(np.all(p.data == 0.0) for p in biases)
        ok = True
    finally:
        report(5, "chi-4 init statistics, zero biases", ok,
               detail=f"phi^2/sigma^2 mean {ratio:.3f}" if ok else "")


CRIT6_SEED = 0  # recorded seed for the end-to-end learning run


def _delta_pair_frames(utterances, lo, hi):
    frames = np.concatenate([u.features for u in utterances]).astype(np.float64)
    labels = np.concatenate([u.labels for u in utterances])
    keep = (labels == lo) | (labels == hi)
    return frames[keep], (labels[keep] == hi).astype(np.int32)


def _memoryless_logistic_accuracy(spec, train_utts, valid_utts):
    """Single-frame binary logistic regression on the delta-coded pair: the
    library's dense layer on one frame at a time, trained with the library's
    own optimizer, from small weights; returns validation accuracy %."""
    lo, hi = spec.delta_classes
    x_train, y_train = _delta_pair_frames(train_utts, lo, hi)
    x_valid, y_valid = _delta_pair_frames(valid_utts, lo, hi)
    rng = np.random.default_rng(CRIT6_SEED)
    dense = RealLinear(spec.dim, 2, np.random.default_rng(CRIT6_SEED), dtype=np.float64)
    dense.weight.data[...] = 0.01 * rng.standard_normal((spec.dim, 2))
    optimizer = Adam(dense.named_parameters(), lr=0.05)
    inputs = Tensor(x_train[:, None, :])  # (frames, 1, dim): each frame its own sequence
    labels = y_train[:, None]
    mask = np.ones((x_train.shape[0], 1), dtype=bool)
    for _ in range(300):
        optimizer.zero_grad()
        autograd.backward(cross_entropy_framewise(dense(inputs), labels, mask))
        optimizer.step()
    predictions = (x_valid @ dense.weight.data + dense.bias.data).argmax(axis=1)
    return 100.0 * float((predictions == y_valid).mean())


def test_criterion_6_end_to_end_learning():
    ok = False
    accuracy = baseline = float("nan")
    try:
        started = time.monotonic()
        spec = SynthSpec(seed=CRIT6_SEED)  # C=4, D=40, 200 training utterances
        train_utts, valid_utts, _ = generate_synthetic(spec)
        assert len(train_utts) == 200

        config = ModelConfig(
            front_end="r2h-norm", r2h_size=256, r2h_activation="tanh",
            stack_kind="qlstm", depth=2, hidden_real_width=128, classes=4,
            dropout=0.2, epochs=6, input_dim=40, batch_size=8, seed=CRIT6_SEED,
        )
        reports = train(build_model(config), train_utts, valid_utts, config)
        accuracy = 100.0 - min(r.val_frame_error for r in reports)
        assert accuracy > 90.0, f"best validation accuracy {accuracy:.2f}%"

        baseline = _memoryless_logistic_accuracy(spec, train_utts, valid_utts)
        assert baseline <= 55.0, f"memoryless baseline at {baseline:.2f}%"

        elapsed = time.monotonic() - started
        assert elapsed < 600.0, f"took {elapsed:.0f}s"
        ok = True
    finally:
        report(6, "end-to-end learning on delta-coded task", ok,
               detail=f"model {accuracy:.2f}%, memoryless pair baseline {baseline:.2f}%")


def test_criterion_7_front_end_trend():
    ok = False
    means = {}
    try:
        spec = SynthSpec(train_utts=100, valid_utts=40, test_utts=1,
                         segments_per_utt=5, seed=1)
        train_utts, valid_utts, _ = generate_synthetic(spec)
        finals = {}
        for front_end in ("r2h-norm", "r2h", "naive-quat"):
            finals[front_end] = []
            for seed in (0, 1, 2):
                config = ModelConfig(
                    front_end=front_end, r2h_size=64, stack_kind="qlstm", depth=1,
                    hidden_real_width=64, classes=4, dropout=0.0, epochs=5,
                    input_dim=40, batch_size=8, seed=seed,
                )
                reports = train(build_model(config), train_utts, valid_utts, config)
                finals[front_end].append(reports[-1].val_loss)
        means = {k: float(np.mean(v)) for k, v in finals.items()}
        for seed_index in range(3):
            row = [finals[f][seed_index] for f in ("r2h-norm", "r2h", "naive-quat")]
            if not row[0] <= row[1] <= row[2]:
                # single-seed inversions are logged, not failures
                print(f"[ACCEPTANCE 7] note: seed {seed_index} ordering violated: {row}")
        assert means["r2h-norm"] <= means["r2h"] <= means["naive-quat"], means
        ok = True
    finally:
        detail = ", ".join(f"{k} {v:.4f}" for k, v in means.items())
        report(7, "front-end trend (mean final val loss, 3 seeds)", ok, detail=detail)


def test_criterion_8_determinism_and_round_trips(tmp_path):
    ok = False
    lrs = []
    try:
        # byte-identical metrics across repeated seeded runs
        spec = SynthSpec(train_utts=12, valid_utts=6, test_utts=2, dim=8, seed=4)
        train_utts, valid_utts, _ = generate_synthetic(spec)
        config = ModelConfig(front_end="r2h-norm", r2h_size=16, stack_kind="qlstm",
                             depth=1, hidden_real_width=16, classes=4, dropout=0.2,
                             epochs=3, input_dim=8, batch_size=4, seed=4)
        for run in ("a", "b"):
            train(build_model(config), train_utts, valid_utts, config,
                  out_dir=str(tmp_path / run))
        metrics_a = (tmp_path / "a" / "metrics.txt").read_bytes()
        metrics_b = (tmp_path / "b" / "metrics.txt").read_bytes()
        assert metrics_a == metrics_b and metrics_a

        # QFEA round trip is bit-exact
        path = tmp_path / "feats.qfea"
        write_features(str(path), train_utts)
        back = read_features(str(path))
        assert all(
            a.id == b.id and a.features.tobytes() == b.features.tobytes()
            and a.labels.tobytes() == b.labels.tobytes()
            for a, b in zip(train_utts, back)
        )

        # checkpoint round trip is bit-exact
        model = build_model(config)
        ckpt = str(tmp_path / "model.qnn")
        save_checkpoint(ckpt, model.named_parameters(), config.digest())
        digest, params = load_checkpoint(ckpt)
        assert digest == config.digest()
        assert all(params[n].tobytes() == p.data.tobytes()
                   for n, p in model.named_parameters())

        # learning rate only ever takes values lr0 * 2^-k, non-increasing
        grid_cfg = ModelConfig(front_end="r2h-norm", r2h_size=16, stack_kind="qlstm",
                               depth=1, hidden_real_width=16, classes=4, dropout=0.0,
                               epochs=8, input_dim=8, batch_size=4, seed=4)
        reports = train(build_model(grid_cfg), train_utts, valid_utts, grid_cfg)
        lrs = [r.lr for r in reports]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        for lr in lrs:
            k = round(math.log2(grid_cfg.lr0 / lr))
            assert k >= 0 and math.isclose(lr, grid_cfg.lr0 * 0.5 ** k, rel_tol=1e-12)

        # a stalled run walks down the halving grid one step per epoch
        schedule = LRSchedule(rule="stall")
        stalled = []
        lr = grid_cfg.lr0
        for _ in range(5):
            lr = schedule.update(1.0, lr)
            stalled.append(lr)
        assert stalled == [grid_cfg.lr0 * 0.5 ** k for k in range(5)]
        ok = True
    finally:
        report(8, "determinism, QFEA/checkpoint round trips, lr grid", ok,
               detail=f"lr values {sorted(set(lrs), reverse=True)}" if ok else "")
