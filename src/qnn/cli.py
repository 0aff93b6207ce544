"""Command-line interface.

Subcommands: train, eval, selfcheck, synth, params. All output goes to
stdout as self-describing key=value records; errors go to stderr. Exit
codes: 0 success, 1 check/validation failure, 2 usage error, 3 I/O or
format error. Config precedence is defaults < --config file < flags. train and
eval refuse (exit 2) a model whose parameters plus Adam state exceed memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from qnn.checkpoint import copy_into_model, load_verified
from qnn.config import (
    ACTIVATION_CHOICES,
    FRONT_ENDS,
    LR_RULES,
    PRECISIONS,
    STACK_KINDS,
    ModelConfig,
    parse_config_file,
    resolve_config,
)
from qnn.data import SynthSpec, atomic_write, generate_synthetic, read_features, total_frames, write_features
from qnn.errors import (
    ConfigError,
    ContractError,
    DataError,
    FormatError,
    TrainingAbort,
)
from qnn.recurrent import build_model, count_params, symbolic_param_counts
from qnn.selfcheck import run_selfcheck, sign_flipped_hamilton
from qnn.training import evaluate, train

_CONFIG_FLAGS = tuple(f.name for f in dataclasses.fields(ModelConfig))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--front-end", dest="front_end", choices=FRONT_ENDS)
    parser.add_argument("--r2h-size", dest="r2h_size", type=int,
                        help="real width of the encoder output")
    parser.add_argument("--r2h-activation", dest="r2h_activation", choices=ACTIVATION_CHOICES)
    parser.add_argument("--stack", dest="stack_kind", choices=STACK_KINDS)
    parser.add_argument("--depth", type=int)
    parser.add_argument("--hidden", dest="hidden_real_width", type=int)
    parser.add_argument("--dropout", type=float)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--lr", dest="lr0", type=float)
    parser.add_argument("--lr-rule", dest="lr_rule", choices=LR_RULES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--precision", choices=PRECISIONS)
    parser.add_argument("--classes", type=int)
    parser.add_argument("--input-dim", dest="input_dim", type=int)
    parser.add_argument("--batch-size", dest="batch_size", type=int)


def _resolve(args):
    """Returns (config, keys the user set explicitly via file or flags)."""
    file_values = parse_config_file(args.config) if args.config else {}
    flag_values = {name: getattr(args, name) for name in _CONFIG_FLAGS}
    provided = set(file_values) | {k for k, v in flag_values.items() if v is not None}
    return resolve_config(file_values, flag_values), provided


def _check_dataset(name: str, utterances, config: ModelConfig) -> None:
    if not utterances:
        raise DataError(f"{name} set is empty")
    dims = {u.features.shape[1] for u in utterances}
    if dims != {config.input_dim}:
        raise DataError(
            f"{name} set has feature dims {sorted(dims)}, config expects {config.input_dim}"
        )
    top = max(int(u.labels.max()) for u in utterances)
    low = min(int(u.labels.min()) for u in utterances)
    if low < 0 or top >= config.classes:
        raise DataError(
            f"{name} set has labels in [{low}, {top}], config allows [0, {config.classes})"
        )


def _check_size_budget(config: ModelConfig) -> None:
    """Refuse a model whose parameters plus Adam's two moment buffers exceed
    physical memory, before anything is allocated."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # unknown on this platform: no budget
        return
    need = 3 * (4 if config.precision == "f32" else 8) * symbolic_param_counts(config)["total"]
    if 0 < physical < need:
        raise ConfigError(f"parameters plus Adam state need {need} bytes, "
                          f"more than the {physical} bytes of physical memory")


def cmd_train(args) -> int:
    config, provided = _resolve(args)
    train_utts = read_features(args.train)
    valid_utts = read_features(args.valid)
    if not train_utts:
        raise DataError(f"{args.train}: training set is empty")
    if "input_dim" not in provided:
        config.input_dim = train_utts[0].features.shape[1]
    if "classes" not in provided:
        config.classes = 1 + max(
            int(u.labels.max()) for u in train_utts + valid_utts
        )
    config.validate()
    _check_size_budget(config)
    _check_dataset("train", train_utts, config)
    _check_dataset("valid", valid_utts, config)

    os.makedirs(args.out, exist_ok=True)
    with atomic_write(os.path.join(args.out, "config.txt"), text=True) as fh:
        fh.write(config.to_file_text())

    model = build_model(config)
    reports = train(model, train_utts, valid_utts, config, out_dir=args.out, log=print)
    summary = f"result=train epochs={len(reports)} params={count_params(model)} out={args.out}"
    if reports:
        best = min(r.val_loss for r in reports)
        summary += (
            f" final_val_loss={reports[-1].val_loss!r}"
            f" final_val_fer={reports[-1].val_frame_error!r} best_val_loss={best!r}"
        )
    print(summary)
    return 0


def cmd_eval(args) -> int:
    config_path = args.config or os.path.join(os.path.dirname(args.checkpoint) or ".", "config.txt")
    if not os.path.exists(config_path):
        raise ConfigError(f"no config file at {config_path}; pass --config")
    args.config = config_path
    config, _ = _resolve(args)
    _check_size_budget(config)
    params = load_verified(args.checkpoint, config.digest())  # refuse a mismatch before building
    model = build_model(config)
    copy_into_model(params, model)
    utterances = read_features(args.test)
    _check_dataset("test", utterances, config)
    loss, fer = evaluate(model, utterances, config.batch_size)
    print(
        f"result=eval loss={loss!r} fer={fer!r} frames={total_frames(utterances)} "
        f"digest={config.digest()} checkpoint={args.checkpoint}"
    )
    return 0


def cmd_selfcheck(args) -> int:
    hamilton_fn = sign_flipped_hamilton if args.inject_sign_flip else None
    return run_selfcheck(hamilton_fn=hamilton_fn)


def cmd_synth(args) -> int:
    spec = SynthSpec(
        classes=args.classes, dim=args.dim, seg_min=args.seg_min, seg_max=args.seg_max,
        segments_per_utt=args.segments, train_utts=args.train_utts,
        valid_utts=args.valid_utts, test_utts=args.test_utts,
        noise=args.noise, slope=args.slope, seed=args.seed,
    )
    splits = generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    for name, utterances in zip(("train", "valid", "test"), splits):
        path = os.path.join(args.out, f"{name}.qfea")
        write_features(path, utterances)
        print(
            f"result=synth split={name} path={path} utterances={len(utterances)} "
            f"frames={total_frames(utterances)} seed={spec.seed}"
        )
    return 0


def cmd_params(args) -> int:
    config, _ = _resolve(args)
    counts = symbolic_param_counts(config)
    print(
        f"result=params stack_kind={config.stack_kind} front_end={counts['front_end']} "
        f"stack={counts['stack']} output={counts['output']} total={counts['total']} "
        f"stack_weight_scalars={counts['stack_weight_scalars']}"
    )
    if config.depth > 0:
        other_kind = "lstm" if config.stack_kind == "qlstm" else "qlstm"
        matched = dataclasses.replace(config, stack_kind=other_kind)
        try:
            other = symbolic_param_counts(matched)
        except ConfigError:
            return 0  # no matched counterpart (width not divisible by 4)
        q, r = (counts, other) if config.stack_kind == "qlstm" else (other, counts)
        print(
            f"result=params_matched qlstm_total={q['total']} lstm_total={r['total']} "
            f"stack_weight_ratio={r['stack_weight_scalars'] / q['stack_weight_scalars']!r} "
            f"total_ratio={r['total'] / q['total']!r}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnn",
        description="Quaternion recurrent networks for framewise sequence labeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write checkpoints + metrics")
    _add_config_flags(p_train)
    p_train.add_argument("--train", required=True, help="training features (QFEA or CSV)")
    p_train.add_argument("--valid", required=True, help="validation features")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a test set")
    _add_config_flags(p_eval)
    p_eval.add_argument("checkpoint", help="checkpoint file (QNN1)")
    p_eval.add_argument("--test", required=True, help="test features")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("selfcheck", help="run algebra and gradient verification suites")
    p_check.add_argument("--inject-sign-flip", action="store_true", help=argparse.SUPPRESS)
    p_check.set_defaults(func=cmd_selfcheck)

    p_synth = sub.add_parser("synth", help="generate the synthetic dataset")
    p_synth.add_argument("--classes", type=int, default=SynthSpec.classes)
    p_synth.add_argument("--dim", type=int, default=SynthSpec.dim)
    p_synth.add_argument("--seg-min", dest="seg_min", type=int, default=SynthSpec.seg_min)
    p_synth.add_argument("--seg-max", dest="seg_max", type=int, default=SynthSpec.seg_max)
    p_synth.add_argument("--segments", type=int, default=SynthSpec.segments_per_utt)
    p_synth.add_argument("--train-utts", dest="train_utts", type=int, default=SynthSpec.train_utts)
    p_synth.add_argument("--valid-utts", dest="valid_utts", type=int, default=SynthSpec.valid_utts)
    p_synth.add_argument("--test-utts", dest="test_utts", type=int, default=SynthSpec.test_utts)
    p_synth.add_argument("--noise", type=float, default=SynthSpec.noise)
    p_synth.add_argument("--slope", type=float, default=SynthSpec.slope)
    p_synth.add_argument("--seed", type=int, default=SynthSpec.seed)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_params = sub.add_parser("params", help="print parameter counts for a config")
    _add_config_flags(p_params)
    p_params.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ContractError, TrainingAbort) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
