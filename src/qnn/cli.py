"""Command-line interface.

Subcommands: train, eval, selfcheck, synth, params. All output goes to
stdout as self-describing key=value records; an error goes to stderr as
one error: line, and the exit code (0 on success) is the one qnn.errors
declares for its type. Config precedence is defaults < --config file <
flags. train and eval refuse (exit 2) a model whose parameters plus Adam
state exceed memory. Every field of ModelConfig (train, eval, params) and
SynthSpec (synth) is a flag, named as the field with dashes or as in
_FLAG_NAMES, typed by the field's default and limited to config.CHOICES.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from qnn.checkpoint import copy_into_model, load_verified
from qnn.config import CHOICES, ModelConfig, check_memory, field_types, parse_config_file, resolve_config
from qnn.data import SynthSpec, atomic_write, generate_synthetic, read_features, total_frames, write_features
from qnn.errors import ConfigError, DataError, QnnError
from qnn.recurrent import build_model, count_params, symbolic_param_counts
from qnn.selfcheck import run_selfcheck, sign_flipped_hamilton
from qnn.training import evaluate, train

_FLAG_NAMES = {"stack_kind": "--stack", "hidden_real_width": "--hidden", "lr0": "--lr",
               "segments_per_utt": "--segments"}


def _add_field_flags(parser: argparse.ArgumentParser, record) -> None:
    """One flag per field of the dataclass `record`, unset (None) by default."""
    for name, kind in field_types(record).items():
        flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        parser.add_argument(flag, dest=name, type=kind, choices=CHOICES.get(name))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    _add_field_flags(parser, ModelConfig)


def _flag_values(args, record) -> dict:
    """The fields of `record` whose flags were given."""
    return {name: getattr(args, name) for name in field_types(record) if getattr(args, name) is not None}


def _resolve(args):
    """Returns (config, keys the user set explicitly via file or flags)."""
    file_values = parse_config_file(args.config) if args.config else {}
    flag_values = _flag_values(args, ModelConfig)
    return resolve_config(file_values, flag_values), set(file_values) | set(flag_values)


def _label_range(name: str, utterances) -> tuple[int, int]:
    """The lowest and highest label of a non-empty set; a negative label is refused."""
    low = min(int(u.labels.min()) for u in utterances)
    top = max(int(u.labels.max()) for u in utterances)
    if low < 0:
        raise DataError(f"{name} set has labels in [{low}, {top}], labels must be >= 0")
    return low, top


def _check_dataset(name: str, utterances, config: ModelConfig) -> None:
    if not utterances:
        raise DataError(f"{name} set is empty")
    dims = {u.features.shape[1] for u in utterances}
    if dims != {config.input_dim}:
        raise DataError(
            f"{name} set has feature dims {sorted(dims)}, config expects {config.input_dim}"
        )
    low, top = _label_range(name, utterances)
    if top >= config.classes:
        raise DataError(
            f"{name} set has labels in [{low}, {top}], config allows [0, {config.classes})"
        )


def _check_size_budget(config: ModelConfig) -> None:
    """Parameters plus Adam's two moment buffers must fit in physical memory."""
    check_memory(3 * config.dtype.itemsize * symbolic_param_counts(config)["total"],
                 "parameters plus Adam state")


def cmd_train(args) -> int:
    config, provided = _resolve(args)
    train_utts = read_features(args.train)
    valid_utts = read_features(args.valid)
    if not train_utts:
        raise DataError(f"{args.train}: training set is empty")
    top = max(_label_range(name, utts)[1]
              for name, utts in (("train", train_utts), ("valid", valid_utts)) if utts)
    if "input_dim" not in provided:
        config.input_dim = train_utts[0].features.shape[1]
    if "classes" not in provided:  # a model tells at least two classes apart
        config.classes = max(2, 1 + top)
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
    spec = SynthSpec(**_flag_values(args, SynthSpec))
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
        try:
            q, r = (symbolic_param_counts(dataclasses.replace(config, stack_kind=kind))
                    for kind in ("qlstm", "lstm"))
        except ConfigError:
            return 0  # no matched counterpart (width not divisible by 4)
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
    _add_field_flags(p_synth, SynthSpec)
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
    except (QnnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)


if __name__ == "__main__":
    sys.exit(main())
