"""Command-line behavior: records, exit codes, determinism, round trips."""

import argparse
import dataclasses
import itertools
import math
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qnn import cli, errors
from qnn.autograd import Tensor
from qnn.checkpoint import load_checkpoint, save_checkpoint
from qnn.cli import main
from qnn.config import CHOICES, ModelConfig, parse_config_file, resolve_config
from qnn.data import SynthSpec, Utterance, read_features, write_features
from qnn.errors import ConfigError, DataError, FormatError
from qnn.recurrent import build_model, count_params, param_breakdown, symbolic_param_counts

SRC = Path(__file__).resolve().parents[1] / "src"


def record_lines(capsys, key):
    out = capsys.readouterr().out
    return [line for line in out.splitlines() if line.startswith(f"result={key}")]


def parse_record(line):
    fields = {}
    for chunk in line.split():
        name, _, value = chunk.partition("=")
        fields[name] = value
    return fields


def synth_args(out_dir, **overrides):
    args = ["synth", "--out", str(out_dir), "--train-utts", "12", "--valid-utts", "6",
            "--test-utts", "6", "--dim", "8", "--seed", "11"]
    for key, value in overrides.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


TRAIN_FLAGS = [
    "--front-end", "r2h-norm", "--r2h-size", "16", "--hidden", "16", "--depth", "1",
    "--epochs", "2", "--batch-size", "4", "--seed", "3", "--dropout", "0.0",
]


def test_synth_writes_readable_files(tmp_path, capsys):
    assert main(synth_args(tmp_path / "data")) == 0
    lines = record_lines(capsys, "synth")
    assert len(lines) == 3
    for line in lines:
        fields = parse_record(line)
        utts = read_features(fields["path"])
        assert len(utts) == int(fields["utterances"])
        assert sum(len(u) for u in utts) == int(fields["frames"])


def test_synth_same_seed_identical_files(tmp_path, capsys):
    main(synth_args(tmp_path / "a"))
    main(synth_args(tmp_path / "b"))
    for name in ("train", "valid", "test"):
        a = (tmp_path / "a" / f"{name}.qfea").read_bytes()
        b = (tmp_path / "b" / f"{name}.qfea").read_bytes()
        assert a == b


def test_train_then_eval_round_trip(tmp_path, capsys):
    main(synth_args(tmp_path / "data"))
    out = tmp_path / "run"
    code = main(["train", "--train", str(tmp_path / "data/train.qfea"),
                 "--valid", str(tmp_path / "data/valid.qfea"),
                 "--out", str(out), *TRAIN_FLAGS])
    assert code == 0
    summary = parse_record(record_lines(capsys, "train")[0])
    assert summary["epochs"] == "2"

    # evaluating last.qnn on the validation set reproduces the final epoch metrics
    code = main(["eval", str(out / "last.qnn"), "--test", str(tmp_path / "data/valid.qfea")])
    assert code == 0
    fields = parse_record(record_lines(capsys, "eval")[0])
    assert float(fields["loss"]) == float(summary["final_val_loss"])
    assert float(fields["fer"]) == float(summary["final_val_fer"])


def test_train_twice_metrics_byte_identical(tmp_path, capsys):
    main(synth_args(tmp_path / "data"))
    base = ["--train", str(tmp_path / "data/train.qfea"),
            "--valid", str(tmp_path / "data/valid.qfea"), *TRAIN_FLAGS]
    main(["train", "--out", str(tmp_path / "a"), *base])
    main(["train", "--out", str(tmp_path / "b"), *base])
    a = (tmp_path / "a" / "metrics.txt").read_bytes()
    b = (tmp_path / "b" / "metrics.txt").read_bytes()
    assert a == b and a


def test_train_zero_epochs_writes_initial_checkpoint(tmp_path, capsys):
    main(synth_args(tmp_path / "data"))
    out = tmp_path / "run"
    code = main(["train", "--train", str(tmp_path / "data/train.qfea"),
                 "--valid", str(tmp_path / "data/valid.qfea"), "--out", str(out),
                 "--epochs", "0", "--r2h-size", "16", "--hidden", "16", "--depth", "1"])
    assert code == 0
    assert (out / "initial.qnn").exists()
    assert (out / "config.txt").exists()


def test_train_infers_input_dim_and_classes(tmp_path, capsys):
    main(synth_args(tmp_path / "data"))
    out = tmp_path / "run"
    main(["train", "--train", str(tmp_path / "data/train.qfea"),
          "--valid", str(tmp_path / "data/valid.qfea"), "--out", str(out),
          "--epochs", "0", "--r2h-size", "16", "--hidden", "16", "--depth", "1"])
    text = (out / "config.txt").read_text()
    assert "input_dim = 8" in text
    assert "classes = 4" in text


def test_train_infers_two_classes_from_all_zero_labels(tmp_path, capsys):
    data = tmp_path / "zeros.qfea"
    rng = np.random.default_rng(5)
    write_features(str(data), [Utterance(f"u{k}", rng.standard_normal((5, 4)).astype(np.float32),
                                         np.zeros(5, dtype=np.int32)) for k in range(2)])
    out = tmp_path / "run"
    code = main(["train", "--train", str(data), "--valid", str(data), "--out", str(out), *TRAIN_FLAGS])
    assert code == 0, capsys.readouterr().err
    assert "classes = 2" in (out / "config.txt").read_text().splitlines()


def test_config_file_precedence(tmp_path, capsys):
    main(synth_args(tmp_path / "data"))
    cfg = tmp_path / "base.txt"
    cfg.write_text("epochs = 0\ndepth = 1\nhidden_real_width = 16\nr2h_size = 16\nseed = 4\n")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--seed", "9",
                 "--train", str(tmp_path / "data/train.qfea"),
                 "--valid", str(tmp_path / "data/valid.qfea"), "--out", str(out)])
    assert code == 0
    text = (out / "config.txt").read_text()
    assert "seed = 9" in text        # flag beats file
    assert "depth = 1" in text       # file beats default


def test_invalid_config_is_usage_error(tmp_path, capsys):
    code = main(["train", "--train", "x", "--valid", "y", "--out", str(tmp_path),
                 "--dropout", "1.5"])
    assert code == 2
    assert "dropout" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--lr", "nan"], ["--lr", "inf"]],
                         ids=["negative_seed", "nan_lr", "inf_lr"])
def test_hostile_config_values_exit_2_without_traceback(tmp_path, capsys, flags):
    main(synth_args(tmp_path / "data"))
    capsys.readouterr()
    out = tmp_path / "run"
    code = main(["train", "--train", str(tmp_path / "data/train.qfea"),
                 "--valid", str(tmp_path / "data/valid.qfea"), "--out", str(out),
                 *TRAIN_FLAGS, *flags])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err and flags[0].lstrip("-") in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("flags", [["--hidden", "4000000000"], ["--r2h-size", "4000000000"],
                                   ["--classes", "4000000000"],
                                   ["--front-end", "naive-quat", "--input-dim", "4000000001"]],
                         ids=["hidden", "r2h_size", "classes", "naive_quat_input_dim"])
def test_model_beyond_physical_memory_exits_2_without_allocating(tmp_path, capsys, command, flags):
    main(synth_args(tmp_path / "data"))
    (tmp_path / "config.txt").write_text(ModelConfig(input_dim=8).to_file_text())
    capsys.readouterr()
    out = tmp_path / "run"
    data = ["--train", str(tmp_path / "data/train.qfea"), "--valid", str(tmp_path / "data/valid.qfea"),
            "--out", str(out), *TRAIN_FLAGS]
    if command == "eval":
        data = [str(tmp_path / "last.qnn"), "--test", str(tmp_path / "data/test.qfea"),
                "--config", str(tmp_path / "config.txt")]
    tracemalloc.start()
    try:
        code = main([command, *data, *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err and "physical memory" in err
    assert peak < 2**26 and not out.exists()


def test_params_counts_any_naive_quat_input_width_without_allocating(capsys):
    """The front end's width comes from its closed form, never from running
    its transform on a frame of that width."""
    tracemalloc.start()
    try:
        code = main(["params", "--front-end", "naive-quat", "--input-dim", str(10**20)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 0 and peak < 2**26, captured.err
    assert captured.out.splitlines() == [
        "result=params stack_kind=qlstm front_end=0 stack=204800000000000014712832 output=2050 "
        "total=204800000000000014714882 stack_weight_scalars=204800000000000014680064",
        "result=params_matched qlstm_total=204800000000000014714882 lstm_total=819200000000000058755074 "
        "stack_weight_ratio=4.0 total_ratio=4.0"]


@pytest.mark.parametrize("command", ["params", "train", "eval"])
def test_huge_depth_is_counted_without_a_per_layer_list(tmp_path, capsys, command):
    depth = 10**12
    flags = ["--depth", str(depth), "--hidden", "4", "--r2h-size", "4"]
    main(synth_args(tmp_path / "data"))
    (tmp_path / "config.txt").write_text(ModelConfig(input_dim=8).to_file_text())
    capsys.readouterr()
    out = tmp_path / "run"
    data = {"params": [],
            "train": ["--train", str(tmp_path / "data/train.qfea"),
                      "--valid", str(tmp_path / "data/valid.qfea"), "--out", str(out), *TRAIN_FLAGS],
            "eval": [str(tmp_path / "last.qnn"), "--test", str(tmp_path / "data/test.qfea"),
                     "--config", str(tmp_path / "config.txt")]}[command]
    tracemalloc.start()
    try:
        code = main([command, *data, *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert peak < 2**26 and "Traceback" not in captured.err and not out.exists()
    if command != "params":
        assert code == 2 and "physical memory" in captured.err
        return
    assert code == 0, captured.err
    fields = parse_record(captured.out.splitlines()[0])
    # per layer: 2 directions x 4 gates x (W + R, 4x4 reals each, a quarter of
    # them weights) plus 2 x 4 biases of 4; r2h 40 -> 4, output 4 -> 2
    weights = depth * 2 * 4 * 2 * 16 // 4
    stack = weights + depth * 2 * 4 * 4
    assert fields["stack_weight_scalars"] == str(weights)
    assert fields["stack"] == str(stack)
    assert fields["total"] == str(40 * 4 + 4 + stack + 4 * 2 + 2)


def test_non_utf8_config_file_exits_2_without_traceback(tmp_path, capsys):
    config = tmp_path / "cfg.txt"
    config.write_bytes(b"depth = 1\nseed = \xff\n")
    code = main(["train", "--config", str(config), "--train", "x", "--valid", "y",
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "UTF-8" in err


def test_missing_file_is_io_error(tmp_path, capsys):
    code = main(["train", "--train", str(tmp_path / "nope.qfea"),
                 "--valid", str(tmp_path / "nope.qfea"), "--out", str(tmp_path / "run")])
    assert code == 3


def test_corrupt_checkpoint_is_format_error(tmp_path, capsys):
    main(synth_args(tmp_path / "data"))
    bad = tmp_path / "bad.qnn"
    bad.write_bytes(b"XXXX" + b"\x00" * 32)
    (tmp_path / "config.txt").write_text(ModelConfig().to_file_text())
    code = main(["eval", str(bad), "--test", str(tmp_path / "data/test.qfea"),
                 "--config", str(tmp_path / "config.txt")])
    assert code == 3
    assert "magic" in capsys.readouterr().err


def test_eval_digest_mismatch_refuses(tmp_path, capsys):
    main(synth_args(tmp_path / "data"))
    out = tmp_path / "run"
    main(["train", "--train", str(tmp_path / "data/train.qfea"),
          "--valid", str(tmp_path / "data/valid.qfea"), "--out", str(out),
          "--epochs", "0", "--r2h-size", "16", "--hidden", "16", "--depth", "1"])
    # evaluating under a different seed changes the digest
    code = main(["eval", str(out / "initial.qnn"), "--test", str(tmp_path / "data/test.qfea"),
                 "--config", str(out / "config.txt"), "--seed", "123"])
    assert code == 1
    err = capsys.readouterr().err
    assert "digest" in err


def untrained_run(tmp_path):
    """Synthetic data and a zero-epoch run under tmp_path: the run directory."""
    main(synth_args(tmp_path / "data"))
    run = tmp_path / "run"
    assert main(["train", "--train", str(tmp_path / "data/train.qfea"), "--valid",
                 str(tmp_path / "data/valid.qfea"), "--out", str(run), "--epochs", "0",
                 "--r2h-size", "16", "--hidden", "16", "--depth", "1"]) == 0
    return run


def eval_error_lines(tmp_path, capsys, ckpt):
    """qnn eval of ckpt under the run's config: the exit code and stderr lines."""
    capsys.readouterr()
    code = main(["eval", str(ckpt), "--config", str(tmp_path / "run/config.txt"),
                 "--test", str(tmp_path / "data/test.qfea")])
    return code, capsys.readouterr().err.splitlines()


def test_eval_refuses_a_non_finite_weight_with_exit_3(tmp_path, capsys):
    run = untrained_run(tmp_path)
    digest, params = load_checkpoint(str(run / "initial.qnn"))
    params["front_end.dense.weight"][0, 0] = np.inf
    bad = tmp_path / "bad.qnn"
    save_checkpoint(str(bad), [(name, Tensor(data)) for name, data in params.items()], digest)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", str(bad), "--config", str(run / "config.txt"),
                     "--test", str(tmp_path / "data/test.qfea")])
    err = capsys.readouterr().err.splitlines()
    assert code == 3 and not caught
    assert len(err) == 1 and err[0].startswith("error:") and "'front_end.dense.weight'" in err[0], err


def test_eval_refuses_a_duplicate_parameter_name_with_exit_3(tmp_path, capsys):
    run = untrained_run(tmp_path)
    digest, params = load_checkpoint(str(run / "initial.qnn"))
    named = [(name, Tensor(data)) for name, data in params.items()]
    named.append(("front_end.dense.weight", Tensor(np.zeros_like(params["front_end.dense.weight"]))))
    bad = tmp_path / "twice.qnn"
    save_checkpoint(str(bad), named, digest)
    code, err = eval_error_lines(tmp_path, capsys, bad)
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error:") and "'front_end.dense.weight'" in err[0], err


@pytest.mark.parametrize("target", ["checkpoint", "test"])
def test_eval_refuses_bytes_after_the_declared_content_with_exit_3(tmp_path, capsys, target):
    run = untrained_run(tmp_path)
    path = run / "initial.qnn" if target == "checkpoint" else tmp_path / "data/test.qfea"
    whole = path.read_bytes()
    path.write_bytes(whole + b"\x00\x01")
    code, err = eval_error_lines(tmp_path, capsys, run / "initial.qnn")
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"2 trailing bytes at byte offset {len(whole)}" in err[0], err


def with_dtype_tag(data, tag=7):
    """A checkpoint's bytes with the dtype tag of its first parameter set to tag."""
    name_at = 12 + u32_at(data, 4)
    tag_at = name_at + 4 + u32_at(data, name_at)
    return data[:tag_at] + bytes([tag]) + data[tag_at + 1:]


def with_rank_65(data):
    """A checkpoint's bytes with its first parameter stored as rank 65, every
    dim 1, and one element of data: more dimensions than numpy allows."""
    name_at = 12 + u32_at(data, 4)
    rank_at = name_at + 4 + u32_at(data, name_at) + 1
    itemsize = 4 if data[rank_at - 1] == 0 else 8
    dims = [u32_at(data, rank_at + 4 + 4 * d) for d in range(u32_at(data, rank_at))]
    data_at = rank_at + 4 + 4 * len(dims)
    return (data[:rank_at] + struct.pack("<66I", 65, *[1] * 65) + data[data_at:data_at + itemsize]
            + data[data_at + itemsize * math.prod(dims):])


EMPTY_QFEA = b"QFEA" + struct.pack("<II", 1, 0)
DIM_5_QFEA = b"QFEA" + struct.pack("<III", 1, 1, 1) + b"u" + struct.pack("<II5fi", 1, 5, *[1.0] * 5, 0)
CSV_HEAD = b"id,frame,label,f0\n"
REFUSED_INPUTS = {  # case -> (input replaced, its new path, its bytes or a map of the old ones, exit code, error)
    "empty_train": ("train", "empty.qfea", EMPTY_QFEA, 3, "empty.qfea: training set is empty"),
    "empty_valid": ("valid", "empty.qfea", EMPTY_QFEA, 3, "valid set is empty"),
    "valid_dim_5": ("valid", "dim5.qfea", DIM_5_QFEA, 3, "valid set has feature dims [5], config expects 8"),
    "csv_empty": ("train", "bad.csv", b"", 3, "bad.csv: bad magic b''"),
    "csv_no_f0": ("train", "bad.csv", b"id,frame,label\n", 3, "bad.csv: CSV header declares no feature columns"),
    "csv_field_count": ("train", "bad.csv", CSV_HEAD + b"a,0,0\n", 3, "bad.csv:2: expected 4 fields, got 3"),
    "csv_number": ("train", "bad.csv", CSV_HEAD + b"a,0,0,zz\n", 3,
                   "bad.csv:2: could not convert string to float: 'zz'"),
    "csv_duplicate_frame": ("train", "bad.csv", CSV_HEAD + b"a,0,0,1\na,0,0,2\n", 3,
                            "bad.csv:3: duplicate frame 0 for utterance 'a'"),
    "csv_float32_overflow": ("train", "bad.csv", CSV_HEAD + b"a,0,0,1e39\n", 3,
                             "utterance 'a': non-finite feature at frame 0, dim 0"),
    "checkpoint_dtype_tag": ("checkpoint", "run/bad.qnn", with_dtype_tag, 3,
                             "unknown dtype tag 7 for parameter 'front_end.dense.weight'"),
    "checkpoint_rank_65": ("checkpoint", "run/bad.qnn", with_rank_65, 3,
                           "unsupported shape: maximum supported dimension"),
    "eval_without_config": ("checkpoint", "alone/initial.qnn", lambda data: data, 2, "no config file at"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_INPUTS))
def test_refused_inputs_end_in_one_error_line(tmp_path, capsys, case):
    """qnn train or eval with one input replaced: one error: line naming the
    fault, the exit code its error type declares, and no traceback."""
    role, name, content, code, text = REFUSED_INPUTS[case]
    run = untrained_run(tmp_path)
    inputs = {"train": tmp_path / "data/train.qfea", "valid": tmp_path / "data/valid.qfea",
              "checkpoint": run / "initial.qnn", "test": tmp_path / "data/test.qfea"}
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(content(inputs[role].read_bytes()) if callable(content) else content)
    inputs[role] = path
    if role == "checkpoint":  # the config is the config.txt beside the checkpoint
        argv = ["eval", str(inputs["checkpoint"]), "--test", str(inputs["test"])]
    else:
        argv = ["train", "--train", str(inputs["train"]), "--valid", str(inputs["valid"]),
                "--out", str(tmp_path / "out"), *TRAIN_FLAGS]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and text in err, err


def test_train_refuses_a_repeated_qfea_utterance_id_with_exit_3(tmp_path, capsys):
    main(synth_args(tmp_path / "data"))
    train = tmp_path / "data/train.qfea"
    utts = read_features(str(train))
    utts[0].id = utts[1].id = "a"
    write_features(str(train), utts)
    t_len, dim = utts[0].features.shape
    second_id_at = 12 + (4 + 1 + 8 + 4 * t_len * dim + 4 * t_len) + 4
    capsys.readouterr()
    code = main(["train", "--train", str(train), "--valid", str(tmp_path / "data/valid.qfea"),
                 "--out", str(tmp_path / "run"), *TRAIN_FLAGS])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"'a' at byte offset {second_id_at}" in err[0], err


def test_train_refuses_utterances_with_no_feature_dims_with_exit_3(tmp_path, capsys):
    ident = b"empty"
    train = tmp_path / "train.qfea"
    train.write_bytes(b"QFEA" + struct.pack("<III", 1, 1, len(ident)) + ident
                      + struct.pack("<II", 2, 0) + struct.pack("<2i", 0, 1))
    code = main(["train", "--train", str(train), "--valid", str(train), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(err) == 1 and "utterance 'empty'" in err[0] and "(2, 0)" in err[0], err


@pytest.mark.parametrize("classes", [[], ["--classes", "3"]], ids=["inferred", "given"])
def test_train_refuses_negative_labels_with_exit_3_whatever_the_classes(tmp_path, capsys, classes):
    train = tmp_path / "train.qfea"
    write_features(str(train), [Utterance("neg", np.ones((3, 4), dtype=np.float32),
                                          np.full(3, -3, dtype=np.int32))])
    code = main(["train", "--train", str(train), "--valid", str(train), "--out", str(tmp_path / "run"),
                 *classes])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(err) == 1 and "train set has labels in [-3, -3]" in err[0], err


def test_eval_refuses_digest_mismatch_before_building_the_model(tmp_path, capsys, monkeypatch):
    main(synth_args(tmp_path / "data", dim=4))
    run = tmp_path / "run"
    assert main(["train", "--train", str(tmp_path / "data/train.qfea"), "--valid",
                 str(tmp_path / "data/valid.qfea"), "--out", str(run), "--front-end", "identity",
                 "--hidden", "4", "--depth", "1", "--epochs", "0"]) == 0
    text = (run / "config.txt").read_text()
    cut = tmp_path / "cut.txt"  # the fields after depth fall back to their defaults
    cut.write_text(text[:text.index("\n", text.index("depth =")) + 1])
    built = []
    monkeypatch.setattr(cli, "build_model", lambda config: built.append(config))
    capsys.readouterr()
    code = main(["eval", str(run / "initial.qnn"), "--config", str(cut),
                 "--test", str(tmp_path / "data/test.qfea")])
    err = capsys.readouterr().err
    assert code == 1 and built == []
    assert f"checkpoint digest {load_checkpoint(str(run / 'initial.qnn'))[0]} " in err
    assert f"model config digest {resolve_config(parse_config_file(str(cut))).digest()}" in err


def test_usage_error_without_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


QNN_ERRORS = sorted((kind for kind in vars(errors).values()
                     if isinstance(kind, type) and issubclass(kind, errors.QnnError)),
                    key=lambda kind: kind.__name__)
EXIT_CODES = {"QnnError": 1, "DimensionError": 1, "ConfigError": 2, "DataError": 3, "FormatError": 3,
              "ContractError": 1, "TrainingAbort": 1, "OSError": 3}


@pytest.mark.parametrize("error", QNN_ERRORS + [OSError], ids=lambda kind: kind.__name__)
def test_each_error_type_ends_a_command_in_one_line_and_its_exit_code(capsys, monkeypatch, error):
    def fail(args):
        raise error("refused")

    monkeypatch.setattr(cli, "cmd_params", fail)
    assert main(["params"]) == getattr(error, "exit_code", 3) == EXIT_CODES[error.__name__]
    assert capsys.readouterr().err == "error: refused\n"


def test_params_matched_ratio(capsys):
    code = main(["params", "--front-end", "r2h", "--r2h-size", "1024",
                 "--stack", "qlstm", "--depth", "4", "--hidden", "1024",
                 "--classes", "1000", "--input-dim", "40"])
    assert code == 0
    matched = parse_record(record_lines(capsys, "params_matched")[0])
    assert float(matched["stack_weight_ratio"]) == 4.0
    assert float(matched["qlstm_total"]) < float(matched["lstm_total"])


def test_params_depth_zero(capsys):
    code = main(["params", "--front-end", "r2h", "--r2h-size", "64", "--depth", "0",
                 "--classes", "5", "--input-dim", "40"])
    assert code == 0
    fields = parse_record(record_lines(capsys, "params")[0])
    assert fields["stack"] == "0"
    assert int(fields["total"]) == (40 * 64 + 64) + (64 * 5 + 5)


def test_params_without_a_quaternion_counterpart_prints_one_record(capsys):
    assert main(["params", "--stack", "lstm", "--hidden", "30"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("result=params stack_kind=lstm "), out


def test_params_symbolic_matches_built_model():
    grid = itertools.product(CHOICES["front_end"], CHOICES["stack_kind"], (0, 1, 3), (5, 6, 7, 8))
    for front_end, stack_kind, depth, input_dim in grid:
        cfg = ModelConfig(front_end=front_end, r2h_size=16, stack_kind=stack_kind, depth=depth,
                          hidden_real_width=16, classes=5, input_dim=input_dim, dropout=0.0)
        try:
            counts = symbolic_param_counts(cfg)
        except ConfigError:  # identity into qlstm with 5-7 features: neither may build it
            with pytest.raises(ConfigError):
                build_model(cfg)
            continue
        model = build_model(cfg)
        assert counts == param_breakdown(model), cfg
        assert counts["total"] == count_params(model), cfg


def test_selfcheck_clean_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["suite=algebra passed=30016 failed=0",
                                "suite=gradients passed=267 failed=0"]


def test_selfcheck_injected_sign_flip_fails(capsys):
    assert main(["selfcheck", "--inject-sign-flip"]) == 1
    out = capsys.readouterr().out
    assert "basis case j x k" in out


def u32_at(data, offset):
    return struct.unpack_from("<I", data, offset)[0]


def qfea_u32_offsets(data):
    """Byte offsets of every u32 field of a QFEA file."""
    offsets = [4, 8]
    pos = 12
    for _ in range(u32_at(data, 8)):
        id_len = u32_at(data, pos)
        t_len, dim = u32_at(data, pos + 4 + id_len), u32_at(data, pos + 8 + id_len)
        offsets += [pos, pos + 4 + id_len, pos + 8 + id_len]
        pos += 12 + id_len + 4 * t_len * dim + 4 * t_len
    return offsets


def checkpoint_u32_offsets(data):
    """Byte offsets of every u32 field of a QNN1 checkpoint."""
    digest_len = u32_at(data, 4)
    offsets = [4, 8 + digest_len]
    pos = 12 + digest_len
    for _ in range(u32_at(data, 8 + digest_len)):
        name_len = u32_at(data, pos)
        itemsize = 4 if data[pos + 4 + name_len] == 0 else 8
        rank_at = pos + 5 + name_len
        dim_at = [rank_at + 4 + 4 * d for d in range(u32_at(data, rank_at))]
        offsets += [pos, rank_at] + dim_at
        pos = rank_at + 4 + 4 * len(dim_at) + itemsize * math.prod(u32_at(data, a) for a in dim_at)
    assert pos == len(data)
    return offsets


def mutations(data, u32_offsets, rng, count):
    """Seeded corruptions: large values written over u32 fields, and single
    bytes XOR-ed anywhere in the file."""
    for offset in rng.choice(u32_offsets, size=count):
        value = int(rng.choice([0xFFFFFFF0, 0x7FFFFFFF, 0x80000000, int(rng.integers(2**16, 2**32))]))
        yield data[:offset] + struct.pack("<I", value) + data[offset + 4:]
    for offset in rng.integers(0, len(data), size=count):
        flipped = data[offset] ^ int(rng.integers(1, 256))
        yield data[:offset] + bytes([flipped]) + data[offset + 1:]


def test_non_utf8_csv_exits_3_without_traceback(tmp_path, capsys):
    main(synth_args(tmp_path / "data", train_utts=2, valid_utts=2, test_utts=2, segments=1,
                    seg_min=2, seg_max=3, dim=4))
    run = tmp_path / "run"
    assert main(["train", "--train", str(tmp_path / "data/train.qfea"),
                 "--valid", str(tmp_path / "data/valid.qfea"), "--out", str(run),
                 "--front-end", "identity", "--hidden", "4", "--depth", "1", "--classes", "4",
                 "--epochs", "0"]) == 0
    csv_path = tmp_path / "test.csv"
    csv_path.write_bytes(b"id,frame,label,f0,f1,f2,f3\n\xff\xfe,0,0,1,2,3,4\n")
    capsys.readouterr()
    assert main(["eval", str(run / "initial.qnn"), "--test", str(csv_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "UTF-8" in err


def test_corrupt_binary_inputs_exit_3_without_traceback(tmp_path, capsys):
    main(synth_args(tmp_path / "data", train_utts=2, valid_utts=2, test_utts=2, segments=1,
                    seg_min=2, seg_max=3, dim=4))
    run = tmp_path / "run"
    assert main(["train", "--train", str(tmp_path / "data/train.qfea"),
                 "--valid", str(tmp_path / "data/valid.qfea"), "--out", str(run),
                 "--front-end", "identity", "--hidden", "4", "--depth", "1", "--classes", "4",
                 "--epochs", "0"]) == 0
    test_path = tmp_path / "data/test.qfea"
    ckpt_path = run / "initial.qnn"
    assert main(["eval", str(ckpt_path), "--test", str(test_path)]) == 0
    capsys.readouterr()
    qfea, ckpt = test_path.read_bytes(), ckpt_path.read_bytes()
    rng = np.random.default_rng(2024)
    cases = [(test_path, read_features, m) for m in mutations(qfea, qfea_u32_offsets(qfea), rng, 30)]
    cases += [(ckpt_path, load_checkpoint, m)
              for m in mutations(ckpt, checkpoint_u32_offsets(ckpt), rng, 30)]
    refused = 0
    for path, reader, mutated in cases:
        path.write_bytes(mutated)
        try:
            reader(str(path))
            loads = True
        except (FormatError, DataError):
            loads = False
        code = main(["eval", str(ckpt_path), "--test", str(test_path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if loads:
            # a file that parses may still not fit the config: a checkpoint
            # for another digest or parameter set is a refused check (1)
            assert code in (0, 1, 3), err
        else:
            refused += 1
            assert code == 3, err
        path.write_bytes(qfea if path == test_path else ckpt)
    assert refused > len(cases) // 4


FUZZ_VALUES = {
    int: [-2**63, -1, 0, 1, 3, 2**62, 10**30],
    float: [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.999999, 1.0, 1e308],
    str: ["", "x\x00", "é", "lstm", "f64", "identity", "literal"],
}


def fuzz_base():
    return ModelConfig(front_end="identity", stack_kind="qlstm", depth=1, hidden_real_width=4,
                       classes=4, dropout=0.0, epochs=1, input_dim=4, batch_size=2, seed=3)


def mutate_text(data, rng):
    """One seeded corruption of a config file: a byte XOR-ed, inserted or
    deleted, a slice repeated, or the tail cut off."""
    at = int(rng.integers(0, len(data)))
    byte = bytes([int(rng.integers(1, 256))])
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return data[:at] + bytes([data[at] ^ byte[0]]) + data[at + 1:]
    if kind == 1:
        return data[:at] + byte + data[at:]
    if kind == 2:
        return data[:at] + data[at + 1:]
    if kind == 3:
        return data[:at] + data[at:at + int(rng.integers(1, 12))] + data[at:]
    return data[:at]


def one_error_line(err):
    return err == "" or (err.startswith("error: ") and err.count("\n") == 1)


def test_hostile_config_values_exit_0_to_3_without_traceback(tmp_path, capsys, monkeypatch):
    """Extreme values of every ModelConfig field, and seeded byte mutations
    of a config file, through params, train and eval. Sizes are either tiny
    or far beyond the memory budget, and a cut-off file falls back to the
    defaults, so no model built here is larger than the default one; a huge
    epoch count is a valid, long run, so it goes through params and eval
    only."""
    main(synth_args(tmp_path / "data", train_utts=2, valid_utts=2, test_utts=2, segments=1,
                    seg_min=2, seg_max=3, dim=4))
    data = {split: str(tmp_path / f"data/{split}.qfea") for split in ("train", "valid", "test")}
    config_path, run = tmp_path / "fuzz.txt", tmp_path / "run"
    config_path.write_text(fuzz_base().to_file_text())
    assert main(["train", "--config", str(config_path), "--train", data["train"],
                 "--valid", data["valid"], "--out", str(run)]) == 0
    ckpt = str(run / "last.qnn")

    default_size = symbolic_param_counts(ModelConfig())["total"]

    def small_build(config):  # no hostile value is tested by allocating it
        assert symbolic_param_counts(config)["total"] <= default_size, config
        return build_model(config)

    monkeypatch.setattr(cli, "build_model", small_build)

    def run_all(train_too):
        commands = [["params", "--config", str(config_path)],
                    ["eval", ckpt, "--config", str(config_path), "--test", data["test"]]]
        if train_too:
            commands.append(["train", "--config", str(config_path), "--train", data["train"],
                             "--valid", data["valid"], "--out", str(tmp_path / "fuzz_run")])
        for command in commands:
            code = main(command)
            err = capsys.readouterr().err
            # lr0 = 1e308 overflows the weights: the abort record is all that is printed
            assert code in (0, 1, 2, 3) and one_error_line(err), (config_path.read_bytes(), command, err)

    for field in dataclasses.fields(ModelConfig):
        kind = type(getattr(fuzz_base(), field.name))
        for value in FUZZ_VALUES[kind]:
            config = fuzz_base()
            setattr(config, field.name, value)
            config_path.write_text(config.to_file_text(), encoding="utf-8")
            run_all(train_too=not (field.name == "epochs" and value > 3))
    rng = np.random.default_rng(2025)
    base = fuzz_base().to_file_text().encode()
    for _ in range(40):
        config_path.write_bytes(mutate_text(base, rng))
        try:
            epochs = resolve_config(parse_config_file(str(config_path))).epochs
        except ConfigError:
            epochs = 0  # refused before anything is built
        run_all(train_too=epochs <= 3)


def fuzz_spec():
    return SynthSpec(classes=3, dim=4, seg_min=2, seg_max=3, segments_per_utt=1,
                     train_utts=2, valid_utts=2, test_utts=2, seed=3)


def command_parsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


CONFIG_FLAGS = {
    "--front-end": "front_end", "--r2h-size": "r2h_size", "--r2h-activation": "r2h_activation",
    "--stack": "stack_kind", "--depth": "depth", "--hidden": "hidden_real_width", "--classes": "classes",
    "--dropout": "dropout", "--epochs": "epochs", "--lr": "lr0", "--lr-rule": "lr_rule", "--seed": "seed",
    "--precision": "precision", "--input-dim": "input_dim", "--batch-size": "batch_size",
}
SYNTH_FLAGS = {
    "--classes": "classes", "--dim": "dim", "--seg-min": "seg_min", "--seg-max": "seg_max",
    "--segments": "segments_per_utt", "--train-utts": "train_utts", "--valid-utts": "valid_utts",
    "--test-utts": "test_utts", "--noise": "noise", "--slope": "slope", "--seed": "seed",
}


def test_hostile_synth_values_end_in_one_error_line_without_allocating(tmp_path, capsys):
    """Extreme values of every SynthSpec field through qnn synth, each run
    with all eleven flags given. A run writes its files or ends in one
    error: line (exit 2 or 3) with no traceback or warning, and none
    allocates more than a tiny spec needs: sizes beyond physical memory are
    refused before anything is drawn."""
    flags = {name: flag for flag, name in SYNTH_FLAGS.items()}
    fields = [f.name for f in dataclasses.fields(SynthSpec)]
    for name in fields:
        for value in FUZZ_VALUES[type(getattr(fuzz_spec(), name))]:
            spec = dataclasses.replace(fuzz_spec(), **{name: value})
            argv = ["synth", "--out", str(tmp_path / "data"),
                    *(f"{flags[field]}={getattr(spec, field)}" for field in fields)]
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            err = capsys.readouterr().err
            assert code in (0, 2, 3) and one_error_line(err), (name, value, err)
            assert peak < 2**26, (name, value, peak)


CHOICE_VALUES = {"front_end": "identity", "r2h_activation": "relu", "stack_kind": "lstm",
                 "lr_rule": "literal", "precision": "f64"}
COMMANDS = {  # command -> (required arguments, field flags, other options)
    "train": (["--train", "t", "--valid", "v", "--out", "o"], CONFIG_FLAGS,
              {"--config", "--train", "--valid", "--out"}),
    "eval": (["ckpt", "--test", "t"], CONFIG_FLAGS, {"--config", "--test"}),
    "params": ([], CONFIG_FLAGS, {"--config"}),
    "synth": (["--out", "o"], SYNTH_FLAGS, {"--out"}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_accepts_its_options_and_each_flag_sets_its_field(command):
    required, field_flags, others = COMMANDS[command]
    parser = command_parsers()[command]
    assert set(parser._option_string_actions) == {"-h", "--help", *others, *field_flags}
    unset = vars(parser.parse_args(required))
    for flag, name in field_flags.items():
        record = SynthSpec if command == "synth" else ModelConfig
        kind = type(getattr(record(), name))
        value = CHOICE_VALUES.get(name, kind(8.5 if kind is float else 9))
        parsed = vars(parser.parse_args([*required, flag, str(value)]))
        assert {key for key in parsed if parsed[key] != unset[key]} == {name}, flag
        assert type(parsed[name]) is kind and parsed[name] == value, flag


def test_sigint_during_train_ends_in_one_error_line_and_exit_130(tmp_path):
    assert main(synth_args(tmp_path / "data")) == 0
    out = tmp_path / "run"
    args = ["train", "--train", str(tmp_path / "data" / "train.qfea"), "--valid",
            str(tmp_path / "data" / "valid.qfea"), "--out", str(out), *TRAIN_FLAGS, "--epochs", "1000"]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    # a process started in the background ignores SIGINT, and its children inherit that
    proc = subprocess.Popen([sys.executable, "-m", "qnn.cli", *args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        assert proc.stdout.readline().startswith("epoch=1 ")
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert err == "error: interrupted\n"
    lines = (out / "metrics.txt").read_text().splitlines(keepends=True)
    assert lines and all(line.startswith("epoch=") and line.endswith("\n") for line in lines)
    assert [line.split()[0] for line in lines] == [f"epoch={k}" for k in range(1, len(lines) + 1)]
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_ends_a_command_with_exit_141_and_nothing_on_stderr(unbuffered):
    # unbuffered, the first print fails; buffered, the flush at the end does
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the command writes, as `| head -0` may leave it
    try:
        proc = subprocess.run([sys.executable, "-m", "qnn.cli", "params"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")
