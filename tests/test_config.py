"""Config record: validation, digest stability, file format, precedence."""

import dataclasses

import pytest

from qnn.config import ModelConfig, parse_config_file, resolve_config
from qnn.errors import ConfigError


def test_defaults_are_valid():
    ModelConfig().validate()


def test_digest_stable_and_sensitive():
    a = ModelConfig()
    b = ModelConfig()
    assert a.digest() == b.digest()
    assert len(a.digest()) == 64
    c = dataclasses.replace(a, seed=1)
    assert c.digest() != a.digest()


def test_validation_rejects_bad_values():
    cases = [
        dict(front_end="wavelet"),
        dict(r2h_activation="softsign"),
        dict(stack_kind="gru"),
        dict(lr_rule="cosine"),
        dict(precision="f16"),
        dict(dropout=1.0),
        dict(dropout=-0.1),
        dict(lr0=0.0),
        dict(classes=1),
        dict(depth=-1),
        dict(r2h_size=30),                      # not divisible by 4 with r2h front
        dict(front_end="identity", stack_kind="qlstm", hidden_real_width=30),
    ]
    for overrides in cases:
        with pytest.raises(ConfigError):
            ModelConfig(**{**{}, **overrides}).validate()


@pytest.mark.parametrize("overrides", [dict(lr0=float("nan")), dict(lr0=float("inf")),
                                       dict(lr0=float("-inf")), dict(seed=-1)],
                         ids=["nan_lr", "inf_lr", "minus_inf_lr", "negative_seed"])
def test_validation_rejects_non_finite_lr_and_negative_seed(overrides):
    with pytest.raises(ConfigError, match=next(iter(overrides))):
        ModelConfig(**overrides).validate()


def test_divisibility_not_required_for_real_path():
    cfg = ModelConfig(front_end="identity", stack_kind="lstm", r2h_size=30,
                      hidden_real_width=30, input_dim=7)
    cfg.validate()


def test_config_file_round_trip(tmp_path):
    cfg = ModelConfig(front_end="r2h", r2h_size=256, depth=2, dropout=0.1,
                      lr0=5e-4, seed=42, classes=7)
    path = tmp_path / "config.txt"
    path.write_text(cfg.to_file_text())
    values = parse_config_file(str(path))
    assert resolve_config(values) == cfg


def test_config_file_comments_and_blank_lines(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("# experiment\n\nseed = 9   # trailing comment\ndepth = 1\n")
    values = parse_config_file(str(path))
    assert values == {"seed": 9, "depth": 1}


def test_config_file_errors(tmp_path):
    bad_key = tmp_path / "a.txt"
    bad_key.write_text("widht = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_file(str(bad_key))

    bad_value = tmp_path / "b.txt"
    bad_value.write_text("depth = four\n")
    with pytest.raises(ConfigError, match="depth"):
        parse_config_file(str(bad_value))

    bad_line = tmp_path / "c.txt"
    bad_line.write_text("depth: 4\n")
    with pytest.raises(ConfigError, match="c.txt:1"):
        parse_config_file(str(bad_line))


def test_config_file_repeated_key_is_refused(tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("depth = 2\nseed = 1\n\ndepth = 4\n")
    with pytest.raises(ConfigError, match=r"twice.txt:4: config key 'depth' already set on line 1"):
        parse_config_file(str(path))
    path.write_text("seed = 1\nseed = 1\n")  # refused even when both lines agree
    with pytest.raises(ConfigError, match=r"twice.txt:2: config key 'seed' already set on line 1"):
        parse_config_file(str(path))


def test_config_file_not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"depth = 1\n# caf\xe9\n")
    with pytest.raises(ConfigError, match="latin1.txt: config file is not UTF-8"):
        parse_config_file(str(path))


def test_precedence_defaults_file_flags():
    file_values = {"depth": 2, "seed": 5}
    flags = {"seed": 9, "dropout": 0.0, "epochs": None}
    cfg = resolve_config(file_values, flags)
    assert cfg.depth == 2          # file beats default
    assert cfg.seed == 9           # flag beats file
    assert cfg.dropout == 0.0      # flag beats default
    assert cfg.epochs == 30        # None flag means unset
