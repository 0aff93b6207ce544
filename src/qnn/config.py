"""Experiment configuration: a single flat record describing the model and
training run, plus the key=value file format and the precedence rules
(defaults < config file < command-line flags).

Each field is the one declaration of its setting: its name is the file key,
the type of its default types file values and flags alike (field_types), and
CHOICES lists the values a string field allows. The CLI builds its flags from
the same fields.

The config digest — a stable hash of the canonical serialization — is
embedded in checkpoints and metrics records so artifacts can be matched to
the exact configuration that produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from qnn.errors import ConfigError

CHOICES = {
    "front_end": ("r2h-norm", "r2h", "naive-quat", "identity"),
    "r2h_activation": ("tanh", "hardtanh", "relu"),
    "stack_kind": ("qlstm", "lstm"),
    "lr_rule": ("stall", "literal"),
    "precision": ("f32", "f64"),
}


@dataclass
class ModelConfig:
    front_end: str = "r2h-norm"
    r2h_size: int = 1024          # real width of the encoder output (4 x quaternion count)
    r2h_activation: str = "tanh"
    stack_kind: str = "qlstm"
    depth: int = 4
    hidden_real_width: int = 1024
    classes: int = 2
    dropout: float = 0.2
    epochs: int = 30
    lr0: float = 1e-3
    lr_rule: str = "stall"
    seed: int = 0
    precision: str = "f32"
    input_dim: int = 40
    batch_size: int = 8

    def validate(self) -> None:
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got '{getattr(self, name)}'")
        for name in ("r2h_size", "hidden_real_width", "classes", "input_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.depth < 0:
            raise ConfigError(f"depth must be >= 0, got {self.depth}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0 < self.lr0 < math.inf:
            raise ConfigError(f"lr0 must be finite and > 0, got {self.lr0}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # divisibility by 4 whenever a quaternion component is in play
        if self.front_end in ("r2h-norm", "r2h") and self.r2h_size % 4 != 0:
            raise ConfigError(f"r2h_size must be divisible by 4, got {self.r2h_size}")
        if self.stack_kind == "qlstm" and self.hidden_real_width % 4 != 0:
            raise ConfigError(
                f"hidden_real_width must be divisible by 4 for a qlstm stack, got {self.hidden_real_width}"
            )

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter and activation."""
        return np.dtype({"f32": np.float32, "f64": np.float64}[self.precision])

    def digest(self) -> str:
        canonical = json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_file_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in dataclasses.fields(self)]
        return "\n".join(lines) + "\n"


def field_types(record) -> dict:
    """Field name -> value type of a dataclass, the type of the field's default."""
    return {f.name: type(f.default) for f in dataclasses.fields(record)}


def check_memory(need: int, what: str) -> None:
    """Refuse what needs more bytes than physical memory, before it is allocated."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # unknown on this platform: no budget
        return
    if 0 < physical < need:
        raise ConfigError(f"{what} need {need} bytes, more than the {physical} bytes of physical memory")


def _coerce(key: str, raw: str):
    types = field_types(ModelConfig)
    if key not in types:
        raise ConfigError(f"unknown config key '{key}' (valid: {', '.join(sorted(types))})")
    try:
        return types[key](raw)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}' expects a {types[key].__name__} value, got '{raw}'") from exc


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines (UTF-8, # comments, blank lines ignored)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: config file is not UTF-8 text ({exc.reason})") from None
        for lineno, line in enumerate(lines, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{stripped}'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            values[key] = _coerce(key, raw)
    return values


def resolve_config(file_values: dict | None = None, flag_values: dict | None = None) -> ModelConfig:
    """Apply precedence: dataclass defaults < config file < flags.

    flag_values entries that are None are treated as unset.
    """
    config = ModelConfig()
    for source in (file_values or {}), (flag_values or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in field_types(ModelConfig):
                raise ConfigError(f"unknown config key '{key}'")
            setattr(config, key, value)
    config.validate()
    return config
