"""Experiment configuration: a single flat record describing the model and
training run, plus the key=value file format and the precedence rules
(defaults < config file < command-line flags).

The config digest — a stable hash of the canonical serialization — is
embedded in checkpoints and metrics records so artifacts can be matched to
the exact configuration that produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from qnn.errors import ConfigError

FRONT_ENDS = ("r2h-norm", "r2h", "naive-quat", "identity")
ACTIVATION_CHOICES = ("tanh", "hardtanh", "relu")
STACK_KINDS = ("qlstm", "lstm")
LR_RULES = ("stall", "literal")
PRECISIONS = ("f32", "f64")


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
        if self.front_end not in FRONT_ENDS:
            raise ConfigError(f"front_end must be one of {FRONT_ENDS}, got '{self.front_end}'")
        if self.r2h_activation not in ACTIVATION_CHOICES:
            raise ConfigError(
                f"r2h_activation must be one of {ACTIVATION_CHOICES}, got '{self.r2h_activation}'"
            )
        if self.stack_kind not in STACK_KINDS:
            raise ConfigError(f"stack_kind must be one of {STACK_KINDS}, got '{self.stack_kind}'")
        if self.lr_rule not in LR_RULES:
            raise ConfigError(f"lr_rule must be one of {LR_RULES}, got '{self.lr_rule}'")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}, got '{self.precision}'")
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

    def digest(self) -> str:
        canonical = json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_file_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in dataclasses.fields(self)]
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ModelConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key '{key}' (valid: {', '.join(sorted(_FIELD_TYPES))})")
    kind = _FIELD_TYPES[key]
    try:
        if kind in ("int", int):
            return int(raw)
        if kind in ("float", float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}' expects a {kind} value, got '{raw}'") from exc
    return raw


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
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key '{key}'")
            setattr(config, key, value)
    config.validate()
    return config
