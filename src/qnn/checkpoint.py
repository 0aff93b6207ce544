"""Binary model checkpoints.

Container layout (all integers little-endian):

    magic "QNN1"
    digest length u32 | config digest bytes (UTF-8 hex)
    parameter count u32
    per parameter: name length u32 | name UTF-8 | dtype tag u8
                   | rank u32 | dims u32 each | raw little-endian data

The digest ties a checkpoint to the exact configuration that produced it;
loading refuses on mismatch so weights are never silently poured into a
different architecture. Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from qnn.data import ByteReader, atomic_write
from qnn.errors import ContractError, FormatError

MAGIC = b"QNN1"
_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_checkpoint(path: str, named_params, digest: str) -> None:
    """Atomic: a save that fails leaves any earlier file at path untouched."""
    params = list(named_params)
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        raw_digest = digest.encode("utf-8")
        fh.write(struct.pack("<I", len(raw_digest)))
        fh.write(raw_digest)
        fh.write(struct.pack("<I", len(params)))
        for name, tensor in params:
            data = np.ascontiguousarray(tensor.data)
            dtype = data.dtype.newbyteorder("<")
            if np.dtype(dtype) not in _DTYPE_TAGS:
                raise ContractError(f"parameter '{name}' has unsupported dtype {data.dtype}")
            raw_name = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw_name)))
            fh.write(raw_name)
            fh.write(struct.pack("<B", _DTYPE_TAGS[np.dtype(dtype)]))
            fh.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.astype(dtype, copy=False).tobytes())


def load_checkpoint(path: str):
    """Returns (digest, dict of name -> ndarray)."""
    with open(path, "rb") as fh:
        reader = ByteReader(fh, "checkpoint")
        magic = reader.take(4, "magic")
        if magic != MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r} at byte offset 0 (expected {MAGIC!r})")
        digest = reader.text(reader.u32("digest length"), "digest")
        count = reader.u32("parameter count")
        params = {}
        for index in range(count):
            name = reader.text(reader.u32(f"name length of parameter {index}"), "name")
            tag = reader.take(1, f"dtype tag of '{name}'")[0]
            if tag not in _TAG_DTYPES:
                raise FormatError(f"unknown dtype tag {tag} for parameter '{name}'")
            rank = reader.u32(f"rank of '{name}'")
            shape = tuple(reader.u32(f"dim {d} of '{name}'") for d in range(rank))
            dtype = _TAG_DTYPES[tag]
            raw = reader.take(math.prod(shape) * dtype.itemsize, f"data of '{name}'")
            try:
                params[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            except ValueError as exc:  # e.g. more dimensions than numpy allows
                raise FormatError(f"parameter '{name}' has unsupported shape: {exc}") from None
        return digest, params


def load_verified(path: str, expected_digest: str) -> dict:
    """The checkpoint's parameters, refused when its config digest differs;
    nothing of the model has to exist yet."""
    digest, params = load_checkpoint(path)
    if digest != expected_digest:
        raise ContractError(
            f"checkpoint digest {digest} does not match model config digest {expected_digest}"
        )
    return params


def copy_into_model(params: dict, model) -> None:
    """Copy loaded buffers into a freshly built model, verifying every
    name/shape/dtype."""
    model_params = dict(model.named_parameters())
    missing = sorted(set(model_params) - set(params))
    extra = sorted(set(params) - set(model_params))
    if missing or extra:
        raise ContractError(f"checkpoint parameter mismatch: missing {missing}, unexpected {extra}")
    for name, tensor in model_params.items():
        stored = params[name]
        if stored.shape != tensor.data.shape or stored.dtype != tensor.data.dtype:
            raise ContractError(
                f"parameter '{name}': checkpoint has {stored.dtype}{stored.shape}, "
                f"model has {tensor.data.dtype}{tensor.data.shape}"
            )
        tensor.data[...] = stored


def load_into_model(path: str, model, expected_digest: str) -> None:
    """Copy checkpointed buffers into a freshly built model, verifying the
    config digest and every name/shape/dtype."""
    copy_into_model(load_verified(path, expected_digest), model)
