"""Binary model checkpoints.

Container layout (all integers little-endian):

    magic "QNN1"
    digest length u32 | config digest bytes (UTF-8 hex)
    parameter count u32
    per parameter: name length u32 | name UTF-8 | dtype tag u8
                   | rank u32 | dims u32 each | raw little-endian data

Fields are written and read with qnn.data's codec (write_u32, write_text,
ByteReader), the one statement of the binary containers' layout.

The digest ties a checkpoint to the exact configuration that produced it;
loading refuses on mismatch so weights are never silently poured into a
different architecture. Loading also refuses a parameter name stored twice
and any byte after the last parameter. Round-trips are bit-exact.
"""

from __future__ import annotations

import numpy as np

from qnn.data import ByteReader, atomic_write, write_text, write_u32
from qnn.errors import ContractError, FormatError

MAGIC = b"QNN1"
_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_TAG_DTYPES = {tag: dtype for dtype, tag in _DTYPE_TAGS.items()}


def save_checkpoint(path: str, named_params, digest: str) -> None:
    """Atomic: a save that fails leaves any earlier file at path untouched."""
    params = list(named_params)
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        write_text(fh, digest)
        write_u32(fh, len(params))
        for name, tensor in params:
            data = np.ascontiguousarray(tensor.data)
            dtype = data.dtype.newbyteorder("<")
            if dtype not in _DTYPE_TAGS:
                raise ContractError(f"parameter '{name}' has unsupported dtype {data.dtype}")
            write_text(fh, name)
            fh.write(bytes([_DTYPE_TAGS[dtype]]))
            write_u32(fh, data.ndim, *data.shape)
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
            if name in params:
                raise FormatError(f"checkpoint holds parameter '{name}' twice")
            tag = reader.take(1, f"dtype tag of '{name}'")[0]
            if tag not in _TAG_DTYPES:
                raise FormatError(f"unknown dtype tag {tag} for parameter '{name}'")
            rank = reader.u32(f"rank of '{name}'")
            shape = tuple(reader.u32(f"dim {d} of '{name}'") for d in range(rank))
            params[name] = reader.array(shape, _TAG_DTYPES[tag], f"data of '{name}'")
        reader.end()
        return digest, params


def load_verified(path: str, expected_digest: str) -> dict:
    """The checkpoint's parameters, refused when its config digest differs
    or a parameter holds inf or NaN; nothing of the model has to exist yet."""
    digest, params = load_checkpoint(path)
    if digest != expected_digest:
        raise ContractError(
            f"checkpoint digest {digest} does not match model config digest {expected_digest}"
        )
    for name, data in params.items():
        if not np.isfinite(data).all():
            raise FormatError(f"checkpoint parameter '{name}' holds a non-finite value")
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
