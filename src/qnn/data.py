"""Feature ingestion, batching, and the synthetic sequence-labeling task.

Feature files use the QFEA binary container (bit-exact round-trips, no
external dependencies):

    magic "QFEA" | version u32=1 | utterance count u32
    per utterance: id length u32 | id bytes UTF-8 | T u32 | D u32
                   | T*D float32 row-major | T int32 labels

All integers and floats are little-endian. The codec beside ByteReader
(write_u32, write_text, ByteReader) is the one statement of how these fields
and the checkpoints' are written and read. A CSV fallback
(`id,frame,label,f0..f{D-1}` header, one row per frame) covers hand-written
fixtures.

The synthetic task is framewise classification with C classes over
D-dimensional frames. Utterances are concatenations of random-length
segments; each segment draws a class and emits its spectral template plus
Gaussian noise. The last two classes are *delta-coded*: they share one
template exactly and differ only in the sign of a temporal ramp centred on
the segment midpoint, so their single-frame marginal distributions are
identical and only temporal context can separate them.
"""

from __future__ import annotations

import csv
import math
import os
import struct
import uuid
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from qnn.config import check_memory
from qnn.errors import ConfigError, DataError, FormatError

QFEA_MAGIC = b"QFEA"
QFEA_VERSION = 1
_INT32 = np.iinfo(np.int32)


@dataclass
class Utterance:
    id: str
    features: np.ndarray  # (T, D) float32
    labels: np.ndarray    # (T,) int32

    def validate(self) -> None:
        if self.features.ndim != 2 or min(self.features.shape) < 1:
            raise DataError(f"utterance '{self.id}': features must be (T>=1, D>=1), got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError(
                f"utterance '{self.id}': label length {self.labels.shape} does not match T={self.features.shape[0]}"
            )
        if not np.isfinite(self.features).all():
            t, d = np.argwhere(~np.isfinite(self.features))[0]
            raise DataError(f"utterance '{self.id}': non-finite feature at frame {t}, dim {d}")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class UtteranceBatch:
    features: np.ndarray  # (T_max, B, D), zero on padded frames
    labels: np.ndarray    # (T_max, B) int32
    mask: np.ndarray      # (T_max, B) bool, True on valid frames
    ids: tuple

    @property
    def valid_frames(self) -> int:
        return int(self.mask.sum())


@contextmanager
def atomic_write(path: str, text: bool = False):
    """Open a new file beside path for writing; it replaces path only when
    the block completes, and is removed if the block raises, so a failed
    write never leaves a partial file at path."""
    tmp_path = f"{path}.{uuid.uuid4().hex[:12]}.tmp"
    fh = open(tmp_path, "x", encoding="utf-8") if text else open(tmp_path, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


# The codec of the binary containers (QFEA files and QNN1 checkpoints):
# write_u32, write_text and ByteReader are the one statement of how their
# fields are laid out, for writing and for reading.


def write_u32(fh, *values: int) -> None:
    """Each value as a little-endian u32."""
    fh.write(struct.pack(f"<{len(values)}I", *values))


def write_text(fh, text: str) -> None:
    """A u32 byte length, then the text's UTF-8 bytes."""
    raw = text.encode("utf-8")
    write_u32(fh, len(raw))
    fh.write(raw)


class ByteReader:
    """Byte-counting reader for the binary containers (QFEA and checkpoints),
    so format errors can name the offset; it never reads past the file's size."""

    def __init__(self, fh, container: str):
        self.fh = fh
        self.container = container
        self.offset = 0
        self.size = os.fstat(fh.fileno()).st_size

    def take(self, n: int, what: str) -> bytes:
        left = self.size - self.offset
        if n > left:
            raise FormatError(f"truncated {self.container}: wanted {n} bytes for {what} "
                              f"at byte offset {self.offset}, got {left}")
        chunk = self.fh.read(n)
        self.offset += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, n: int, what: str) -> str:
        raw = self.take(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.container}: {what} at byte offset {self.offset - n} "
                              f"is not UTF-8 ({exc.reason})") from None

    def array(self, shape: tuple, dtype, what: str) -> np.ndarray:
        """The next prod(shape) little-endian items of dtype, as a native-order copy."""
        dtype = np.dtype(dtype)
        raw = self.take(math.prod(shape) * dtype.itemsize, what)
        try:
            return np.frombuffer(raw, dtype.newbyteorder("<")).reshape(shape).astype(dtype.newbyteorder("="))
        except ValueError as exc:  # e.g. more dimensions than numpy allows
            raise FormatError(f"{self.container}: {what} has an unsupported shape: {exc}") from None

    def end(self) -> None:
        """Refuse bytes after the container's declared content."""
        left = self.size - self.offset
        if left:
            raise FormatError(f"{self.container}: {left} trailing bytes at byte offset {self.offset} "
                              f"after the declared content")


def write_features(path: str, utterances: list) -> None:
    with atomic_write(path) as fh:
        fh.write(QFEA_MAGIC)
        write_u32(fh, QFEA_VERSION, len(utterances))
        for utt in utterances:
            utt.validate()
            write_text(fh, utt.id)
            write_u32(fh, *utt.features.shape)
            fh.write(np.ascontiguousarray(utt.features, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(utt.labels, dtype="<i4").tobytes())


def _read_qfea(fh) -> list:
    reader = ByteReader(fh, "QFEA file")
    reader.take(4, "magic")  # read_features matched it
    version = reader.u32("version")
    if version != QFEA_VERSION:
        raise FormatError(f"unsupported QFEA version {version} at byte offset 4")
    count = reader.u32("utterance count")
    utterances, seen = [], set()
    for index in range(count):
        id_len = reader.u32(f"id length of utterance {index}")
        ident = reader.text(id_len, f"id of utterance {index}")
        if ident in seen:
            raise FormatError(f"QFEA file: utterance id '{ident}' at byte offset {reader.offset - id_len} "
                              f"was already read")
        seen.add(ident)
        t_len = reader.u32(f"frame count of '{ident}'")
        dim = reader.u32(f"feature dim of '{ident}'")
        features = reader.array((t_len, dim), np.float32, f"features of '{ident}'")
        labels = reader.array((t_len,), np.int32, f"labels of '{ident}'")
        utt = Utterance(ident, features, labels)
        utt.validate()
        utterances.append(utt)
    reader.end()
    return utterances


def _read_csv(path: str) -> list:
    rows = {}  # utterance id -> {frame: (label, values)}, in order of first appearance
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["id", "frame", "label"] or any(
            name != f"f{i}" for i, name in enumerate(header[3:])
        ):
            raise FormatError(f"{path}: CSV header must be id,frame,label,f0..f{{D-1}}, got {header}")
        dim = len(header) - 3
        if dim < 1:
            raise FormatError(f"{path}: CSV header declares no feature columns")
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num  # a quoted field may span lines
            if len(row) != 3 + dim:
                raise FormatError(f"{path}:{lineno}: expected {3 + dim} fields, got {len(row)}")
            ident = row[0]
            try:
                frame = int(row[1])
                label = int(row[2])
                values = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if not _INT32.min <= label <= _INT32.max:
                raise FormatError(f"{path}:{lineno}: label {label} does not fit in int32")
            frames = rows.setdefault(ident, {})
            if frame in frames:
                raise FormatError(f"{path}:{lineno}: duplicate frame {frame} for utterance '{ident}'")
            frames[frame] = (label, values)
    utterances = []
    for ident, frames in rows.items():
        t_len = len(frames)
        if sorted(frames) != list(range(t_len)):
            raise FormatError(f"{path}: utterance '{ident}' frames are not contiguous from 0")
        with np.errstate(over="ignore"):  # a value beyond float32 is refused by validate()
            features = np.array([frames[t][1] for t in range(t_len)], dtype=np.float32)
        labels = np.array([frames[t][0] for t in range(t_len)], dtype=np.int32)
        utt = Utterance(ident, features, labels)
        utt.validate()
        utterances.append(utt)
    return utterances


def read_features(path: str) -> list:
    """Read a QFEA file, falling back to CSV when the magic is absent."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == QFEA_MAGIC:
            fh.seek(0)
            return _read_qfea(fh)
    if head.startswith((b"id,", b"\xef\xbb\xbfi")):  # plain or UTF-8-BOM CSV header
        try:
            return _read_csv(path)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: CSV is not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise FormatError(f"{path}: unreadable CSV ({exc})") from None
    raise FormatError(f"{path}: bad magic {head!r} at byte offset 0 (expected {QFEA_MAGIC!r} or a CSV header)")


@dataclass
class SynthSpec:
    classes: int = 4
    dim: int = 40
    seg_min: int = 8          # frames per segment, inclusive bounds
    seg_max: int = 16
    segments_per_utt: int = 6
    train_utts: int = 200
    valid_utts: int = 60
    test_utts: int = 60
    noise: float = 0.1
    slope: float = 0.05       # per-frame ramp step for the delta-coded pair
    seed: int = 0

    def validate(self) -> None:
        if self.classes < 2:
            raise ConfigError(f"synthetic task needs classes >= 2, got {self.classes}")
        if self.dim < 4:
            raise ConfigError(f"synthetic task needs dim >= 4, got {self.dim}")
        if not 1 <= self.seg_min <= self.seg_max:
            raise ConfigError(f"need 1 <= seg_min <= seg_max, got {self.seg_min}..{self.seg_max}")
        if self.segments_per_utt < 1:
            raise ConfigError(f"segments_per_utt must be >= 1, got {self.segments_per_utt}")
        if min(self.train_utts, self.valid_utts, self.test_utts) < 1:
            raise ConfigError("each split needs at least one utterance")
        if not 0 <= self.noise < math.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        if not math.isfinite(self.slope):
            raise ConfigError(f"slope must be finite, got {self.slope}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        check_memory(self.peak_bytes(), "the synthetic splits")

    def peak_bytes(self) -> int:
        """An upper bound on generate_synthetic's memory: the largest
        possible output (every segment at seg_max frames of float32 features
        and an int32 label), the float64 class templates, the float64
        values, noise draw and ramp of the segment being made, and 4 KiB per
        utterance for the Python objects around the arrays (ids, array
        headers, the split generators)."""
        utterances = self.train_utts + self.valid_utts + self.test_utts
        frames = utterances * self.segments_per_utt * self.seg_max
        return (frames * 4 * (self.dim + 1) + 8 * self.classes * self.dim
                + 16 * self.seg_max * (self.dim + 1) + 4096 * utterances)

    @property
    def delta_classes(self) -> tuple:
        """The two classes distinguishable only through temporal context."""
        return (self.classes - 2, self.classes - 1)


def class_templates(spec: SynthSpec) -> np.ndarray:
    """(C, D) mean spectra: one Gaussian bump per class; the delta-coded
    pair shares the last bump exactly."""
    n_bumps = spec.classes - 1
    centers = np.linspace(0.15, 0.85, n_bumps) * (spec.dim - 1)
    width = max(spec.dim / 10.0, 1.0)
    dims = np.arange(spec.dim, dtype=np.float64)
    templates = np.empty((spec.classes, spec.dim))  # exp(-0.5 * ((dims - centers) / width) ** 2) in place
    bumps = templates[:n_bumps]
    for center, row in zip(centers, bumps):  # a broadcast operand would make numpy buffer it
        np.subtract(dims, center, out=row)
    bumps /= width
    np.square(bumps, out=bumps)
    bumps *= -0.5
    np.exp(bumps, out=bumps)
    templates[n_bumps] = templates[n_bumps - 1]
    return templates


def _synth_split(spec: SynthSpec, templates: np.ndarray, name: str, count: int,
                 rng: np.random.Generator) -> list:
    lo, hi = spec.delta_classes
    longest = spec.segments_per_utt * spec.seg_max
    utterances = []
    for i in range(count):
        # each segment is cast into its utterance's float32 buffer as it is
        # made; the buffer is then shrunk in place, so no copy is joined
        feats = np.empty((longest, spec.dim), dtype=np.float32)
        labels = np.empty(longest, dtype=np.int32)
        end = 0
        for _ in range(spec.segments_per_utt):
            cls = int(rng.integers(spec.classes))
            length = int(rng.integers(spec.seg_min, spec.seg_max + 1))
            ramp = np.arange(length, dtype=np.float64) - (length - 1) / 2.0
            slope = spec.slope if cls == hi else (-spec.slope if cls == lo else 0.0)
            segment = templates[cls][None, :] + slope * ramp[:, None]
            noise = rng.standard_normal((length, spec.dim))
            noise *= spec.noise
            segment += noise
            feats[end:end + length] = segment
            labels[end:end + length] = cls
            end += length
            del segment, noise  # before the next segment's are made
        feats.resize((end, spec.dim), refcheck=False)
        labels.resize(end, refcheck=False)
        utterances.append(Utterance(f"{name}-{i:04d}", feats, labels))
    return utterances


def generate_synthetic(spec: SynthSpec):
    """(train, valid, test) utterance lists; splits use disjoint seed streams."""
    spec.validate()
    templates = class_templates(spec)
    seeds = np.random.SeedSequence(spec.seed).spawn(3)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        splits = tuple(
            _synth_split(spec, templates, name, count, np.random.default_rng(seed))
            for name, count, seed in zip(
                ("train", "valid", "test"),
                (spec.train_utts, spec.valid_utts, spec.test_utts),
                seeds,
            )
        )
    if not all(np.isfinite(utt.features).all() for split in splits for utt in split):
        raise ConfigError(f"noise {spec.noise} or slope {spec.slope} overflows float32 features")
    return splits


def make_batches(utterances: list, batch_size: int, rng=None, sort_by_length: bool = False) -> list:
    """Group utterances into right-padded batches.

    sort_by_length buckets similar lengths together to limit padding; with
    rng given, the order of the batches is shuffled.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if not utterances:
        return []
    order = list(range(len(utterances)))
    if sort_by_length:
        order.sort(key=lambda i: (len(utterances[i]), i))
    chunks = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    if rng is not None:
        chunks = [chunks[i] for i in rng.permutation(len(chunks))]

    dim = utterances[0].features.shape[1]
    batches = []
    for chunk in chunks:
        members = [utterances[i] for i in chunk]
        t_max = max(len(u) for u in members)
        feats = np.zeros((t_max, len(members), dim), dtype=np.float32)
        labels = np.zeros((t_max, len(members)), dtype=np.int32)
        mask = np.zeros((t_max, len(members)), dtype=bool)
        for b, utt in enumerate(members):
            t_len = len(utt)
            feats[:t_len, b, :] = utt.features
            labels[:t_len, b] = utt.labels
            mask[:t_len, b] = True
        batches.append(UtteranceBatch(feats, labels, mask, tuple(u.id for u in members)))
    return batches


def total_frames(utterances: list) -> int:
    return sum(len(u) for u in utterances)
