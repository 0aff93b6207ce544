"""Feature files, batching, layout composition, and the synthetic task."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from qnn import data
from qnn.data import (
    SynthSpec,
    Utterance,
    class_templates,
    generate_synthetic,
    make_batches,
    read_features,
    total_frames,
    write_features,
)
from qnn.errors import ConfigError, DataError, FormatError
from qnn.layers import naive_quat_compose


def random_utts(rng, count=5, dim=6):
    utts = []
    for i in range(count):
        t_len = int(rng.integers(2, 9))
        utts.append(
            Utterance(
                f"utt-{i}",
                rng.standard_normal((t_len, dim)).astype(np.float32),
                rng.integers(0, 3, t_len).astype(np.int32),
            )
        )
    return utts


# --- QFEA ----------------------------------------------------------------


def test_qfea_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    utts = random_utts(rng)
    path = tmp_path / "feats.qfea"
    write_features(path, utts)
    back = read_features(path)
    assert len(back) == len(utts)
    for a, b in zip(utts, back):
        assert a.id == b.id
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)


def test_qfea_non_ascii_id_round_trips_byte_exactly(tmp_path):
    utts = random_utts(np.random.default_rng(1), count=2)
    utts[0].id, utts[1].id = "énoncé-1", "発話/🎙"
    first, second = tmp_path / "a.qfea", tmp_path / "b.qfea"
    write_features(first, utts)
    back = read_features(first)
    assert [u.id for u in back] == ["énoncé-1", "発話/🎙"]
    write_features(second, back)
    assert second.read_bytes() == first.read_bytes()


def test_qfea_empty_list(tmp_path):
    path = tmp_path / "empty.qfea"
    write_features(path, [])
    assert read_features(path) == []


def test_qfea_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00\x01\x02\x03rest")
    with pytest.raises(FormatError, match="byte offset 0"):
        read_features(path)


def test_qfea_truncation_reports_offset(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "feats.qfea"
    write_features(path, random_utts(rng, count=2))
    whole = path.read_bytes()
    cut = tmp_path / "cut.qfea"
    cut.write_bytes(whole[: len(whole) - 7])
    with pytest.raises(FormatError, match="byte offset"):
        read_features(cut)


def test_qfea_refuses_utterances_beyond_the_declared_count(tmp_path):
    rng = np.random.default_rng(2)
    utts = random_utts(rng, count=12)
    path, head = tmp_path / "feats.qfea", tmp_path / "head.qfea"
    write_features(path, utts)
    write_features(head, utts[:5])
    whole, declared = path.read_bytes(), head.read_bytes()
    path.write_bytes(whole[:8] + struct.pack("<I", 5) + whole[12:])  # the count, 12 -> 5
    with pytest.raises(FormatError, match=f"{len(whole) - len(declared)} trailing bytes "
                                          f"at byte offset {len(declared)}"):
        read_features(path)


def test_qfea_rejects_non_finite(tmp_path):
    utt = Utterance("bad", np.zeros((3, 2), dtype=np.float32), np.zeros(3, dtype=np.int32))
    utt.features[1, 1] = np.inf
    with pytest.raises(DataError, match="frame 1, dim 1"):
        write_features(tmp_path / "x.qfea", [utt])


def test_failed_qfea_write_keeps_earlier_file(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "feats.qfea"
    write_features(path, random_utts(rng, count=2))
    before = path.read_bytes()
    bad = Utterance("bad", np.full((3, 2), np.nan, dtype=np.float32), np.zeros(3, dtype=np.int32))
    with pytest.raises(DataError, match="non-finite"):
        write_features(path, random_utts(rng, count=2) + [bad])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["feats.qfea"]


@pytest.mark.parametrize("where", ["open", "rename"])
def test_an_interrupt_in_the_open_or_the_rename_leaves_no_temporary_file(tmp_path, monkeypatch, where):
    # a signal that lands during a call is raised as soon as the call returns
    path = tmp_path / "f.txt"
    path.write_text("earlier\n")
    real = {"open": open, "rename": os.replace}[where]

    def interrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        if result is not None:
            result.close()
        raise KeyboardInterrupt

    if where == "open":
        monkeypatch.setattr(data, "open", interrupted, raising=False)
    else:
        monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        with data.atomic_write(str(path), text=True) as fh:
            fh.write("new\n")
    assert path.read_text() == ("earlier\n" if where == "open" else "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


# --- CSV fallback --------------------------------------------------------


def test_csv_parses_matrix(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text(
        "id,frame,label,f0,f1,f2\n"
        "a,0,2,1.5,-0.25,3.0\n"
        "a,1,1,0.0,2.5,-1.0\n"
    )
    utts = read_features(path)
    assert len(utts) == 1 and utts[0].id == "a"
    assert np.array_equal(utts[0].features, np.array([[1.5, -0.25, 3.0], [0.0, 2.5, -1.0]], dtype=np.float32))
    assert np.array_equal(utts[0].labels, np.array([2, 1], dtype=np.int32))


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,frame,label,g0\n")
    with pytest.raises(FormatError, match="header"):
        read_features(path)


def test_csv_non_contiguous_frames(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("id,frame,label,f0\na,0,0,1.0\na,2,0,2.0\n")
    with pytest.raises(FormatError, match="contiguous"):
        read_features(path)


@pytest.mark.parametrize("label", ["99999999999", "-2147483649"])
def test_csv_label_beyond_int32_is_format_error(tmp_path, label):
    path = tmp_path / "big.csv"
    path.write_text(f"id,frame,label,f0\na,0,1,0.5\na,1,{label},1.0\n")
    with pytest.raises(FormatError, match=rf"big.csv:3: label {label} does not fit in int32"):
        read_features(path)


def test_csv_error_names_the_physical_line_after_a_multi_line_field(tmp_path):
    path = tmp_path / "multi.csv"
    path.write_text('id,frame,label,f0\n"a\nb",0,0,1.0\nc,0,x,2.0\n')
    with pytest.raises(FormatError, match=r"multi.csv:4: invalid literal for int\(\)"):
        read_features(path)


def test_csv_field_over_the_csv_module_limit_is_format_error(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("id,frame,label,f0\na,0,0," + "1" * 200000 + "\n")
    with pytest.raises(FormatError, match=r"big.csv: unreadable CSV \(field larger than field limit"):
        read_features(path)


@pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"], ids=["plain", "utf8_bom"])
def test_csv_header_with_and_without_bom(tmp_path, prefix):
    path = tmp_path / "feats.csv"
    path.write_bytes(prefix + b"id,frame,label,f0,f1\nutt,0,1,0.5,-2.0\n")
    utts = read_features(path)
    assert [u.id for u in utts] == ["utt"]
    assert np.array_equal(utts[0].features, np.array([[0.5, -2.0]], dtype=np.float32))


# --- naive quaternion composition ---------------------------------------


def test_compose_single_quaternion():
    frame = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert np.array_equal(naive_quat_compose(frame), frame)


def test_compose_d40_layout():
    frames = np.arange(80.0).reshape(2, 40)
    out = naive_quat_compose(frames)
    assert out.shape == (2, 40)
    for k in range(10):
        for c in range(4):
            assert out[0, c * 10 + k] == frames[0, 4 * k + c]


def test_compose_matches_explicit_repack():
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((3, 5, 12))
    # quaternion k = coefficients 4k..4k+3; the quarter-block layout holds component c at c * 3 + k
    repacked = frames.reshape(3, 5, 3, 4).swapaxes(-1, -2).reshape(3, 5, 12)
    assert np.array_equal(naive_quat_compose(frames), repacked)


def test_compose_pads_remainder():
    frames = np.ones((2, 6))
    out = naive_quat_compose(frames)
    assert out.shape == (2, 8)
    # quaternions (1, 1, 1, 1) and (1, 1, 0, 0): r parts, then x, y and z parts
    assert np.array_equal(out, np.array([[1, 1, 1, 1, 1, 0, 1, 0]] * 2, dtype=float))


# --- synthetic task ------------------------------------------------------


def small_spec(**overrides):
    base = dict(train_utts=8, valid_utts=3, test_utts=3, seed=11)
    base.update(overrides)
    return SynthSpec(**base)


def test_synthetic_deterministic():
    a_train, a_valid, _ = generate_synthetic(small_spec())
    b_train, b_valid, _ = generate_synthetic(small_spec())
    for x, y in zip(a_train + a_valid, b_train + b_valid):
        assert x.id == y.id
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)


def float64_synth_split(spec, templates, name, count, rng):
    """Utterances built as whole float64 arrays and cast once at the end."""
    lo, hi = spec.delta_classes
    utterances = []
    for i in range(count):
        feats, labels = [], []
        for _ in range(spec.segments_per_utt):
            cls = int(rng.integers(spec.classes))
            length = int(rng.integers(spec.seg_min, spec.seg_max + 1))
            ramp = np.arange(length, dtype=np.float64) - (length - 1) / 2.0
            slope = spec.slope if cls == hi else (-spec.slope if cls == lo else 0.0)
            segment = templates[cls][None, :] + slope * ramp[:, None]
            feats.append(segment + spec.noise * rng.standard_normal((length, spec.dim)))
            labels.append(np.full(length, cls, dtype=np.int32))
        utterances.append(Utterance(f"{name}-{i:04d}", np.concatenate(feats).astype(np.float32),
                                    np.concatenate(labels)))
    return utterances


def test_synthetic_bytes_equal_the_float64_construction():
    spec = small_spec(seg_min=1, seg_max=30, segments_per_utt=7, dim=9, classes=5, noise=0.7, slope=0.3)
    seeds = np.random.SeedSequence(spec.seed).spawn(3)
    counts = (spec.train_utts, spec.valid_utts, spec.test_utts)
    for split, name, count, seed in zip(generate_synthetic(spec), ("train", "valid", "test"), counts, seeds):
        want = float64_synth_split(spec, class_templates(spec), name, count, np.random.default_rng(seed))
        for got, ref in zip(split, want, strict=True):
            assert got.id == ref.id and got.features.flags.c_contiguous
            assert got.features.dtype == ref.features.dtype and got.labels.dtype == ref.labels.dtype
            assert got.features.tobytes() == ref.features.tobytes()
            assert got.labels.tobytes() == ref.labels.tobytes()


@pytest.mark.parametrize("fields", [
    dict(seg_min=100_000, seg_max=100_000, segments_per_utt=1),
    dict(seg_min=25_000, seg_max=25_000, segments_per_utt=4),
    # many wide class templates and tiny splits: the templates' working set is most of the peak
    dict(classes=4000, dim=2000, seg_min=1, seg_max=1, segments_per_utt=1),
], ids=["100000-1", "25000-4", "templates"])
def test_generate_synthetic_stays_within_its_memory_budget(fields):
    spec = SynthSpec(train_utts=1, valid_utts=1, test_utts=1, **fields)
    generate_synthetic(small_spec())  # numpy's one-time allocations stay out of the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        generate_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= spec.peak_bytes(), (peak, spec.peak_bytes())


def test_synthetic_split_streams_differ():
    train, valid, test = generate_synthetic(small_spec())
    assert not np.array_equal(train[0].features[:5], valid[0].features[:5])
    assert not np.array_equal(valid[0].features[:5], test[0].features[:5])


def test_synthetic_degenerate_specs():
    with pytest.raises(ConfigError):
        generate_synthetic(small_spec(classes=1))
    with pytest.raises(ConfigError):
        generate_synthetic(small_spec(dim=3))
    with pytest.raises(ConfigError):
        generate_synthetic(small_spec(noise=-0.1))
    with pytest.raises(ConfigError):
        generate_synthetic(small_spec(seg_min=9, seg_max=4))


def test_synthetic_label_priors_near_uniform():
    spec = small_spec(train_utts=75, segments_per_utt=12, seed=5)
    train, _, _ = generate_synthetic(spec)
    labels = np.concatenate([u.labels for u in train])
    assert labels.size >= 10_000
    counts = np.bincount(labels, minlength=spec.classes)
    priors = counts / labels.size
    assert np.all(np.abs(priors - 1.0 / spec.classes) < 0.02)


def test_noise_free_static_classes_match_templates_exactly():
    spec = small_spec(noise=0.0, seed=7)
    templates = class_templates(spec)
    train, _, _ = generate_synthetic(spec)
    frames = np.concatenate([u.features for u in train])
    labels = np.concatenate([u.labels for u in train])
    static = labels < spec.classes - 2
    assert static.any()
    # nearest-template classification is perfect on static frames
    dists = ((frames[:, None, :] - templates[None, :, :]) ** 2).sum(axis=2)
    predicted = dists.argmin(axis=1)
    assert np.array_equal(predicted[static], labels[static])


def test_delta_pair_shares_mean_spectrum():
    spec = small_spec(train_utts=60, segments_per_utt=10, seed=9)
    lo, hi = spec.delta_classes
    templates = class_templates(spec)
    assert np.array_equal(templates[lo], templates[hi])
    train, _, _ = generate_synthetic(spec)
    frames = np.concatenate([u.features for u in train])
    labels = np.concatenate([u.labels for u in train])
    mean_lo = frames[labels == lo].mean(axis=0)
    mean_hi = frames[labels == hi].mean(axis=0)
    # ramps are centred, so the two classes agree in expectation
    assert np.max(np.abs(mean_lo - mean_hi)) < 0.05


# --- batching ------------------------------------------------------------


def test_batches_of_one_have_no_padding():
    rng = np.random.default_rng(3)
    utts = random_utts(rng)
    for utt, batch in zip(utts, make_batches(utts, 1)):
        assert batch.features.shape == (len(utt), 1, utt.features.shape[1])
        assert batch.mask.all()
        assert np.array_equal(batch.features[:, 0, :], utt.features)


def test_batching_conserves_frames_and_ids():
    rng = np.random.default_rng(4)
    utts = random_utts(rng, count=11)
    batches = make_batches(utts, 3, rng=np.random.default_rng(8))
    assert sum(b.valid_frames for b in batches) == total_frames(utts)
    seen = [i for b in batches for i in b.ids]
    assert sorted(seen) == sorted(u.id for u in utts)
    for batch in batches:
        assert np.array_equal(batch.features[~batch.mask], np.zeros_like(batch.features[~batch.mask]))


def test_bucketing_reduces_padding():
    rng = np.random.default_rng(5)
    utts = random_utts(rng, count=20)

    def padded_frames(batches):
        return sum(b.mask.size - b.valid_frames for b in batches)

    plain = padded_frames(make_batches(utts, 4, rng=np.random.default_rng(1)))
    bucketed = padded_frames(make_batches(utts, 4, rng=np.random.default_rng(1), sort_by_length=True))
    assert bucketed <= plain


def test_batch_size_validation():
    with pytest.raises(ConfigError):
        make_batches([], 0)
    assert make_batches([], 3) == []
