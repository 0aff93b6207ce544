"""tools/compare.py's summary of paired benchmark runs, fed canned run
records, and the run bound of it and tools/same_seed.py: no git checkout
and no benchmark process is started."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import compare  # noqa: E402
import same_seed  # noqa: E402

DECLARED = {"train_frames_per_s": {"unit": "frames/s", "better": "higher", "bound": 0.25},
            "peak_rss_mb": {"unit": "MB", "better": "lower", "bound": 0.2}}


def canned(pair, side, fps, rss, correct=True):
    return {"pair": pair, "side": side, "position": 0, "exit": 0, "wall_s": 60.0, "correct": correct,
            "failed": 0 if correct else 1, "attempted": 40, "stamp": {"source_sha256": side},
            "metrics": {"train_frames_per_s": fps, "peak_rss_mb": rss}}


def test_summary_pairs_each_side_with_the_base_run_of_its_seed():
    runs = [canned(1, "base", 100.0, 50.0), canned(1, "control", 110.0, 50.0), canned(1, "head", 120.0, 40.0),
            canned(2, "base", 200.0, 50.0), canned(2, "control", 190.0, 51.0), canned(2, "head", 200.0, 45.0),
            canned(3, "head", 150.0, 60.0), canned(3, "base", 100.0, 50.0), canned(3, "control", 100.0, 49.0),
            {"pair": 4, "side": "head", "position": 0, "exit": 1, "wall_s": 2.0, "correct": False,
             "failed": None, "stderr": "Traceback"},
            canned(4, "base", 1.0, 1.0), canned(4, "control", 1.0, 1.0)]
    out = compare.summary(runs, DECLARED)
    assert out["correct"] is False
    assert [(r["pair"], r["side"]) for r in out["runs"]] == [(r["pair"], r["side"]) for r in runs]
    assert all("metrics" not in r and "stamp" not in r for r in out["runs"])
    assert out["runs"][9]["stderr"] == "Traceback"
    assert out["stamps"] == {side: {"source_sha256": side} for side in ("base", "control", "head")}

    fps = out["metrics"]["train_frames_per_s"]
    assert (fps["unit"], fps["better"], fps["bound"]) == ("frames/s", "higher", 0.25)
    assert fps["base"]["values"] == [100.0, 200.0, 100.0, 1.0] and fps["base"]["median"] == 100.0
    assert fps["head"]["values"] == [120.0, 200.0, 150.0]  # the crashed run has no value
    head = fps["head_vs_base"]
    assert head["pairs"] == 3 and head["wins"] == 2  # the tie at seed 2 counts for neither
    assert head["ratio"]["values"] == [1.2, 1.0, 1.5] and head["ratio"]["median"] == 1.2
    control = fps["control_vs_base"]
    assert control["pairs"] == 4 and control["wins"] == 1
    assert control["ratio"]["values"] == [1.1, 0.95, 1.0, 1.0]

    rss = out["metrics"]["peak_rss_mb"]  # lower is better
    assert rss["head_vs_base"]["wins"] == 2 and rss["control_vs_base"]["wins"] == 1
    assert rss["head"]["q1"] <= rss["head"]["median"] <= rss["head"]["q3"]


def test_summary_of_two_sides_has_no_control():
    runs = [canned(1, "base", 10.0, 1.0), canned(1, "head", 9.0, 1.0),
            canned(2, "head", 8.0, 1.0), canned(2, "base", 10.0, 1.0)]
    out = compare.summary(runs, {"train_frames_per_s": DECLARED["train_frames_per_s"]})
    entry = out["metrics"]["train_frames_per_s"]
    assert out["correct"] is True and set(out["stamps"]) == {"base", "head"}
    assert "control" not in entry and "control_vs_base" not in entry
    assert entry["head_vs_base"]["wins"] == 0 and entry["head_vs_base"]["ratio"]["median"] == pytest.approx(0.85)


def test_main_rotates_the_sides_and_writes_the_summary(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 50, "end_to_end": [dict(name=name, **spec) for name, spec in DECLARED.items()]}))
    calls = []

    def fake_bench_run(tree, workload, seed, seconds):
        calls.append((Path(tree).name, workload, seed, seconds))
        return canned(seed, "", 100.0 + seed, 50.0)

    monkeypatch.setattr(compare, "ROOT", tmp_path)
    monkeypatch.setattr(compare, "resolve", lambda rev: f"sha-of-{rev}")
    monkeypatch.setattr(compare, "unpack", lambda sha, tree: tree.mkdir())
    monkeypatch.setattr(compare, "bench_run", fake_bench_run)
    assert compare.main(["--base", "HEAD~1", "--workload", "train_short", "--seeds", "1-3"]) == 0
    trees = {"base": "base", "control": "control", "head": tmp_path.name}
    order = [[trees[side] for side in compare.SIDES[seed % 3:] + compare.SIDES[:seed % 3]] for seed in (1, 2, 3)]
    assert [c[0] for c in calls] == [name for names in order for name in names]
    assert {c[1:] for c in calls} == {("train_short", seed, 50) for seed in (1, 2, 3)}
    out = json.loads((tmp_path / "BENCH_train_short.json").read_text())
    assert out["base"] == {"rev": "HEAD~1", "commit": "sha-of-HEAD~1"} and out["seconds"] == 50
    assert [r["position"] for r in out["runs"]] == [0, 1, 2] * 3
    assert out["metrics"]["train_frames_per_s"]["head_vs_base"]["ratio"]["values"] == [1.0, 1.0, 1.0]


def test_summary_lines_give_each_sides_ratio_to_the_base_with_its_quartiles(tmp_path, monkeypatch, capsys):
    runs = [canned(seed, side, fps, 50.0) for seed, side, fps in
            [(1, "base", 100.0), (1, "control", 101.0), (1, "head", 112.0),
             (2, "base", 100.0), (2, "control", 99.0), (2, "head", 109.0),
             (3, "base", 100.0), (3, "control", 100.0), (3, "head", 115.0)]]
    entry = compare.summary(runs, DECLARED)["metrics"]["train_frames_per_s"]
    assert compare.summary_line("train_frames_per_s", entry) == (
        "train_frames_per_s: base=100 control=100 head=112 "
        "control_wins=1/3 control/base=1.000 [0.990, 1.010] head_wins=3/3 head/base=1.120 [1.090, 1.150]")
    two_sided = compare.summary([r for r in runs if r["side"] != "control"], DECLARED)["metrics"]["peak_rss_mb"]
    assert compare.summary_line("peak_rss_mb", two_sided) == (
        "peak_rss_mb: base=50 head=50 head_wins=0/3 head/base=1.000 [1.000, 1.000]")
    no_pairs = {"base": entry["base"], "head": None}
    assert compare.summary_line("train_frames_per_s", no_pairs) == "train_frames_per_s: base=100"

    # main prints one such line per declared metric after the per-run lines
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 50, "end_to_end": [dict(name=name, **spec) for name, spec in DECLARED.items()]}))
    fps = {"base": 100.0, "control": 100.0}  # the head runs in tmp_path itself

    def fake_bench_run(tree, workload, seed, seconds):
        return canned(seed, "", fps.get(Path(tree).name, 110.0), 50.0)

    monkeypatch.setattr(compare, "ROOT", tmp_path)
    monkeypatch.setattr(compare, "resolve", lambda rev: rev)
    monkeypatch.setattr(compare, "unpack", lambda sha, tree: tree.mkdir())
    monkeypatch.setattr(compare, "bench_run", fake_bench_run)
    assert compare.main(["--base", "HEAD~1", "--workload", "train_short", "--seeds", "1-2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "train_frames_per_s: base=100 control=100 head=110 control_wins=0/2 control/base=1.000 [1.000, 1.000] "
        "head_wins=2/2 head/base=1.100 [1.100, 1.100]",
        "peak_rss_mb: base=50 control=50 head=50 control_wins=0/2 control/base=1.000 [1.000, 1.000] "
        "head_wins=0/2 head/base=1.000 [1.000, 1.000]"]


def test_a_run_that_times_out_is_not_correct_and_main_exits_1(tmp_path, monkeypatch):
    timeouts = []

    def hung_run(args, **kwargs):
        timeouts.append(kwargs["timeout"])
        raise subprocess.TimeoutExpired(args, kwargs["timeout"], output=b"partial")

    monkeypatch.setattr(subprocess, "run", hung_run)
    bench = compare.bench_run(tmp_path, "train_short", 1, 50)
    assert timeouts == [compare.TIMEOUT_RUNS * 50]
    assert bench["correct"] is False and bench["exit"] is None and "metrics" not in bench
    assert bench["stderr"] == f"timed out after {compare.TIMEOUT_RUNS * 50} s"
    tier1 = compare.tier1_run(tmp_path, 120)
    assert timeouts[-1] == 120
    assert tier1["correct"] is False and tier1["exit"] is None and "metrics" not in tier1
    assert tier1["summary"] == "timed out after 120 s"

    # main records the killed runs and exits 1
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 50, "end_to_end": [dict(name=name, **spec) for name, spec in DECLARED.items()]}))
    monkeypatch.setattr(compare, "ROOT", tmp_path)
    monkeypatch.setattr(compare, "resolve", lambda rev: rev)
    monkeypatch.setattr(compare, "unpack", lambda sha, tree: tree.mkdir())
    assert compare.main(["--base", "HEAD~1", "--workload", "train_short", "--seeds", "1"]) == 1
    out = json.loads((tmp_path / "BENCH_train_short.json").read_text())
    assert out["correct"] is False and [r["correct"] for r in out["runs"]] == [False] * 3
    assert out["metrics"]["train_frames_per_s"]["head"] is None


def test_same_seed_reports_a_timed_out_command_and_exits_1(tmp_path, monkeypatch, capsys):
    def hung_run(args, **kwargs):
        if args[-1] == "selfcheck":
            raise subprocess.TimeoutExpired(args, kwargs["timeout"])
        return subprocess.CompletedProcess(args, 0, "ok\n", "")

    monkeypatch.setattr(subprocess, "run", hung_run)
    records = same_seed.run_side(tmp_path / "src", tmp_path / "work")
    assert records["selfcheck"] == f"exit=None\n--- stderr\ntimed out after {same_seed.COMMAND_TIMEOUT_S} s"
    assert records["synth"] == "exit=0\nok\n--- stderr\n"

    monkeypatch.setattr(same_seed, "run_side", lambda src, work, threads=None: dict(records))
    assert same_seed.main(["--threads"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["timed out: base selfcheck", "timed out: head selfcheck"]
    assert lines[-1].endswith(" 0 differ")
