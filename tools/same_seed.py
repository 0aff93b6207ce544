"""Same-seed byte matrix: does this checkout produce the same bytes as REV?

    python tools/same_seed.py --base REV
    python tools/same_seed.py --threads [--base REV]

Unpacks REV (`git archive REV | tar -x`) into a temporary directory and runs
the same commands on both sides, each side's `qnn` as a subprocess with
PYTHONPATH set to that side's src. With --threads the two sides are one
revision (this checkout, or REV if given) run at OPENBLAS_NUM_THREADS=1 and
at =2. The commands are:

- `qnn synth` of a small dataset (dim 12, 16/8/4 utterances, seed 5);
- `qnn synth` of 150-frame utterances and a 3-epoch `qnn train` on them,
  whose batches of 4 have T*B = 600, a BLAS-thread-sensitive size;
- a 3-epoch `qnn train` for every front end x qlstm/lstm x f32/f64;
- `qnn eval` of each run's best.qnn and `qnn params` of each run's config;
- `qnn selfcheck`, with and without --inject-sign-flip.

Every file the commands write is compared byte for byte, and every output
record (exit code, stdout and stderr) with the side's directory and
`seconds=` fields stripped. Prints one line per difference and a summary;
exits 1 if anything differs. The temporary directory is deleted afterwards.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FRONT_ENDS = ("r2h-norm", "r2h", "naive-quat", "identity")
SYNTH = ["--dim", "12", "--train-utts", "16", "--valid-utts", "8", "--test-utts", "4",
         "--segments", "4", "--seed", "5"]
TRAIN = ["--epochs", "3", "--r2h-size", "32", "--depth", "2", "--hidden", "16", "--dropout", "0.2",
         "--batch-size", "4", "--seed", "5"]
# every utterance 6 x 25 = 150 frames, so each batch of 4 has T*B = 600 rows, a
# size at which OpenBLAS's weight-gradient GEMMs reduce in a thread-count order
LONG = ["--dim", "12", "--train-utts", "8", "--valid-utts", "4", "--test-utts", "4",
        "--seg-min", "25", "--seg-max", "25", "--segments", "6", "--seed", "5"]
SECONDS = re.compile(r"seconds=\S+")


def commands():
    """(record name, qnn arguments) in run order; paths are relative to the side's work directory."""
    yield "synth", ["synth", "--out", "data", *SYNTH]
    yield "synth long", ["synth", "--out", "long", *LONG]
    yield "train long", ["train", "--train", "long/train.qfea", "--valid", "long/valid.qfea",
                         "--out", "runs/long", *TRAIN]
    runs = [f"{fe}.{stack}.{precision}" for fe, stack, precision
            in itertools.product(FRONT_ENDS, ("qlstm", "lstm"), ("f32", "f64"))]
    for run in runs:
        fe, stack, precision = run.split(".")
        yield f"train {run}", ["train", "--train", "data/train.qfea", "--valid", "data/valid.qfea",
                               "--out", f"runs/{run}", "--front-end", fe, "--stack", stack,
                               "--precision", precision, *TRAIN]
    for run in runs:
        yield f"eval {run}", ["eval", f"runs/{run}/best.qnn", "--test", "data/test.qfea"]
        yield f"params {run}", ["params", "--config", f"runs/{run}/config.txt"]
    yield "selfcheck", ["selfcheck"]
    yield "selfcheck sign-flip", ["selfcheck", "--inject-sign-flip"]


def run_side(src: Path, work: Path, threads: str | None = None) -> dict:
    """Run every command with src on PYTHONPATH inside work, and with
    OPENBLAS_NUM_THREADS=threads if given; returns the stripped record of
    each, by name."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    records = {}
    for name, args in commands():
        done = subprocess.run([sys.executable, "-m", "qnn.cli", *args], cwd=work, env=env,
                              capture_output=True, text=True)
        text = f"exit={done.returncode}\n{done.stdout}--- stderr\n{done.stderr}"
        records[name] = SECONDS.sub("seconds=", text.replace(str(work), "<work>"))
    return records


def files(work: Path) -> dict:
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}


def differences(base: dict, head: dict, kind: str) -> list:
    return [f"differ: {kind} {name}" + ("" if name in base and name in head else " (one side only)")
            for name in sorted(base.keys() | head.keys()) if base.get(name) != head.get(name)]


def resolve(rev: str) -> str:
    """The commit sha that rev names; exits 2 with one error line if it names none."""
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True)
    if done.returncode:
        print(f"error: {rev!r} is not a revision: {done.stderr.strip()}", file=sys.stderr)
        raise SystemExit(2)
    return done.stdout.strip()


def unpack(sha: str, tree: Path) -> None:
    """Write commit sha's files into the new directory tree (`git archive | tar -x`)."""
    tree.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare this checkout against")
    parser.add_argument("--threads", action="store_true",
                        help="compare one revision at OPENBLAS_NUM_THREADS=1 and =2 instead")
    args = parser.parse_args(argv)
    if not (args.base or args.threads):
        parser.error("give --base, --threads or both")
    sha = resolve(args.base) if args.base else None
    with tempfile.TemporaryDirectory(prefix="same-seed-") as tmp:
        src = ROOT / "src"
        if sha:
            unpack(sha, Path(tmp, "base-tree"))
            src = Path(tmp, "base-tree", "src")
        if args.threads:
            base_records = run_side(src, Path(tmp, "base"), threads="1")
            head_records = run_side(src, Path(tmp, "head"), threads="2")
        else:
            base_records = run_side(src, Path(tmp, "base"))
            head_records = run_side(ROOT / "src", Path(tmp, "head"))
        base_files, head_files = files(Path(tmp, "base")), files(Path(tmp, "head"))
    diffs = differences(base_files, head_files, "file") + differences(base_records, head_records, "record")
    tree = f"{args.base} ({sha[:12]})" if sha else "working tree"
    sides = f"{tree} threads=1 vs threads=2" if args.threads else f"base={tree} head=working tree"
    print("\n".join(diffs + [f"same_seed {sides}: "
                             f"{len(head_files)} files, {len(head_records)} records, {len(diffs)} differ"]))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
