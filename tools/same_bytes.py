"""Check that a change keeps `bctsne pipeline`'s bytes and the acceptance
suite's verdicts: compare the working tree with a git revision.

    python3 tools/same_bytes.py REV

exports REV's `src/`, `tests/` and `pyproject.toml` (which holds the pytest
settings) with `git archive` into a temporary directory and runs `bctsne
pipeline` at cells=200 (README defaults otherwise), seeds 0-2, at
OPENBLAS_NUM_THREADS 1 and 2, from both trees, each tree against the other at
the same thread count.  It compares the 11 files each run writes and its
stdout, with the output directory's path normalised, and checks that stderr
is empty.  It then runs `pytest -s tests/test_acceptance.py` in each tree at
one BLAS thread (about 30 s a tree) and compares the `ACCEPTANCE n:` lines one
by one, their elapsed times masked.  It prints one line per (seed, threads,
file) and per acceptance line, and exits 1 on any difference.

Both trees run on one host, so the check sees a change's effect on the bytes
at that host's numpy build, SIMD dispatch, BLAS library and core type.  It
cannot tell whether the bytes hold on another CPU class: they need not.
"""
from __future__ import annotations

import argparse
import itertools
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)
THREADS = ("1", "2")
SETTINGS = ("cells=200",)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 600  # per pipeline run and per acceptance run
# pytest -q may print a test's progress dot just before its verdict line
ACCEPTANCE = re.compile(r"ACCEPTANCE \d+:.*")
ELAPSED = re.compile(r"\d+\.\ds")


def run_pipeline(src, outdir, seed, threads, settings):
    """Run `bctsne pipeline` from the package under src into outdir; returns
    ({file name: bytes}, stdout with outdir replaced, stderr)."""
    outdir.mkdir(parents=True)
    config = outdir.parent / f"{outdir.name}.cfg"
    lines = [*settings, f"seed={seed}", f"outdir={outdir}"]
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), **{v: threads for v in THREAD_VARS})
    script = "import sys; from bctsne.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", script, "pipeline", str(config)],
                          env=env, capture_output=True, text=True, timeout=DEADLINE_S)
    files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    return files, proc.stdout.replace(str(outdir), "OUTDIR"), proc.stderr


def compare_trees(src_a, src_b, workdir, seeds=SEEDS, threads=THREADS, settings=SETTINGS):
    """Run the pipeline from the package sources src_a and src_b at each seed
    and thread count; returns rows (seed, threads, name, status), one per file
    written by either tree, one for stdout and one for stderr.  status is
    "same", "differs", "only in a" or "only in b"; for stderr, "empty" when
    both runs wrote nothing to it, else "not empty"."""
    rows = []
    for seed in seeds:
        for count in threads:
            runs = [run_pipeline(Path(src), Path(workdir) / f"{side}-seed{seed}-threads{count}",
                                 seed, count, settings)
                    for side, src in (("a", src_a), ("b", src_b))]
            (files_a, out_a, err_a), (files_b, out_b, err_b) = runs
            for name in sorted(files_a.keys() | files_b.keys()):
                if name not in files_b:
                    status = "only in a"
                elif name not in files_a:
                    status = "only in b"
                else:
                    status = "same" if files_a[name] == files_b[name] else "differs"
                rows.append((seed, count, name, status))
            rows.append((seed, count, "stdout", "same" if out_a == out_b else "differs"))
            rows.append((seed, count, "stderr", "not empty" if err_a or err_b else "empty"))
    return rows


def acceptance_lines(stdout):
    """The `ACCEPTANCE n:` lines of a test run's stdout, elapsed times masked."""
    found = map(ACCEPTANCE.search, stdout.splitlines())
    return [ELAPSED.sub("_s", m.group()) for m in found if m]


def run_acceptance(root):
    """Run tests/test_acceptance.py in the tree root at one BLAS thread;
    returns its ACCEPTANCE lines, elapsed times masked."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"),
               **{v: "1" for v in THREAD_VARS})
    command = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
               "tests/test_acceptance.py"]
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True,
                          timeout=DEADLINE_S)
    return acceptance_lines(proc.stdout)


def compare_acceptance(lines_a, lines_b):
    """Rows (line of a, line of b, status), one per position of either list:
    status is "same", "differs", "only in a" or "only in b"; one row
    ("", "", "missing") when neither run printed an ACCEPTANCE line."""
    if not lines_a and not lines_b:
        return [("", "", "missing")]
    rows = []
    for a, b in itertools.zip_longest(lines_a, lines_b):
        if b is None:
            status = "only in a"
        elif a is None:
            status = "only in b"
        else:
            status = "same" if a == b else "differs"
        rows.append((a or "", b or "", status))
    return rows


def export(rev, dest, paths):
    """Write revision rev's paths under dest with git archive."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev, *paths],
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {rev} failed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        old = Path(tmp)
        export(args.rev, old, ("src", "tests", "pyproject.toml"))
        rows = compare_trees(old / "src", ROOT / "src", Path(tmp) / "runs")
        accepted = compare_acceptance(run_acceptance(old), run_acceptance(ROOT))
    bad = 0
    for seed, threads, name, status in rows:
        bad += status not in ("same", "empty")
        print(f"seed={seed} threads={threads} {name}: {status}")
    for a, b, status in accepted:
        bad += status != "same"
        print(f"{a or b or 'ACCEPTANCE lines'}: {status}")
        if status == "differs":
            print(f"  working tree: {b}")
    total = len(rows) + len(accepted)
    print(f"{total - bad} of {total} identical or empty against {args.rev}, "
          f"in {time.monotonic() - t0:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
