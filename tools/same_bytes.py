"""Check that a change keeps `bctsne pipeline`'s bytes: compare the working
tree with a git revision.

    python3 tools/same_bytes.py REV

exports REV's `src/` with `git archive` into a temporary directory and runs
`bctsne pipeline` at cells=200 (README defaults otherwise), seeds 0-2, at
OPENBLAS_NUM_THREADS 1 and 2, from both trees, each tree against the other at
the same thread count.  It compares the 11 files each run writes and its
stdout, with the output directory's path normalised, and checks that stderr
is empty.  It prints one line per (seed, threads, file) and exits 1 on any
difference.
"""
from __future__ import annotations

import argparse
import os
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
DEADLINE_S = 600  # per pipeline run


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


def export_src(rev, dest):
    """Write revision rev's src/ under dest with git archive; returns its path."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {rev} failed")
    return Path(dest) / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        rows = compare_trees(export_src(args.rev, tmp), ROOT / "src", Path(tmp) / "runs")
    bad = 0
    for seed, threads, name, status in rows:
        bad += status not in ("same", "empty")
        print(f"seed={seed} threads={threads} {name}: {status}")
    print(f"{len(rows) - bad} of {len(rows)} identical or empty against {args.rev}, "
          f"in {time.monotonic() - t0:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
