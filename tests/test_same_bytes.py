"""`tools/same_bytes.py` compares `bctsne pipeline`'s bytes between two source
trees; here at one seed, one BLAS thread and a small pipeline, to keep the
suite short."""
import shutil
import sys
from pathlib import Path

import numpy as np

import bctsne.tsne

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from same_bytes import compare_trees  # noqa: E402

SRC = Path(bctsne.__file__).resolve().parents[1]
# 260 iterations pass iteration 250, where the late momentum takes over
SETTINGS = ("cells=60", "genes=200", "iters=260")


def copy_src(dest):
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_compare_trees_finds_a_copy_equal_and_names_what_one_ulp_moves(tmp_path):
    def compare(other, tag):
        rows = compare_trees(SRC, other, tmp_path / tag, seeds=(0,), threads=("1",),
                             settings=SETTINGS)
        assert {(seed, threads) for seed, threads, _, _ in rows} == {(0, "1")}
        return {name: status for _, _, name, status in rows}

    equal = compare(copy_src(tmp_path / "copy"), "equal")
    # the 11 files, stdout and stderr
    assert len(equal) == 13, equal
    assert set(equal.values()) == {"same", "empty"} and equal["stderr"] == "empty", equal

    # every late step reads _MOMENTUM_LATE, so one ulp more moves both runs
    tsne = copy_src(tmp_path / "mutant") / "bctsne" / "tsne.py"
    late = bctsne.tsne._MOMENTUM_LATE
    line = f"_MOMENTUM_LATE = {late!r}\n"
    text = tsne.read_text(encoding="utf-8")
    assert text.count(line) == 1
    tsne.write_text(text.replace(line, f"_MOMENTUM_LATE = {float(np.nextafter(late, 1.0))!r}\n"),
                    encoding="utf-8")
    moved = compare(tsne.parents[1], "mutant")
    assert moved.keys() == equal.keys(), moved
    for tag in ("corrected", "uncorrected"):
        for name in (f"embedding_{tag}.csv", f"embedding_{tag}.trace.csv"):
            assert moved[name] == "differs", moved
    assert moved["manifest.txt"] == "differs", moved
    for name in ("counts.csv", "labels.csv", "stdout"):
        assert moved[name] == "same", moved
    assert moved["stderr"] == "empty", moved
