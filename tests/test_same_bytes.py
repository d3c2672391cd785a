"""`tools/same_bytes.py` compares `bctsne pipeline`'s bytes between two source
trees; here at one seed, one BLAS thread and a small pipeline, to keep the
suite short.  Its comparison of the acceptance suite's verdict lines is
tested on canned output, without running that suite."""
import shutil
import sys
from pathlib import Path

import numpy as np

import bctsne.tsne

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from same_bytes import acceptance_lines, compare_acceptance, compare_trees  # noqa: E402

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


def test_acceptance_lines_kept_and_their_elapsed_times_masked():
    # pytest -q prints each test's progress dot on the line its verdict follows
    stdout = ("ACCEPTANCE 1: PASS (max relative error 6.46e-08, 0.4s)\n"
              ".ACCEPTANCE 2: PASS (max |Z'Y| 2.43e-12)\n"
              ".wrote run_a/manifest.txt\n"
              "ACCEPTANCE 10: FAIL (3.0s and 104.5s, not 1.5e-3s)\n"
              "16 passed in 27.73s\n")
    assert acceptance_lines(stdout) == [
        "ACCEPTANCE 1: PASS (max relative error 6.46e-08, _s)",
        "ACCEPTANCE 2: PASS (max |Z'Y| 2.43e-12)",
        "ACCEPTANCE 10: FAIL (_s and _s, not 1.5e-3s)",
    ]


def test_compare_acceptance_names_each_line():
    a = ["ACCEPTANCE 1: PASS (x in _s)", "ACCEPTANCE 2: PASS (KL 1.25)"]
    assert compare_acceptance(a, list(a)) == [(line, line, "same") for line in a]
    moved = ["ACCEPTANCE 1: PASS (x in _s)", "ACCEPTANCE 2: PASS (KL 1.26)"]
    assert [row[2] for row in compare_acceptance(a, moved)] == ["same", "differs"]
    assert [row[2] for row in compare_acceptance(a, a[:1])] == ["same", "only in a"]
    assert [row[2] for row in compare_acceptance(a[:1], a)] == ["same", "only in b"]
    # a suite that printed nothing in either tree is not a match
    assert compare_acceptance([], []) == [("", "", "missing")]
