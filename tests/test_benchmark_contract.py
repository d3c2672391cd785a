"""The benchmark's workloads call the library as `perfbench/workloads.py`
does; a call the package no longer accepts fails here instead of only when
the benchmark runs.  Each workload is built at run seed 0, executes its
first input once, and must pass every check it defines."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass(name, tmp_path):
    workload = workloads.WORKLOADS[name](tracer.layer_modules(), 0, tmp_path)
    outputs = [workload.execute(0)]
    quality = workload.quality(outputs)
    checks = workload.checks(outputs)
    assert checks and all(ok for _, ok, _ in checks), checks
    assert set(quality) == {"kl_final", "batch_lisi", "group_sil"}
    names = {check for check, _, _ in checks}
    expected = {"pipeline_n200": {"finite", "orthogonal", "manifest"},
                "embed_n500": {"finite", "orthogonal"},
                "evaluate_n400": {"finite", "planted", "reference"}}[name]
    assert names == expected
