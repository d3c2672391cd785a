"""The package root's public names: those of README's "Library use" block,
the Projector and the error classes.  Everything else is imported from its
own module.  Also what importing the package and its CLI loads, the
settings that calibration and the optimizer's result keep, and errors that
cross a process boundary."""
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
import types

import pytest

import bctsne
from bctsne import CollinearityError, OptimizerError
from bctsne.tsne import EmbeddingState, calibrate_bandwidths

LIBRARY_USE = {"SimSpec", "simulate", "normalize_log1p_cpm", "build_design",
               "pca_reduce", "OptimizerConfig", "run_tsne", "evaluate",
               "MetricsConfig"}
ERRORS = {"BctsneError", "ValidationError", "DomainError", "CollinearityError",
          "OptimizerError", "CalibrationWarning"}


def test_root_exports_the_documented_names_only():
    public = {name for name, value in vars(bctsne).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == LIBRARY_USE | {"Projector"} | ERRORS
    assert len(public) == 16


def test_import_leaves_scipy_stats_unloaded():
    # kBET's p-value comes from scipy.special; scipy.stats would add over half
    # a second to the start of every process that imports the package
    script = ("import sys, bctsne, bctsne.cli\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m == 'scipy.stats' or m.startswith('scipy.stats.')))\n")
    src = os.path.dirname(os.path.dirname(bctsne.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]", out


def test_calibration_and_optimizer_keep_only_what_a_caller_sets():
    # the search's tolerance and step count are module constants, and the
    # optimizer returns the embedding alone
    assert list(inspect.signature(calibrate_bandwidths).parameters) == ["D", "perplexity"]
    assert [f.name for f in dataclasses.fields(EmbeddingState)] == ["Y"]


@pytest.mark.parametrize("error, attribute", [
    (OptimizerError("non-finite gradient", iteration=3), "iteration"),
    (CollinearityError("design is rank deficient", ["batch[b2]"]), "columns"),
], ids=["OptimizerError", "CollinearityError"])
def test_errors_survive_a_pickle_round_trip(error, attribute):
    # pipeline's uncorrected run sends its error from a child process
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert getattr(copy, attribute) == getattr(error, attribute)
