"""The package root's public names: those of README's "Library use" block,
the Projector and the error classes.  Everything else is imported from its
own module.  Also what importing the package and its CLI loads, the
settings that calibration and the optimizer's result keep, and errors that
cross a process boundary."""
import ast
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
import textwrap
import types

import pytest

import bctsne
from bctsne import CollinearityError, OptimizerError, linalg, matrixio, metrics, tsne
from bctsne.metrics import kbet_acceptance, lisi, silhouette
from bctsne.tsne import EmbeddingState, run_tsne

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


def _fresh_modules(script, *args):
    """The sorted scipy modules loaded after script runs in a fresh
    interpreter that imports this checkout's package."""
    script += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    src = os.path.dirname(os.path.dirname(bctsne.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return out.splitlines()[-1]


def test_import_leaves_scipy_unloaded():
    # kBET's p-value is computed in metrics.py and PCA imports scipy.linalg on
    # first use: scipy (scipy.stats above all) would add a quarter of a second
    # or more to the start of every process that imports the package
    assert _fresh_modules("import sys, bctsne, bctsne.cli") == "[]"


def test_generate_evaluate_and_plot_leave_scipy_unloaded(tmp_path):
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from bctsne import cli, matrixio

        counts, labels, emb = sys.argv[1:]
        assert cli.main(["generate", "--cells", "40", "--genes", "30",
                         "--counts-out", counts, "--labels-out", labels]) == 0
        Y = np.random.default_rng(0).normal(size=(40, 2))
        matrixio.write_embedding_csv(Y, [f"cell{i + 1}" for i in range(40)], emb)
        assert cli.main(["evaluate", emb, labels, "--lisi-perplexity", "10",
                         "--out", emb + ".report.csv"]) == 0
        assert cli.main(["plot", emb, labels, "--color-by", "group",
                         "--out", emb + ".svg"]) == 0
    """)
    paths = [str(tmp_path / name) for name in ("counts.csv", "labels.csv", "emb.csv")]
    assert _fresh_modules(script, *paths) == "[]"


def test_pca_loads_scipy_linalg_only():
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from bctsne import pca_reduce

        pca_reduce(np.random.default_rng(0).normal(size=(20, 8)), 3)
    """)
    loaded = ast.literal_eval(_fresh_modules(script))
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.special", "scipy.stats"))]


def test_calibration_and_optimizer_keep_only_what_a_caller_sets():
    # the search's tolerance and step count and the trace cadence are module
    # constants, the optimizer returns the embedding alone, one reader returns
    # labels in the order of the caller's ids, and each metric takes the
    # embedding, never a matrix formed from it by the caller
    def names(f):
        return list(inspect.signature(f).parameters)

    assert names(run_tsne) == ["X", "cfg", "projector", "on_trace"]
    assert names(silhouette) == ["Y", "labels"]
    assert names(kbet_acceptance) == ["Y", "batch", "knn", "n_test", "alpha", "seed"]
    assert names(lisi) == ["Y", "labels", "perplexity"]
    assert [f.name for f in dataclasses.fields(EmbeddingState)] == ["Y"]
    assert not hasattr(matrixio, "align_labels")


def test_no_public_function_takes_a_matrix_the_package_forms():
    # squared distances, LISI's weights and the affinities P are formed by
    # the package alone, so no public function takes one from a caller
    assert not hasattr(tsne, "calibrate_bandwidths")
    assert not hasattr(tsne, "kl_gradient")
    assert not hasattr(metrics, "lisi_weights")
    for module in (tsne, metrics, linalg):
        for name, f in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(f)
                    or f.__module__ != module.__name__):
                continue
            params = set(inspect.signature(f).parameters)
            assert not params & {"D", "P", "sqdist", "W"}, (module.__name__, name)


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
