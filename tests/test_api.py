"""The package root's public names: those of README's "Library use" block,
the Projector and the error classes.  Everything else is imported from its
own module.  Also what importing the package and its CLI loads."""
import os
import subprocess
import sys
import types

import bctsne

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
