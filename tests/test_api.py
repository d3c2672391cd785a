"""The package root's public names: those of README's "Library use" block,
the Projector and the error classes.  Everything else is imported from its
own module."""
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
