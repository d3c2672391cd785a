"""Batch-corrected t-SNE: embeddings constrained to be orthogonal to known
batch variables, plus a synthetic data generator and mixing metrics."""

from .design import Projector, build_design
from .errors import (
    BctsneError,
    CalibrationWarning,
    CollinearityError,
    DomainError,
    OptimizerError,
    ValidationError,
)
from .metrics import MetricsConfig, evaluate
from .reduce import pca_reduce
from .simulate import SimSpec, normalize_log1p_cpm, simulate
from .tsne import OptimizerConfig, run_tsne

__version__ = "0.1.0"
