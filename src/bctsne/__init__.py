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
from .linalg import SvdResult, pairwise_sqdist, truncated_svd
from .metrics import (
    MetricsConfig,
    MetricsReport,
    evaluate,
    kbet_acceptance,
    lisi,
    pc_regression,
    silhouette,
)
from .reduce import ReducedData, pca_reduce, residualized_reduce
from .simulate import SimOutput, SimSpec, normalize_log1p_cpm, simulate
from .tsne import (
    AffinityTable,
    EmbeddingState,
    OptimizerConfig,
    TraceRecord,
    calibrate_bandwidths,
    input_affinities,
    kl_gradient,
    run_tsne,
)

__version__ = "0.1.0"
