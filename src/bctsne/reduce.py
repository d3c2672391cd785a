"""Dimensionality reduction front end: plain PCA scores and the
batch-residualized variant that removes linear association with a design
matrix before any embedding is attempted.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .design import Projector
from .errors import ValidationError
from .linalg import ensure_matrix, truncated_svd


@dataclass(frozen=True)
class ReducedData:
    """k-dimensional scores plus the variance fraction each direction carries."""

    scores: np.ndarray  # n x k
    explained_variance: np.ndarray  # k fractions of total (centered) variance


def pca_reduce(X, k):
    """Exact truncated PCA scores of the column-centered X."""
    X = ensure_matrix(X, "X")
    if X.shape[0] < 2:
        raise ValidationError("need at least 2 rows")
    Xc = X - X.mean(axis=0)
    if not np.any(Xc):
        raise ValidationError("matrix is constant: no variance left after centering")
    total = float(np.sum(Xc * Xc))
    res = truncated_svd(Xc, k)
    return ReducedData(scores=res.U * res.S, explained_variance=res.S**2 / total)


def residualized_reduce(X, Z, k, *, seed=None):
    """PCA scores of X with linear association to the design Z projected out.

    Z is the batch design: build_design's Projector, used as is, or a raw
    n x b array, projected off span([1 | Z]) so that group mean differences
    are removed rather than forcing the scores through the origin.  An
    intercept column in a raw Z is absorbed by the Projector's rank-revealing
    SVD.  run_tsne applies the same projection to its input when it is given
    the Projector; this function gives the corrected scores for other uses.
    explained_variance is that of the PCA directions before the projection.
    seed is ignored: PCA takes none.  It is accepted only because the
    benchmark's workloads still pass one, and goes when they stop.
    """
    X = ensure_matrix(X, "X")
    if not isinstance(Z, Projector):
        Z = ensure_matrix(Z, "Z")
        Z = Projector(np.column_stack([np.ones(Z.shape[0]), Z]))
    if Z.Z.shape[0] != X.shape[0]:
        raise ValidationError(
            f"row mismatch: X has {X.shape[0]} rows, Z has {Z.Z.shape[0]}"
        )
    reduced = pca_reduce(X, k)
    return replace(reduced, scores=Z.project(reduced.scores))
