"""Dimensionality reduction front end: exact PCA scores, and the variant
with the batch design's Projector applied to them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .design import Projector
from .errors import ValidationError
from .linalg import ensure_index, ensure_matrix


@dataclass(frozen=True)
class ReducedData:
    """k-dimensional scores plus the variance fraction each direction carries."""

    scores: np.ndarray  # n x k
    explained_variance: np.ndarray  # k fractions of total (centered) variance


def pca_reduce(X, k):
    """Exact truncated PCA scores U_k S_k of the column-centered X.

    The top k eigenvectors of the Gram matrix on the smaller side of Xc
    (Xc Xc^T when n <= p, Xc^T Xc otherwise) span the leading singular
    subspace; a Rayleigh-Ritz step, the thin SVD of Xc restricted to that
    span (k x p or n x k), gives S without squaring the condition number.
    """
    from scipy.linalg import eigh  # on first use: slow to import, and only PCA needs it

    X = ensure_matrix(X, "X")
    if X.shape[0] < 2:
        raise ValidationError("need at least 2 rows")
    Xc = X - X.mean(axis=0)
    if not np.any(Xc):
        raise ValidationError("matrix is constant: no variance left after centering")
    k = ensure_index(k, "k", 1, min(X.shape))
    n, p = Xc.shape
    # A @ A.T is one syrk call, so the Gram matrix is exactly symmetric: its
    # transpose is the same matrix in the Fortran order that LAPACK
    # overwrites in place, without a copy
    gram = Xc @ Xc.T if n <= p else Xc.T @ Xc
    m = gram.shape[0]
    _, W = eigh(gram.T, overwrite_a=True, subset_by_index=[m - k, m - 1])
    del gram
    if n <= p:
        R, S, _ = np.linalg.svd(W.T @ Xc, full_matrices=False)
        U = W @ R
    else:
        U, S, _ = np.linalg.svd(Xc @ W, full_matrices=False)
    # each column's largest-|entry| coordinate (never 0 in a unit vector) is
    # made positive, so the signs are stable across LAPACK backends
    U = U * np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(k)])
    # Xc is not needed any more: square it in place for the total variance
    total = float(np.square(Xc, out=Xc).sum())
    return ReducedData(scores=U * S, explained_variance=S**2 / total)


def residualized_reduce(X, projector, k, *, seed=None):
    """PCA scores of X with the linear association to the batch design
    projected out by its Projector, as build_design returns it.

    run_tsne applies the same projection to its input when it is given the
    Projector; this function gives the corrected scores for other uses.
    explained_variance is that of the PCA directions before the projection.
    seed is ignored: PCA takes none.  It is accepted only because the
    benchmark's workloads still pass one, and goes when they stop.
    """
    if not isinstance(projector, Projector):
        raise ValidationError(
            f"projector must be build_design's Projector; got {type(projector).__name__}"
        )
    reduced = pca_reduce(X, k)
    return replace(reduced, scores=projector.project(reduced.scores))
