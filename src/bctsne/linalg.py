"""Dense linear-algebra kernel: truncated SVD and pairwise distances.

All routines operate on dense float64 arrays and are pure functions of their
inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError


def ensure_matrix(A, name="matrix"):
    """Coerce to a finite float64 2-D array, raising ValidationError otherwise."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return A


@dataclass(frozen=True)
class SvdResult:
    """Rank-k factorization A ~ U @ diag(S) @ V.T with orthonormal U, V."""

    U: np.ndarray  # n x k
    S: np.ndarray  # k, nonincreasing, >= 0
    V: np.ndarray  # p x k


def _fix_signs(U, V):
    # resolve the sign ambiguity: largest-|entry| coordinate of each left
    # singular vector is made positive, keeping output stable across backends;
    # the vectors have unit norm, so that coordinate is never 0
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    return U * signs, V * signs


def truncated_svd(A, k):
    """Best rank-k factorization of A: LAPACK's thin SVD, truncated to k."""
    A = ensure_matrix(A, "A")
    n, p = A.shape
    if not 1 <= k <= min(n, p):
        raise DomainError(f"k={k} outside valid range [1, {min(n, p)}]")
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    U, V = _fix_signs(U[:, :k], Vt[:k].T)
    return SvdResult(U=U, S=S[:k].copy(), V=V)


def pairwise_sqdist(A):
    """Symmetric matrix of squared Euclidean distances between rows of A."""
    A = ensure_matrix(A, "A")
    # numpy hands A @ A.T to BLAS syrk, whose result is exactly symmetric,
    # only when A has a unit stride; D then needs no symmetrisation
    if A.itemsize not in A.strides:
        A = A.copy()
    sq = np.einsum("ij,ij->i", A, A)
    D = sq[:, None] + sq[None, :] - 2.0 * (A @ A.T)
    np.maximum(D, 0.0, out=D)  # clamp negatives from cancellation
    np.fill_diagonal(D, 0.0)
    return D
