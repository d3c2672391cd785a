"""Dense linear-algebra kernel: truncated SVD and pairwise distances.

All routines operate on dense float64 arrays and are pure functions of their
inputs; determinism for the randomized SVD path is tied to the seed argument.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

# below this min-dimension a full Golub-Kahan SVD is cheap and exact
DENSE_SVD_CEILING = 512
_OVERSAMPLE = 10
_POWER_ITERATIONS = 2


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

    def reconstruct(self):
        return (self.U * self.S) @ self.V.T


def _fix_signs(U, V):
    # resolve the sign ambiguity: largest-|entry| coordinate of each left
    # singular vector is made positive, keeping output stable across backends
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs, V * signs


def truncated_svd(A, k, seed=0):
    """Best rank-k factorization of A.

    Exact (LAPACK full SVD, truncated) when min(n, p) <= DENSE_SVD_CEILING,
    otherwise a seeded randomized range finder with power iterations.
    """
    A = ensure_matrix(A, "A")
    n, p = A.shape
    if not 1 <= k <= min(n, p):
        raise DomainError(f"k={k} outside valid range [1, {min(n, p)}]")

    if min(n, p) <= DENSE_SVD_CEILING:
        U, S, Vt = np.linalg.svd(A, full_matrices=False)
    else:
        rng = np.random.default_rng(seed)
        width = min(k + _OVERSAMPLE, min(n, p))
        Q, _ = np.linalg.qr(A @ rng.standard_normal((p, width)))
        for _ in range(_POWER_ITERATIONS):
            Q, _ = np.linalg.qr(A.T @ Q)
            Q, _ = np.linalg.qr(A @ Q)
        Ub, S, Vt = np.linalg.svd(Q.T @ A, full_matrices=False)
        U = Q @ Ub
    U, V = _fix_signs(U[:, :k], Vt[:k].T)
    return SvdResult(U=U, S=S[:k].copy(), V=V)


def pairwise_sqdist(A):
    """Symmetric matrix of squared Euclidean distances between rows of A."""
    A = ensure_matrix(A, "A")
    sq = np.einsum("ij,ij->i", A, A)
    D = sq[:, None] + sq[None, :] - 2.0 * (A @ A.T)
    np.maximum(D, 0.0, out=D)  # clamp negatives from cancellation
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D
