"""Dense linear-algebra kernel: input checks and pairwise distances.

All routines operate on dense float64 arrays and are pure functions of their
inputs.
"""
from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError, ValidationError

# row-blocked loops take 128 rows at a time, so their scratch memory does not
# grow with the number of rows: the simulated counts, the Gaussian rows
# (bandwidth search, input affinities, LISI weights) and the distance rows of
# silhouette and kBET
_BLOCK_ROWS = 128


def ensure_matrix(A, name="matrix"):
    """Coerce to a finite float64 2-D array, raising ValidationError otherwise."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return A


def ensure_index(value, name, low, high=None):
    """value as an int in [low, high] (high None: no upper end); a non-integer
    (even 3.0) or a value out of range raises DomainError naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer; got {value!r}") from None
    if value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise DomainError(f"{name} must be {bounds}; got {value}")
    return value


def pairwise_sqdist(A):
    """Symmetric matrix of squared Euclidean distances between rows of A;
    rows so far apart that a distance overflows float64 raise
    ValidationError."""
    A = ensure_matrix(A, "A")
    # numpy hands A @ A.T to BLAS syrk, whose result is exactly symmetric,
    # only when A has a unit stride; D then needs no symmetrisation
    if A.itemsize not in A.strides:
        A = A.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", A, A)
        D = sq[:, None] + sq[None, :] - 2.0 * (A @ A.T)
    if not np.isfinite(D).all():
        raise ValidationError("squared distances overflow float64")
    np.maximum(D, 0.0, out=D)  # clamp negatives from cancellation
    np.fill_diagonal(D, 0.0)
    return D
