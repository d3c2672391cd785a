"""Batch design encoding and the orthogonal-complement projector: the one
projection used both to residualize PCA scores and inside the optimizer loop.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CollinearityError, ValidationError
from .linalg import ensure_matrix

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class BatchDesign:
    """Dummy-coded design matrix built from categorical batch variables."""

    Z: np.ndarray  # n x b, each column in {0, 1}
    column_names: tuple
    encoding: tuple  # (variable, levels, reference) per input variable
    has_intercept: bool


def level_order(values):
    """Distinct values of a categorical column, in the package's one order."""
    return sorted(set(np.asarray(values).tolist()), key=str)


def _encode_columns(labels):
    """One-hot columns per variable, dropping each variable's first level."""
    columns, names, encoding = [], [], []
    for var, values in labels.items():
        values = np.asarray(values)
        levels = level_order(values)
        encoding.append((var, tuple(levels), levels[0]))
        for level in levels[1:]:
            columns.append((values == level).astype(np.float64))
            names.append(f"{var}[{level}]")
    return columns, names, encoding


def build_design(labels, intercept=True, on_collinear="raise"):
    """Build a full-rank dummy-coded design from categorical label columns.

    labels maps variable name to a length-n sequence of categorical values.
    Rank-deficient encodings (confounded variables) either raise a
    CollinearityError naming the dependent columns or, with
    on_collinear="prune", drop them with a warning.
    """
    if not labels:
        raise ValidationError("need at least one categorical column")
    lengths = {len(v) for v in labels.values()}
    if len(lengths) != 1:
        raise ValidationError("label columns have differing lengths")
    n = lengths.pop()
    if n < 2:
        raise ValidationError("need at least 2 rows")

    columns, names, encoding = _encode_columns(labels)
    if not columns and not intercept:
        raise ValidationError(
            "every variable has a single level and no intercept was requested"
        )
    if intercept:
        columns.insert(0, np.ones(n))
        names.insert(0, "intercept")

    Z = np.column_stack(columns) if columns else np.empty((n, 0))

    # greedy rank filter: keep each column only if it enlarges the span
    kept, dropped = [], []
    basis = np.empty((n, 0))
    for j in range(Z.shape[1]):
        col = Z[:, j]
        resid = col - basis @ (basis.T @ col)
        norm = np.linalg.norm(resid)
        if norm > _RANK_TOL * max(1.0, np.linalg.norm(col)):
            kept.append(j)
            basis = np.column_stack([basis, resid / norm])
        else:
            dropped.append(j)

    if dropped:
        dropped_names = [names[j] for j in dropped]
        pruned = BatchDesign(
            Z=Z[:, kept],
            column_names=tuple(names[j] for j in kept),
            encoding=tuple(encoding),
            has_intercept=intercept,
        )
        message = (
            "collinear design: columns absorbed by earlier ones: "
            + ", ".join(dropped_names)
        )
        if on_collinear == "prune":
            warnings.warn(message)
            return pruned
        raise CollinearityError(message, columns=dropped_names, pruned=pruned)

    return BatchDesign(
        Z=Z,
        column_names=tuple(names),
        encoding=tuple(encoding),
        has_intercept=intercept,
    )


class Projector:
    """Orthogonal projection onto the complement of the design column span.

    The orthonormal basis of span(Z) is cached at construction; projecting is
    then two thin matrix products.  Projection is idempotent and linear.
    The rank-revealing SVD drops dependent columns (such as a second
    intercept), so rank is the dimension of span(Z).
    """

    def __init__(self, design):
        Z = ensure_matrix(getattr(design, "Z", design), "Z")
        self.Z = Z
        if Z.shape[1] == 0:
            self._basis = None
        else:
            U, S, _ = np.linalg.svd(Z, full_matrices=False)
            self._basis = U[:, S > S[0] * 1e-12]
        self.rank = 0 if self._basis is None else self._basis.shape[1]

    def project(self, Y):
        """Return Y minus its component in span(Z)."""
        Y = ensure_matrix(Y, "Y")
        if Y.shape[0] != self.Z.shape[0]:
            raise ValidationError(
                f"row mismatch: Y has {Y.shape[0]} rows, design has {self.Z.shape[0]}"
            )
        if self._basis is None:
            return Y.copy()
        return Y - self._basis @ (self._basis.T @ Y)

    def orthogonality(self, Y):
        """max |Z^T Y|, the residual linear association with the design."""
        if self._basis is None:
            return 0.0
        return float(np.abs(self.Z.T @ Y).max())

