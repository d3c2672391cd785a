"""Batch design encoding and the orthogonal-complement projector: the one
projection used both to residualize PCA scores and inside the optimizer loop.
"""
from __future__ import annotations

import numpy as np

from .errors import CollinearityError, ValidationError
from .linalg import ensure_matrix


def encode_labels(labels, n):
    """(levels, codes) of a column of n categorical values: its distinct values
    sorted by str, the one order that the design, metrics and plot share, and
    each value's index into them."""
    if len(labels) != n:
        raise ValidationError(
            f"labels length {len(labels)} does not match matrix rows {n}"
        )
    values = np.asarray(labels).tolist()
    levels = sorted(set(values), key=str)
    lookup = {lev: i for i, lev in enumerate(levels)}
    return levels, np.array([lookup[x] for x in values], dtype=np.intp)


def build_design(labels):
    """The Projector of the design: an intercept plus one dummy column per
    level of each categorical label column, its first level left out as the
    reference.

    labels maps variable name to a length-n sequence of categorical values.
    A column that leaves the Projector's rank of the columns before it
    unchanged is absorbed by them (confounded variables); any absorbed
    column raises a CollinearityError naming every one.
    """
    if not labels:
        raise ValidationError("need at least one categorical column")
    n = len(next(iter(labels.values())))
    if n < 2:
        raise ValidationError("need at least 2 rows")

    columns, names = [np.ones(n)], ["intercept"]
    for var, values in labels.items():
        levels, codes = encode_labels(values, n)
        for j in range(1, len(levels)):
            columns.append((codes == j).astype(np.float64))
            names.append(f"{var}[{levels[j]}]")
    Z = np.column_stack(columns)

    projector = Projector(Z)
    ranks = [Projector(Z[:, :j]).rank for j in range(Z.shape[1])] + [projector.rank]
    absorbed = [names[j] for j in range(Z.shape[1]) if ranks[j + 1] == ranks[j]]
    if absorbed:
        raise CollinearityError(
            "collinear design: columns absorbed by earlier ones: " + ", ".join(absorbed),
            columns=absorbed,
        )
    return projector


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
        # with no columns, U is n x 0 and S empty: the projection copies Y
        U, S, _ = np.linalg.svd(Z, full_matrices=False)
        self._basis = U[:, S > S.max(initial=0.0) * 1e-12]
        self.rank = self._basis.shape[1]

    def _rows(self, Y):
        Y = ensure_matrix(Y, "Y")
        if Y.shape[0] != self.Z.shape[0]:
            raise ValidationError(
                f"row mismatch: Y has {Y.shape[0]} rows, design has {self.Z.shape[0]}"
            )
        return Y

    def project(self, Y):
        """Return Y minus its component in span(Z)."""
        Y = self._rows(Y)
        return Y - self._basis @ (self._basis.T @ Y)

    def orthogonality(self, Y):
        """max |Z^T Y|, the residual linear association with the design;
        nan for a design with no columns."""
        ZtY = np.abs(self.Z.T @ self._rows(Y))
        return float(ZtY.max()) if ZtY.size else np.nan

