"""Gamma-Poisson synthetic scRNA-seq generator with multiplicative batch and
group effects, enough to manufacture batch-confounded cluster structure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import _BLOCK_ROWS, ensure_index, ensure_matrix

_LIB_SIZE_LOCATION = np.log(20000.0)  # log-normal library size per cell
_LIB_SIZE_SCALE = 0.2
_BASE_MEAN_SHAPE = 0.6  # gamma per-gene base mean
_BASE_MEAN_SCALE = 2.0
_CPM_SCALE = 1e4  # normalized counts are per 10,000


@dataclass(frozen=True)
class SimSpec:
    n_cells: int = 800
    n_genes: int = 2000
    n_batches: int = 4
    n_groups: int = 4
    batch_effect_sd: float = 1.0  # log-scale SD of per-(gene, batch) factors
    group_effect_sd: float = 0.35  # log-scale SD of DE factors
    de_prob: float = 0.1  # fraction of genes differentially expressed per group
    seed: int = 0

    def validate(self):
        for name in ("n_cells", "n_genes", "n_batches", "n_groups"):
            ensure_index(getattr(self, name), name, 1)
        if not 0.0 <= self.de_prob <= 1.0:
            raise DomainError("de_prob must lie in [0, 1]")
        for name in ("batch_effect_sd", "group_effect_sd"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be finite and nonnegative")
        ensure_index(self.seed, "seed", 0)


@dataclass(frozen=True)
class SimOutput:
    counts: np.ndarray  # n_cells x n_genes, nonnegative integers
    batch_labels: np.ndarray  # strings b1..bB
    group_labels: np.ndarray  # strings g1..gG


def simulate(spec):
    """Draw a synthetic count matrix with balanced batch/group assignment.

    Per-gene base means are gamma draws; batch and DE group effects enter as
    log-normal multiplicative factors; each cell's expected counts are its
    gene proportions times a log-normal library size, rounded out by a
    Poisson draw.  Fully deterministic per seed.

    The expected counts and their draws are formed 128 cells at a time into
    the one output array, so the scratch memory does not grow with the
    number of cells.  Poisson draws follow C order, so the blocks take the
    same random stream, and give the same counts, as one whole-matrix draw.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n, p = spec.n_cells, spec.n_genes

    base = rng.gamma(_BASE_MEAN_SHAPE, _BASE_MEAN_SCALE, size=p)
    batch_factors = np.exp(
        rng.normal(0.0, spec.batch_effect_sd, size=(spec.n_batches, p))
    )
    de_mask = rng.random((spec.n_groups, p)) < spec.de_prob
    group_factors = np.where(
        de_mask, np.exp(rng.normal(0.0, spec.group_effect_sd, size=(spec.n_groups, p))), 1.0
    )
    lib = rng.lognormal(_LIB_SIZE_LOCATION, _LIB_SIZE_SCALE, size=n)

    (batch_idx, group_idx), (batch_labels, group_labels) = _assignment(spec)

    counts = np.empty((n, p))
    for i in range(0, n, _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        lam = base * batch_factors[batch_idx[rows]]
        lam *= group_factors[group_idx[rows]]
        lam /= lam.sum(axis=1, keepdims=True)  # gene proportions
        lam *= lib[rows, None]
        counts[rows] = rng.poisson(lam)

    return SimOutput(counts=counts, batch_labels=batch_labels, group_labels=group_labels)


def _assignment(spec):
    """simulate(spec)'s batch and group index of each cell, a balanced
    crossed assignment with exact marginals for both labelings, and the
    labels b1, b2, ... and g1, g2, ... that name them."""
    cells = np.arange(spec.n_cells)
    index = cells % spec.n_batches, (cells // spec.n_batches) % spec.n_groups
    return index, [np.array([f"{c}{i + 1}" for i in ix]) for c, ix in zip("bg", index)]


def normalize_log1p_cpm(counts):
    """Counts per 10,000 per cell followed by log(1 + x)."""
    counts = ensure_matrix(counts, "counts")
    if np.any(counts < 0):
        raise ValidationError("counts must be nonnegative")
    totals = counts.sum(axis=1, keepdims=True)
    safe = np.where(totals == 0, 1.0, totals)
    X = counts / safe
    X *= _CPM_SCALE
    return np.log1p(X, out=X)
