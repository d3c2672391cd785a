"""Embedding-quality metrics: silhouette, kBET-style local chi-squared
acceptance, LISI diversity, and principal-component regression.

Every metric also reports a [0, 1] rescaled value oriented so that 1 means
the labeling is perfectly mixed through the embedding and 0 means perfectly
separated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .design import Projector, encode_labels
from .errors import DomainError, ValidationError
from .linalg import ensure_index, ensure_matrix, pairwise_sqdist
from .tsne import _BLOCK_ROWS, calibrate_bandwidths, conditional_rows, ensure_perplexity


def _precomputed(given, n, compute):
    """A label-independent n x n matrix: the caller's, checked, or compute()."""
    if given is None:
        return compute()
    given = np.asarray(given, dtype=np.float64)
    if given.shape != (n, n):
        raise ValidationError(
            f"precomputed matrix has shape {given.shape}; Y has {n} rows"
        )
    return given


def silhouette(Y, labels, *, sqdist=None):
    """Mean silhouette width (Euclidean) and its mixing-oriented rescaling.

    rescaled = 1 - |raw|: strong clustering by the labels (raw near +1)
    and strong anti-clustering (raw near -1) both map to 0, while a labeling
    spread uniformly through the embedding (raw near 0) maps to 1.
    sqdist, when given, is pairwise_sqdist(Y).
    """
    Y = ensure_matrix(Y, "Y")
    n = len(Y)
    levels, codes = encode_labels(labels, n)
    if len(levels) < 2:
        raise ValidationError("silhouette needs at least 2 label levels")
    counts = np.bincount(codes, minlength=len(levels))
    if np.any(counts < 2):
        bad = levels[int(np.argmin(counts))]
        raise ValidationError(f"label level {bad!r} has fewer than 2 members")
    sqdist = _precomputed(sqdist, n, lambda: pairwise_sqdist(Y))
    onehot = np.eye(len(levels))[codes]
    sums = np.empty((n, len(levels)))  # total distance to each level
    for i in range(0, n, _BLOCK_ROWS):
        sums[i : i + _BLOCK_ROWS] = np.sqrt(sqdist[i : i + _BLOCK_ROWS]) @ onehot
    a = sums[np.arange(n), codes] / (counts[codes] - 1)
    means = sums / counts[None, :]
    means[np.arange(n), codes] = np.inf
    b = means.min(axis=1)
    s = (b - a) / np.maximum(a, b)
    raw = float(s.mean())
    return raw, 1.0 - abs(raw)


def kbet_acceptance(
    Y, batch, knn=None, n_test=None, alpha=0.05, seed=0, *, sqdist=None
):
    """Fraction of sampled points whose knn-neighborhood batch composition is
    consistent (chi-squared) with the global batch proportions.

    knn defaults to max(10, 5% of n), capped at n - 1.  sqdist, when given,
    is pairwise_sqdist(Y).
    """
    Y = ensure_matrix(Y, "Y")
    n = Y.shape[0]
    levels, codes = encode_labels(batch, n)
    if len(levels) < 2:
        raise ValidationError("kBET needs at least 2 batch levels")
    if knn is None:
        knn = min(max(10, int(0.05 * n)), n - 1)
    if n_test is None:
        n_test = min(500, n)
    ensure_index(knn, "knn", ValidationError, 1, n - 1)
    ensure_index(n_test, "n_test", ValidationError, 1)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} must lie in (0, 1)")
    ensure_index(seed, "seed", ValidationError, 0)
    props = np.bincount(codes, minlength=len(levels)) / n
    expected = props * knn
    if np.all(expected < 1):
        raise ValidationError(
            f"knn={knn} too small: every expected neighborhood count < 1"
        )
    rng = np.random.default_rng(seed)
    test_idx = (
        np.arange(n) if n_test >= n else rng.choice(n, size=n_test, replace=False)
    )
    D = _precomputed(sqdist, n, lambda: pairwise_sqdist(Y))
    observed = np.empty((len(test_idx), len(levels)), dtype=np.int64)
    for i in range(0, len(test_idx), _BLOCK_ROWS):
        block = test_idx[i : i + _BLOCK_ROWS]
        rows = D[block]
        rows[np.arange(len(block)), block] = np.inf
        # a copy, so the whole len(block) x n index array is freed here
        neigh = np.argpartition(rows, knn, axis=1)[:, :knn].copy()
        observed[i : i + len(block)] = np.sum(
            codes[neigh][:, :, None] == np.arange(len(levels)), axis=1
        )
    stat = np.sum((observed - expected) ** 2 / np.maximum(expected, 1e-12), axis=1)
    accepted = int(np.count_nonzero(chdtrc(len(levels) - 1, stat) >= alpha))
    return accepted / len(test_idx)


def lisi_weights(sqdist, perplexity=30.0):
    """LISI's neighbour weights: Gaussian conditional probabilities with
    bandwidths calibrated to the perplexity on squared distances sqdist."""
    return conditional_rows(sqdist, calibrate_bandwidths(sqdist, perplexity))


def lisi(Y, labels, perplexity=30.0, *, weights=None):
    """Mean inverse Simpson index of labels under perplexity-calibrated
    Gaussian neighbor weights; rescaled to [0, 1] by (mean - 1)/(L - 1).

    weights, when given, is lisi_weights(pairwise_sqdist(Y), perplexity);
    perplexity is then ignored, since the weights already fix it.
    """
    Y = ensure_matrix(Y, "Y")
    levels, codes = encode_labels(labels, len(Y))
    W = _precomputed(
        weights, len(Y), lambda: lisi_weights(pairwise_sqdist(Y), perplexity)
    )
    onehot = np.eye(len(levels))[codes]
    per_level = W @ onehot
    simpson = np.sum(per_level**2, axis=1)
    mean_raw = float(np.mean(1.0 / simpson))
    if len(levels) == 1:
        return mean_raw, 0.0
    return mean_raw, (mean_raw - 1.0) / (len(levels) - 1.0)


def pc_regression(M, labels):
    """Variance-weighted R^2 of the principal components of M regressed on
    the label dummies.

    Weighted by the variances S_k^2, the components' fitted sums of squares
    add up to that of the centered M itself, since the components are M's
    centered columns rotated by an orthogonal V.  So the R^2 is
    |fitted(M_c)|^2 / |M_c|^2, and no SVD is needed.
    """
    M = ensure_matrix(M, "M")
    levels, codes = encode_labels(labels, M.shape[0])
    if len(levels) < 2:
        raise ValidationError("pc_regression needs at least 2 label levels")
    Mc = M - M.mean(axis=0)
    ss_tot = np.vdot(Mc, Mc)
    if not ss_tot > 1e-24:  # |M_c| <= 1e-12
        raise ValidationError("matrix has no variance")
    # the one-hot columns span the same space as [1 | dummies]
    fitted = Mc - Projector(np.eye(len(levels))[codes]).project(Mc)
    return float(np.vdot(fitted, fitted) / ss_tot)


@dataclass(frozen=True)
class MetricsConfig:
    knn: int | None = None
    n_test: int | None = None
    alpha: float = 0.05
    lisi_perplexity: float = 30.0
    seed: int = 0


@dataclass(frozen=True)
class MetricsReport:
    records: tuple  # (labeling, metric, raw, rescaled), four per labeling

    def rows(self):
        """CSV rows: labeling, metric, raw, rescaled."""
        return list(self.records)

    def format_table(self):
        """One line per labeling with its four rescaled values."""
        rescaled = {}
        for labeling, _metric, _raw, value in self.records:
            rescaled.setdefault(labeling, []).append(value)
        lines = [
            f"{'labeling':<12} {'SIL':>8} {'kBET':>8} {'LISI':>8} {'PcReg':>8}"
        ]
        for labeling, values in rescaled.items():
            lines.append(f"{labeling:<12} " + " ".join(f"{v:>8.3f}" for v in values))
        return "\n".join(lines)


def evaluate(Y, labelings, cfg=MetricsConfig()):
    """Run all four metrics for every named labeling.

    The distances and LISI's neighbour weights do not depend on the labels,
    so they are computed once per embedding and shared by the labelings.
    """
    Y = ensure_matrix(Y, "Y")
    sqdist = pairwise_sqdist(Y)
    weights = None
    records = []
    for name, labels in labelings.items():
        sil_raw, sil_resc = silhouette(Y, labels, sqdist=sqdist)
        kbet = kbet_acceptance(
            Y, labels, knn=cfg.knn, n_test=cfg.n_test, alpha=cfg.alpha, seed=cfg.seed,
            sqdist=sqdist,
        )
        # computed after the first labeling's checks, so errors keep their order
        if weights is None:
            ensure_perplexity(cfg.lisi_perplexity, len(Y), "lisi_perplexity")
            weights = lisi_weights(sqdist, cfg.lisi_perplexity)
        lisi_mean, lisi_resc = lisi(Y, labels, cfg.lisi_perplexity, weights=weights)
        pcr = pc_regression(Y, labels)
        records += [
            (name, "silhouette", sil_raw, sil_resc),
            (name, "kbet", kbet, kbet),
            (name, "lisi", lisi_mean, lisi_resc),
            (name, "pcreg", pcr, pcr),
        ]
    return MetricsReport(records=tuple(records))
