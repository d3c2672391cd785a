"""Embedding-quality metrics: silhouette, kBET-style local chi-squared
acceptance, LISI diversity, and principal-component regression.

Every metric also reports a [0, 1] rescaled value oriented so that 1 means
the labeling is perfectly mixed through the embedding and 0 means perfectly
separated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import Projector, encode_labels
from .errors import DomainError, ValidationError
from .linalg import _BLOCK_ROWS, ensure_index, ensure_matrix, pairwise_sqdist
from .tsne import calibrate_bandwidths, conditional_rows, ensure_perplexity


def silhouette(Y, labels):
    """Mean silhouette width (Euclidean) and its mixing-oriented rescaling.

    rescaled = 1 - |raw|: strong clustering by the labels (raw near +1)
    and strong anti-clustering (raw near -1) both map to 0, while a labeling
    spread uniformly through the embedding (raw near 0) maps to 1.
    """
    Y = ensure_matrix(Y, "Y")
    levels, codes = encode_labels(labels, len(Y))
    return _silhouette(pairwise_sqdist(Y), levels, codes)


def _silhouette(sqdist, levels, codes):
    """silhouette on the embedding's squared distances and encoded labels."""
    n = len(codes)
    if len(levels) < 2:
        raise ValidationError("silhouette needs at least 2 label levels")
    counts = np.bincount(codes, minlength=len(levels))
    if np.any(counts < 2):
        bad = levels[int(np.argmin(counts))]
        raise ValidationError(f"label level {bad!r} has fewer than 2 members")
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


def _chi2_sf(df, x):
    """Upper tail P(chi2_df >= x) of the chi-squared law, for an integer
    df >= 1 and each x >= 0 of a 1-D array.

    It is Q(df/2, x/2), the regularized upper incomplete gamma function.
    Starting from Q(1, y) = exp(-y) (even df) or Q(1/2, y) = erfc(sqrt(y))
    (odd df), each step Q(a + 1, y) = Q(a, y) + y^a exp(-y) / Gamma(a + 1)
    adds a positive term, formed in logs so that no power or factorial
    overflows.
    """
    y = np.asarray(x, dtype=np.float64) / 2.0
    if df % 2:
        a = 0.5
        q = np.fromiter(map(math.erfc, np.sqrt(y).tolist()), np.float64, y.size)
    else:
        a, q = 1.0, np.exp(-y)
    with np.errstate(divide="ignore"):  # log 0 = -inf: every term is 0 at y = 0
        log_y = np.log(y)
    while a < df / 2:
        q += np.exp(a * log_y - y - math.lgamma(a + 1.0))
        a += 1.0
    return q


def kbet_acceptance(Y, batch, knn=None, n_test=None, alpha=0.05, seed=0):
    """Fraction of sampled points whose knn-neighborhood batch composition is
    consistent (chi-squared) with the global batch proportions.

    A point is accepted when its p-value, the chi-squared upper tail of its
    statistic on levels - 1 degrees of freedom, is at least alpha; _chi2_sf
    gives it within a relative 1e-12 of scipy.special.chdtrc.  knn defaults
    to max(10, 5% of n), capped at n - 1.
    """
    Y = ensure_matrix(Y, "Y")
    levels, codes = encode_labels(batch, len(Y))
    knn, n_test, expected = _kbet_settings(levels, codes, knn, n_test, alpha, seed)
    return _kbet(_kbet_neighbours(pairwise_sqdist(Y), knn, n_test, seed), codes, expected, alpha)


def _kbet_settings(levels, codes, knn, n_test, alpha, seed):
    """kbet_acceptance's checks of its encoded batch and settings; returns
    knn and n_test, their defaults filled in, and each level's expected
    count in a neighbourhood."""
    n = len(codes)
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
    expected = np.bincount(codes, minlength=len(levels)) / n * knn
    if np.all(expected < 1):
        raise ValidationError(
            f"knn={knn} too small: every expected neighborhood count < 1"
        )
    return knn, n_test, expected


def _kbet_neighbours(D, knn, n_test, seed):
    """The knn nearest neighbours of each of kBET's sampled points, whose
    squared distances are D: one row per point, n_test x knn (n x knn when
    n_test >= n).  It depends on no labels."""
    n = len(D)
    rng = np.random.default_rng(seed)
    test_idx = (
        np.arange(n) if n_test >= n else rng.choice(n, size=n_test, replace=False)
    )
    neigh = np.empty((len(test_idx), knn), dtype=np.intp)
    for i in range(0, len(test_idx), _BLOCK_ROWS):
        block = test_idx[i : i + _BLOCK_ROWS]
        rows = D[block]
        rows[np.arange(len(block)), block] = np.inf
        neigh[i : i + len(block)] = np.argpartition(rows, knn, axis=1)[:, :knn]
    return neigh


def _kbet(neigh, codes, expected, alpha):
    """kbet_acceptance from the sampled points' neighbours, the encoded batch
    and each level's expected count."""
    n_test, levels = len(neigh), len(expected)
    # row r's neighbours of level c count in bin r * levels + c
    bins = codes[neigh] + levels * np.arange(n_test)[:, None]
    observed = np.bincount(bins.ravel(), minlength=n_test * levels).reshape(n_test, levels)
    stat = np.sum((observed - expected) ** 2 / np.maximum(expected, 1e-12), axis=1)
    accepted = int(np.count_nonzero(_chi2_sf(levels - 1, stat) >= alpha))
    return accepted / n_test


def lisi_weights(sqdist, perplexity=30.0):
    """LISI's neighbour weights: Gaussian conditional probabilities with
    bandwidths calibrated to the perplexity on squared distances sqdist."""
    return conditional_rows(sqdist, calibrate_bandwidths(sqdist, perplexity))


def lisi(Y, labels, perplexity=30.0):
    """Mean inverse Simpson index of labels under perplexity-calibrated
    Gaussian neighbor weights; rescaled to [0, 1] by (mean - 1)/(L - 1)."""
    Y = ensure_matrix(Y, "Y")
    levels, codes = encode_labels(labels, len(Y))
    return _lisi(lisi_weights(pairwise_sqdist(Y), perplexity), levels, codes)


def _lisi(W, levels, codes):
    """lisi under the embedding's weights W = lisi_weights and encoded labels."""
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
    return _pc_regression(M, *encode_labels(labels, M.shape[0]))


def _pc_regression(M, levels, codes):
    """pc_regression of the matrix M on encoded labels."""
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

    The distances, kBET's neighbours and LISI's neighbour weights do not
    depend on the labels, so they are computed once per embedding and shared
    by the labelings.
    """
    Y = ensure_matrix(Y, "Y")
    if not labelings:
        raise ValidationError("need at least one labeling")
    sqdist = pairwise_sqdist(Y)
    neigh = weights = None
    records = []
    for name, labels in labelings.items():
        levels, codes = encode_labels(labels, len(Y))
        sil_raw, sil_resc = _silhouette(sqdist, levels, codes)
        knn, n_test, expected = _kbet_settings(
            levels, codes, cfg.knn, cfg.n_test, cfg.alpha, cfg.seed
        )
        # formed after the first labeling's checks, so errors keep their order
        if neigh is None:
            neigh = _kbet_neighbours(sqdist, knn, n_test, cfg.seed)
            ensure_perplexity(cfg.lisi_perplexity, len(Y), "lisi_perplexity")
            weights = lisi_weights(sqdist, cfg.lisi_perplexity)
        kbet = _kbet(neigh, codes, expected, cfg.alpha)
        lisi_mean, lisi_resc = _lisi(weights, levels, codes)
        pcr = _pc_regression(Y, levels, codes)
        records += [
            (name, "silhouette", sil_raw, sil_resc),
            (name, "kbet", kbet, kbet),
            (name, "lisi", lisi_mean, lisi_resc),
            (name, "pcreg", pcr, pcr),
        ]
    return MetricsReport(records=tuple(records))
