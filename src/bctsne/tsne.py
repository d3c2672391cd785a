"""t-SNE core: perplexity-calibrated input affinities, the tiled Student-t
kernel that sums the KL gradient (and the trace's KL) without an n x n
array, and the momentum optimizer with optional per-iteration projection
onto a linear constraint set.
"""
from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .design import Projector
from .errors import CalibrationWarning, DomainError, OptimizerError, ValidationError
from .linalg import ensure_index, ensure_matrix, pairwise_sqdist

PROB_FLOOR = 1e-12
# the Gaussian rows (bandwidth search, input affinities, LISI weights) are
# formed 128 at a time, so their scratch memory does not grow with the
# number of rows
_BLOCK_ROWS = 128
# the exact kernel works through tiles of at most 64 rows x 512 columns, so
# its scratch memory does not grow with the number of rows; each BLAS product
# in a tile is then at most 64 x 512 x 4 multiply-adds, below the size at
# which OpenBLAS splits a product across threads, and the kernel's result
# does not depend on the BLAS thread count
_TILE_ROWS = 64
_TILE_COLS = 512
_EARLY_ITERS = 250
_MOMENTUM_EARLY = 0.5
_MOMENTUM_LATE = 0.8
_MIN_GAIN = 0.01
_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


@dataclass(frozen=True)
class AffinityTable:
    """Fixed symmetric input probabilities and the bandwidths behind them."""

    P: np.ndarray  # n x n symmetric, zero diagonal, sums to 1
    sigma2: np.ndarray  # n per-point Gaussian bandwidths


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of `run_tsne`.  Its schedule is fixed, as in van der Maaten &
    Hinton (2008, JMLR 9): exaggeration_factor and momentum 0.5 for the first
    250 iterations (_EARLY_ITERS), momentum 0.8 after, and adaptive gains
    (+0.2 or x0.8 per coordinate) floored at 0.01."""

    n_iter: int = 1000
    perplexity: float = 30.0
    eta: float = 200.0
    exaggeration_factor: float = 12.0
    dims: int = 2
    seed: int = 0

    def validate(self, n):
        ensure_index(self.n_iter, "n_iter", DomainError, 1)
        if not 2.0 <= self.perplexity <= n - 1:
            raise DomainError(
                f"perplexity must lie in [2, n - 1]; got {self.perplexity} with n={n}"
            )
        for name in ("eta", "exaggeration_factor"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be positive and finite")
        ensure_index(self.dims, "dims", DomainError, 2, 3)
        ensure_index(self.seed, "seed", DomainError, 0)


@dataclass
class EmbeddingState:
    Y: np.ndarray  # n x q
    gains: np.ndarray


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    kl_loss: float
    orthogonality_maxabs: float  # nan for unconstrained runs


def _warn_caller(message, category):
    """warnings.warn attributed to the first caller outside this package, so
    filters keyed on the caller's module match whichever bctsne function it
    called."""
    frame, stacklevel = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, stacklevel = frame.f_back, stacklevel + 1
    warnings.warn(message, category, stacklevel=stacklevel)


def _offdiag(D, rows):
    """D[rows] without each row's own entry: a new len(rows) x (n - 1) array,
    from which the bandwidth search takes its start values."""
    return D[rows][np.arange(len(D)) != rows[:, None]].reshape(len(rows), -1)


def _gaussian_rows(D, rows, sigma2, out=None):
    """Rows `rows` of D (a slice or index array) as Gaussian conditional
    probabilities p_j|i = exp(-d_ij / 2 sigma2_i) / sum_{k != i} exp(-d_ik /
    2 sigma2_i), with p_i|i = 0 and sigma2 one per row; written into out, a
    len(sigma2) x n array, when given.

    The package's one Gaussian softmax: the bandwidth search, the input
    affinities and LISI's weights all take their rows from it.  Each row keeps
    all n entries, its own logit set to -inf, so no row is copied to drop it.
    """
    own = np.arange(D.shape[1])[rows]
    logits = np.multiply(D[rows], -0.5, out=out)
    logits /= sigma2[:, None]
    logits[np.arange(len(own)), own] = -np.inf
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits, out=logits)
    p /= p.sum(axis=1, keepdims=True)
    return p


def conditional_rows(D, sigma2):
    """Row-stochastic conditional neighbor probabilities for given bandwidths,
    formed block by block in the one n x n array returned."""
    P = np.empty(D.shape)
    for i in range(0, D.shape[0], _BLOCK_ROWS):
        block = slice(i, i + _BLOCK_ROWS)
        _gaussian_rows(D, block, sigma2[block], out=P[block])
    return P


def _row_perplexities(D, rows, sigma2):
    """Perplexity of the given rows of D (self excluded) under Gaussian
    bandwidths sigma2, one per row."""
    perp = np.empty(len(rows))
    for i in range(0, len(rows), _BLOCK_ROWS):
        block = slice(i, i + _BLOCK_ROWS)
        p = _gaussian_rows(D, rows[block], sigma2[block])
        logp = np.maximum(p, PROB_FLOOR)
        np.log(logp, out=logp)
        logp *= p
        perp[block] = np.exp(-np.sum(logp, axis=1))
    return perp


def calibrate_bandwidths(D, perplexity, tol=1e-5, max_iter=200):
    """Per-point bandwidth sigma^2 matching the target perplexity.

    Binary search over log(sigma^2) with expanding brackets, run on all rows
    at once; a row leaves the search when its achieved perplexity is within
    tol of the target, and the search ends after max_iter steps.  Rows still
    off target then issue a CalibrationWarning; their sigma^2 is returned as
    the search left it.
    """
    D = ensure_matrix(D, "D")
    n = D.shape[0]
    if D.shape[1] != n:
        raise ValidationError("distance matrix must be square")
    if not 2.0 <= perplexity <= n - 1:
        raise DomainError(f"perplexity must lie in [2, n - 1]; got {perplexity}")
    start = np.empty(n)
    for i in range(0, n, _BLOCK_ROWS):
        block = np.arange(i, min(i + _BLOCK_ROWS, n))
        d = _offdiag(D, block)
        duplicates = block[np.all(d == 0, axis=1)]
        if duplicates.size:
            raise ValidationError(
                f"row {duplicates[0]} has zero distance to every other point "
                "(duplicates)"
            )
        positive = d > 0
        start[block] = d.mean(axis=1)
        for j in np.flatnonzero(~positive.all(axis=1)):
            start[block[j]] = d[j][positive[j]].mean()
    x = np.log(start)
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    active = np.arange(n)
    for _ in range(max_iter):
        perp = _row_perplexities(D, active, np.exp(x[active]))
        searching = ~(np.abs(perp - perplexity) < tol)
        active, perp = active[searching], perp[searching]
        if not active.size:
            break
        xa, lo_a, hi_a = x[active], lo[active], hi[active]
        wide = perp > perplexity  # bandwidth too wide
        hi[active] = np.where(wide, xa, hi_a)
        lo[active] = np.where(wide, lo_a, xa)
        x[active] = np.where(
            wide,
            np.where(np.isfinite(lo_a), (lo_a + xa) / 2.0, xa - 1.0),
            np.where(np.isfinite(hi_a), (xa + hi_a) / 2.0, xa + 1.0),
        )
    sigma2 = np.exp(x)
    if active.size:
        miss = np.abs(_row_perplexities(D, active, sigma2[active]) - perplexity)
        off = ~(miss < tol)
        if off.any():
            _warn_caller(
                f"{int(off.sum())} of {n} rows missed perplexity {perplexity} by "
                f"tol={tol} or more after {max_iter} bisection steps; worst "
                f"|perplexity - target| = {miss[off].max():.3g}",
                CalibrationWarning,
            )
    return sigma2


def input_affinities(X, perplexity):
    """Symmetrized input probabilities p_ij = (p_i|j + p_j|i) / 2n.

    Entries below the smallest normal float64 are set to 0: they carry less
    than full precision, and every product with one is many times slower,
    which would slow the kernel's P o w wherever distant points underflow.
    """
    X = ensure_matrix(X, "X")
    n = X.shape[0]
    if n < 4:
        raise ValidationError("need at least 4 points")
    D = pairwise_sqdist(X)
    sigma2 = calibrate_bandwidths(D, perplexity)
    cond = conditional_rows(D, sigma2)
    del D  # at most two n x n arrays are alive at any time
    P = cond + cond.T
    del cond
    P /= 2.0 * n
    P[P < np.finfo(np.float64).tiny] = 0.0
    return AffinityTable(P=P, sigma2=sigma2)


def _tiles(Y):
    """Student-t weights w_ij = 1 / (1 + |y_i - y_j|^2), tile by tile.

    Yields (I, J, k, tile) for every row tile I and every panel J of the
    columns from I's first row on, so each pair i != j is seen once or, inside
    the tile's own rows, twice.  tile is 3 x len(I) x len(J): tile[2] holds w,
    zero where i == j, and tile[0] and tile[1] are scratch.  The first k
    columns are I's own rows (k = 0 when J starts past I), so the pairs in
    [:, :k] appear in both orders and those in [:, k:] once.  Every tile is a
    view of one array, so the caller may overwrite it but not keep it.
    """
    n = Y.shape[0]
    sq = np.einsum("ij,ij->i", Y, Y)
    # BLAS forms 1 + |y_i|^2 + |y_j|^2 exactly as the sum (1 + |y_i|^2) + |y_j|^2
    # from the two-column factors [1 + |y_i|^2, 1] and [1, |y_j|^2], faster
    # than a broadcast sum
    left, right = np.ones((2, n, 2))
    left[:, 0] = sq + 1.0
    right[:, 1] = sq
    Y2 = 2.0 * Y
    buf = np.empty(3 * min(n, _TILE_ROWS) * min(n, _TILE_COLS))
    for i0 in range(0, n, _TILE_ROWS):
        I = slice(i0, min(i0 + _TILE_ROWS, n))
        for j0 in range(i0, n, _TILE_COLS):
            J = slice(j0, min(j0 + _TILE_COLS, n))
            # contiguous, so that numpy's loops need no buffers of their own
            shape = (3, I.stop - i0, J.stop - j0)
            tile = buf[: shape[0] * shape[1] * shape[2]].reshape(shape)
            w = tile[2]
            np.matmul(left[I], right[J].T, out=w)
            w -= np.matmul(Y2[I], Y[J].T, out=tile[0])
            np.maximum(w, 1.0, out=w)  # clamp distances below 0 from cancellation
            np.divide(1.0, w, out=w)
            k = 0
            if j0 == i0:
                k = I.stop - i0
                w.flat[:: w.shape[1] + 1] = 0.0  # w[i, i]; len(I) <= len(J)
            yield I, J, k, tile


def _as_pair(P, Y):
    """P and Y as float64 arrays, with P n x n for the n rows of Y."""
    P = np.asarray(P, dtype=np.float64)
    Y = ensure_matrix(Y, "Y")
    n = Y.shape[0]
    if P.shape != (n, n):
        raise ValidationError(f"P must be {n} x {n} to match Y; got {P.shape}")
    return P, Y


def _embedding_kl(P, Y):
    """KL(P || Q) for the Student-t affinities Q of the embedding Y, summed
    tile by tile as sum p (log p - log w) + log Z sum p, so no n x n array is
    built.  p is floored at PROB_FLOOR inside the log; q is not, since w > 0
    for every finite Y.  P must be symmetric."""
    P, Y = _as_pair(P, Y)
    Z = plogpw = 0.0
    for I, J, k, (term, _, w) in _tiles(Y):
        p = P[I, J]
        Z += w.sum() + w[:, k:].sum()
        if k:
            np.fill_diagonal(w, 1.0)  # log 1 = 0 where p_ii = 0
        np.maximum(p, PROB_FLOOR, out=term)
        np.log(term, out=term)
        term -= np.log(w, out=w)
        term *= p
        plogpw += term.sum() + term[:, k:].sum()
    return max(float(plogpw + P.sum() * np.log(Z)), 0.0)


def kl_gradient(P, Y, exaggeration=1.0):
    """t-SNE gradient 4 sum_j (exaggeration * p_ij - q_ij) w_ij (y_i - y_j),
    which at exaggeration 1 is the gradient of KL(P || Q) in Y.

    One pass over the tiles of `_tiles` sums it as 4 (exaggeration A - R / Z),
    with A_i = sum_j p_ij w_ij (y_i - y_j), R_i = sum_j w_ij^2 (y_i - y_j) and
    Z = sum_{i != j} w_ij (van der Maaten 2014, JMLR 15), so no n x n array is
    built.  P must be symmetric: the pass reads it only in the tiles at and
    above the diagonal, and uses each p_ij for both row i and row j.
    """
    P, Y = _as_pair(P, Y)
    n, dims = Y.shape
    Y1 = np.ones((n, dims + 1))
    Y1[:, :dims] = Y
    # [P o w], [w o w] and w times [Y | 1], row by row: the last column holds
    # the row sums, and the w rows' last column sums to Z
    acc = np.zeros((3, n, dims + 1))
    for I, J, k, tile in _tiles(Y):
        np.multiply(P[I, J], tile[2], out=tile[0])
        np.multiply(tile[2], tile[2], out=tile[1])
        acc[:, I] += tile @ Y1[J]
        # the pairs seen once also count for their column's row
        if J.start + k < J.stop:
            acc[:, J.start + k : J.stop] += tile[:, :, k:].transpose(0, 2, 1) @ Y1[I]
    attract, repulse, weights = acc
    coef = (4.0 * exaggeration) * attract - repulse / (weights[:, -1].sum() / 4.0)
    return coef[:, -1:] * Y - coef[:, :-1]


def run_tsne(X, cfg, projector=None, on_trace=None, trace_every=50):
    """Full optimization loop over the configured number of iterations.

    The embedding starts as Normal(0, 1e-4) with cfg.seed and follows the
    schedule that OptimizerConfig describes.  The projector (for plain t-SNE,
    the empty design's, an exact copy) projects X before the affinities are
    calibrated, and every iterate.  Trace records are emitted through
    on_trace every trace_every iterations and at the last.
    """
    X = ensure_matrix(X, "X")
    n = X.shape[0]
    cfg.validate(n)
    ensure_index(trace_every, "trace_every", DomainError, 1)
    if projector is None:
        projector = Projector(np.empty((n, 0)))
    # projecting checks the design's row count before its rank is read
    X = projector.project(X)
    if n - projector.rank < cfg.dims + 1:
        raise DomainError(
            f"design of rank {projector.rank} leaves {n - projector.rank} of {n} "
            f"dimensions free; a {cfg.dims}-D embedding needs {cfg.dims + 1}"
        )
    P = input_affinities(X, cfg.perplexity).P

    rng = np.random.default_rng(cfg.seed)
    Y = projector.project(1e-4 * rng.standard_normal((n, cfg.dims)))
    Y_prev, gains = Y.copy(), np.ones_like(Y)

    for t in range(cfg.n_iter):
        early = t < _EARLY_ITERS
        grad = kl_gradient(P, Y, cfg.exaggeration_factor if early else 1.0)
        if not np.isfinite(grad).all():
            raise OptimizerError("non-finite gradient", iteration=t)
        velocity = Y - Y_prev
        gains = np.where(np.sign(grad) == np.sign(velocity), gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, _MIN_GAIN)
        alpha = _MOMENTUM_EARLY if early else _MOMENTUM_LATE
        Y, Y_prev = Y - cfg.eta * gains * grad + alpha * velocity, Y
        # no explicit re-centering: the gradient rows sum to zero, so the
        # embedding mean stays at its initial value
        Y = projector.project(Y)
        if on_trace is not None and (t % trace_every == 0 or t == cfg.n_iter - 1):
            on_trace(TraceRecord(t, _embedding_kl(P, Y), projector.orthogonality(Y)))
    return EmbeddingState(Y=Y, gains=gains)
