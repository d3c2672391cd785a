"""t-SNE core: perplexity-calibrated input affinities, Student-t embedding
affinities, KL loss and its analytic gradient, and the momentum optimizer
with optional per-iteration projection onto a linear constraint set.
"""
from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationWarning, DomainError, OptimizerError, ValidationError
from .linalg import ensure_matrix, pairwise_sqdist

PROB_FLOOR = 1e-12
# the bandwidth search works through 128 rows at a time, so its scratch
# memory does not grow with the number of rows
_SEARCH_BLOCK_ROWS = 128
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
        if self.n_iter < 1:
            raise DomainError("n_iter must be >= 1")
        if not 2.0 <= self.perplexity <= n - 1:
            raise DomainError(
                f"perplexity must lie in [2, n - 1]; got {self.perplexity} with n={n}"
            )
        for name in ("eta", "exaggeration_factor"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be positive and finite")
        if self.dims not in (2, 3):
            raise DomainError("dims must be 2 or 3")


@dataclass
class EmbeddingState:
    Y: np.ndarray  # n x q
    gains: np.ndarray


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    kl_loss: float
    orthogonality_maxabs: float  # nan for unconstrained runs


def conditional_rows(D, sigma2):
    """Row-stochastic conditional neighbor probabilities for given bandwidths."""
    logits = -0.5 * D / sigma2[:, None]
    np.fill_diagonal(logits, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    P = np.exp(logits, out=logits)
    P /= P.sum(axis=1, keepdims=True)
    return P


def _warn_caller(message, category):
    """warnings.warn attributed to the first caller outside this package, so
    filters keyed on the caller's module match whichever bctsne function it
    called."""
    frame, stacklevel = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, stacklevel = frame.f_back, stacklevel + 1
    warnings.warn(message, category, stacklevel=stacklevel)


def _offdiag(D, rows):
    """D[rows] without each row's own entry: a new len(rows) x (n - 1) array."""
    return D[rows][np.arange(len(D)) != rows[:, None]].reshape(len(rows), -1)


def _row_perplexities(D, rows, sigma2):
    """Perplexity of the given rows of D (self excluded) under Gaussian
    bandwidths sigma2, one per row."""
    perp = np.empty(len(rows))
    for i in range(0, len(rows), _SEARCH_BLOCK_ROWS):
        block = slice(i, i + _SEARCH_BLOCK_ROWS)
        logits = _offdiag(D, rows[block])
        logits *= -0.5
        logits /= sigma2[block, None]
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits, out=logits)
        p /= p.sum(axis=1, keepdims=True)
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
    for i in range(0, n, _SEARCH_BLOCK_ROWS):
        block = np.arange(i, min(i + _SEARCH_BLOCK_ROWS, n))
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


def input_affinities(X, perplexity, tol=1e-5, max_iter=200):
    """Symmetrized input probabilities p_ij = (p_i|j + p_j|i) / 2n."""
    X = ensure_matrix(X, "X")
    n = X.shape[0]
    if n < 4:
        raise ValidationError("need at least 4 points")
    D = pairwise_sqdist(X)
    sigma2 = calibrate_bandwidths(D, perplexity, tol=tol, max_iter=max_iter)
    cond = conditional_rows(D, sigma2)
    P = (cond + cond.T) / (2.0 * n)
    np.fill_diagonal(P, 0.0)
    return AffinityTable(P=P, sigma2=sigma2)


def _student_t(Y, W, G):
    """Student-t kernel weights 1 / (1 + |y_i - y_j|^2), zero diagonal, written
    into the n x n array W; G is n x n scratch.  Returns W."""
    sq = np.einsum("ij,ij->i", Y, Y)
    np.matmul(Y, Y.T, out=G)
    G *= 2.0
    np.add.outer(sq, sq, out=W)
    W -= G
    np.maximum(W, 0.0, out=W)  # clamp negatives from cancellation
    # Y @ Y.T is exactly symmetric (BLAS syrk fills one triangle and mirrors
    # it), so W needs no symmetrisation
    W += 1.0
    np.divide(1.0, W, out=W)
    np.fill_diagonal(W, 0.0)
    return W


def embedding_affinities(Y):
    """Student-t kernel weights W and globally normalized affinities Q."""
    Y = ensure_matrix(Y, "Y")
    n = Y.shape[0]
    W = _student_t(Y, np.empty((n, n)), np.empty((n, n)))
    Q = W / W.sum()
    return Q, W


def kl_loss(P, Q):
    """KL divergence sum_{i != j} p log(p/q), with 0 log 0 := 0, summed over
    per-entry log ratios held in two n x n temporaries."""
    P = np.asarray(P, dtype=np.float64)
    logratio = np.maximum(P, PROB_FLOOR)
    np.log(logratio, out=logratio)
    logq = np.maximum(Q, PROB_FLOOR)
    logratio -= np.log(logq, out=logq)
    return max(float(np.vdot(P, logratio)), 0.0)


def kl_gradient(P, Y, buffers=None):
    """Analytic gradient 4 sum_j (p_ij - q_ij) w_ij (y_i - y_j).

    buffers, when given, is a pair of distinct C-contiguous n x n float64
    arrays that the pass uses as scratch and overwrites completely, so one
    pair can serve every iteration of a run.
    """
    P = np.asarray(P, dtype=np.float64)
    Y = ensure_matrix(Y, "Y")
    n = Y.shape[0]
    if buffers is None:
        buffers = (np.empty((n, n)), np.empty((n, n)))
    W, M = buffers
    if np.shares_memory(W, M) or any(
        b.shape != (n, n) or b.dtype != np.float64 or not b.flags.c_contiguous
        for b in buffers
    ):
        raise ValidationError(
            f"buffers must be two separate C-contiguous {n} x {n} float64 arrays"
        )
    _student_t(Y, W, M)
    np.divide(W, W.sum(), out=M)  # Q
    np.subtract(P, M, out=M)
    M *= W
    return 4.0 * (M.sum(axis=1)[:, None] * Y - M @ Y)


def run_tsne(X, cfg, projector=None, on_trace=None, trace_every=50):
    """Full optimization loop over the configured number of iterations.

    The embedding starts as Normal(0, 1e-4) with cfg.seed and follows the
    schedule that OptimizerConfig describes; a projector (when given)
    re-imposes the linear constraint after every step.  Trace records are
    emitted through on_trace every trace_every iterations and at the last.
    """
    X = ensure_matrix(X, "X")
    n = X.shape[0]
    cfg.validate(n)
    if projector is not None and n - projector.rank < cfg.dims + 1:
        raise DomainError(
            f"design of rank {projector.rank} leaves {n - projector.rank} of {n} "
            f"dimensions free; a {cfg.dims}-D embedding needs {cfg.dims + 1}"
        )
    P = input_affinities(X, cfg.perplexity).P

    rng = np.random.default_rng(cfg.seed)
    Y = 1e-4 * rng.standard_normal((n, cfg.dims))
    if projector is not None:
        Y = projector.project(Y)
    Y_prev, gains = Y.copy(), np.ones_like(Y)

    P_early = P * cfg.exaggeration_factor
    W, G = buffers = (np.empty((n, n)), np.empty((n, n)))  # kernel scratch
    for t in range(cfg.n_iter):
        early = t < _EARLY_ITERS
        grad = kl_gradient(P_early if early else P, Y, buffers)
        if not np.isfinite(grad).all():
            raise OptimizerError("non-finite gradient", iteration=t)
        velocity = Y - Y_prev
        gains = np.where(np.sign(grad) == np.sign(velocity), gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, _MIN_GAIN)
        alpha = _MOMENTUM_EARLY if early else _MOMENTUM_LATE
        Y, Y_prev = Y - cfg.eta * gains * grad + alpha * velocity, Y
        # no explicit re-centering: the gradient rows sum to zero, so the
        # embedding mean stays at its initial value (and an identity
        # projector run matches an unprojected run exactly)
        if projector is not None:
            Y = projector.project(Y)
        if on_trace is not None and (t % trace_every == 0 or t == cfg.n_iter - 1):
            # the new iterate's Q, computed in the kernel's own buffers
            _student_t(Y, W, G)
            W /= W.sum()
            orth = projector.orthogonality(Y) if projector is not None else np.nan
            on_trace(TraceRecord(t, kl_loss(P, W), orth))
    return EmbeddingState(Y=Y, gains=gains)
