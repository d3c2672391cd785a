"""t-SNE core: perplexity-calibrated input affinities, Student-t embedding
affinities, KL loss and its analytic gradient, and the momentum optimizer
with optional per-iteration projection onto a linear constraint set.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, OptimizerError, ValidationError
from .linalg import ensure_matrix, pairwise_sqdist

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class AffinityTable:
    """Fixed symmetric input probabilities and the bandwidths behind them."""

    P: np.ndarray  # n x n symmetric, zero diagonal, sums to 1
    sigma2: np.ndarray  # n per-point Gaussian bandwidths
    perplexity: float


@dataclass(frozen=True)
class OptimizerConfig:
    n_iter: int = 1000
    perplexity: float = 30.0
    eta: float = 200.0
    momentum_initial: float = 0.5
    momentum_final: float = 0.8
    momentum_switch_iter: int = 250
    exaggeration_factor: float = 12.0
    exaggeration_iters: int = 250
    adaptive_gains: bool = True
    min_gain: float = 0.01
    dims: int = 2
    seed: int = 0

    def validate(self, n):
        if self.n_iter < 1:
            raise DomainError("n_iter must be >= 1")
        if not 2.0 <= self.perplexity <= n - 1:
            raise DomainError(
                f"perplexity must lie in [2, n - 1]; got {self.perplexity} with n={n}"
            )
        if self.eta <= 0:
            raise DomainError("eta must be positive")
        if self.dims not in (2, 3):
            raise DomainError("dims must be 2 or 3")

    def momentum_at(self, t):
        if t < self.momentum_switch_iter:
            return self.momentum_initial
        return self.momentum_final


@dataclass
class EmbeddingState:
    Y: np.ndarray  # n x q
    Y_prev: np.ndarray
    gains: np.ndarray
    iter: int = 0


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
    P = np.exp(logits)
    P /= P.sum(axis=1, keepdims=True)
    return P


def _row_perplexity(d, sigma2):
    logits = -0.5 * d / sigma2
    logits -= logits.max()
    p = np.exp(logits)
    p /= p.sum()
    h = -np.sum(p * np.log(np.maximum(p, PROB_FLOOR)))
    return np.exp(h)


def calibrate_bandwidths(D, perplexity, tol=1e-5, max_iter=200):
    """Per-point bandwidth sigma^2 matching the target perplexity.

    Binary search over log(sigma^2) with expanding brackets; stops when the
    achieved perplexity is within tol of the target or max_iter steps elapse.
    """
    D = ensure_matrix(D, "D")
    n = D.shape[0]
    if D.shape[1] != n:
        raise ValidationError("distance matrix must be square")
    if not 2.0 <= perplexity <= n - 1:
        raise DomainError(f"perplexity must lie in [2, n - 1]; got {perplexity}")
    sigma2 = np.empty(n)
    offdiag = ~np.eye(n, dtype=bool)
    for i in range(n):
        d = D[i, offdiag[i]]
        if np.all(d == 0):
            raise ValidationError(
                f"row {i} has zero distance to every other point (duplicates)"
            )
        x = np.log(d[d > 0].mean())
        lo, hi = -np.inf, np.inf
        for _ in range(max_iter):
            perp = _row_perplexity(d, np.exp(x))
            if abs(perp - perplexity) < tol:
                break
            if perp > perplexity:  # bandwidth too wide
                hi = x
                x = (lo + x) / 2.0 if np.isfinite(lo) else x - 1.0
            else:
                lo = x
                x = (x + hi) / 2.0 if np.isfinite(hi) else x + 1.0
        sigma2[i] = np.exp(x)
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
    return AffinityTable(P=P, sigma2=sigma2, perplexity=float(perplexity))


def embedding_affinities(Y):
    """Student-t kernel weights W and globally normalized affinities Q."""
    Y = ensure_matrix(Y, "Y")
    W = 1.0 / (1.0 + pairwise_sqdist(Y))
    np.fill_diagonal(W, 0.0)
    Q = W / W.sum()
    return Q, W


def kl_loss(P, Q):
    """KL divergence sum_{i != j} p log(p/q), with 0 log 0 := 0."""
    P = np.asarray(getattr(P, "P", P), dtype=np.float64)
    logratio = np.log(np.maximum(P, PROB_FLOOR)) - np.log(np.maximum(Q, PROB_FLOOR))
    mask = P > 0
    return max(float(np.sum(P[mask] * logratio[mask])), 0.0)


def kl_gradient(P, Y):
    """Analytic gradient 4 sum_j (p_ij - q_ij) w_ij (y_i - y_j)."""
    P = np.asarray(getattr(P, "P", P), dtype=np.float64)
    Y = ensure_matrix(Y, "Y")
    Q, W = embedding_affinities(Y)
    M = (P - Q) * W
    return 4.0 * (M.sum(axis=1)[:, None] * Y - M @ Y)


def step(state, grad, cfg):
    """One momentum gradient-descent update with optional adaptive gains."""
    if not np.isfinite(grad).all():
        raise OptimizerError("non-finite gradient", iteration=state.iter)
    velocity = state.Y - state.Y_prev
    gains = state.gains
    if cfg.adaptive_gains:
        agree = np.sign(grad) == np.sign(velocity)
        gains = np.where(agree, gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, cfg.min_gain)
    alpha = cfg.momentum_at(state.iter)
    Y_new = state.Y - cfg.eta * gains * grad + alpha * velocity
    return EmbeddingState(Y=Y_new, Y_prev=state.Y, gains=gains, iter=state.iter + 1)


def run_tsne(X, cfg, projector=None, on_trace=None, trace_every=50):
    """Full optimization loop over the configured number of iterations.

    The embedding is initialized as Normal(0, 1e-4) with cfg.seed, early
    exaggeration multiplies the input affinities for the configured duration,
    and a projector (when given) re-imposes the linear constraint after every
    step.  Trace records are emitted through on_trace every trace_every
    iterations and at the final iteration.
    """
    X = ensure_matrix(X, "X")
    n = X.shape[0]
    cfg.validate(n)
    if projector is not None and n - projector.rank < cfg.dims + 1:
        raise DomainError(
            f"design of rank {projector.rank} leaves {n - projector.rank} of {n} "
            f"dimensions free; a {cfg.dims}-D embedding needs {cfg.dims + 1}"
        )
    table = input_affinities(X, cfg.perplexity)
    P = table.P

    rng = np.random.default_rng(cfg.seed)
    Y = 1e-4 * rng.standard_normal((n, cfg.dims))
    if projector is not None:
        Y = projector.project(Y)
    state = EmbeddingState(Y=Y, Y_prev=Y.copy(), gains=np.ones_like(Y), iter=0)

    for t in range(cfg.n_iter):
        exaggerating = t < cfg.exaggeration_iters and cfg.exaggeration_factor != 1.0
        Pt = P * cfg.exaggeration_factor if exaggerating else P
        grad = kl_gradient(Pt, state.Y)
        state = step(state, grad, cfg)
        # no explicit re-centering: the gradient rows sum to zero, so the
        # embedding mean stays at its initial value (and an identity
        # projector run matches an unprojected run exactly)
        if projector is not None:
            state.Y = projector.project(state.Y)
        if on_trace is not None and (t % trace_every == 0 or t == cfg.n_iter - 1):
            Q, _ = embedding_affinities(state.Y)
            orth = (
                projector.orthogonality(state.Y) if projector is not None else np.nan
            )
            on_trace(TraceRecord(t, kl_loss(P, Q), orth))
    return state
