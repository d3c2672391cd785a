"""t-SNE core: perplexity-calibrated input affinities, the tiled Student-t
kernel that sums the KL gradient (and the trace's KL) without an n x n
array, and the momentum optimizer with optional per-iteration projection
onto a linear constraint set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Projector
from .errors import (CalibrationWarning, DomainError, OptimizerError,
                     ValidationError, _warn_caller)
from .linalg import _BLOCK_ROWS, ensure_index, ensure_matrix, pairwise_sqdist

PROB_FLOOR = 1e-12
# calibrate_bandwidths' search ends for a row when its perplexity is within
# _TOL of the target, and for all rows after _MAX_ITER steps
_TOL = 1e-5
_MAX_ITER = 200
# calibrate_bandwidths certifies a window per row: its edges lie _MARGIN of
# its half width beyond where the perplexity leaves target -+ _TOL, and the
# perplexities evaluated there must lie at least _MARGIN / 2 of _TOL beyond
# target -+ _TOL.  An evaluated perplexity is taken to be off by at most
# _ROUNDING * perplexity * (1 + beta d_min), beta d_min being the size of the
# row's largest logit, and a row where that could reach the margin is not
# certified.  The Newton solve that places the windows takes at most
# _NEWTON_STEPS steps, each of at most _NEWTON_REACH in log(sigma^2).
_MARGIN = 1e-3
_ROUNDING = 64 * np.finfo(np.float64).eps
_NEWTON_STEPS = 50
_NEWTON_REACH = 4.0
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
_TRACE_EVERY = 50


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
        ensure_perplexity(self.perplexity, n)
        for name in ("eta", "exaggeration_factor"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be positive and finite")
        ensure_index(self.dims, "dims", DomainError, 2, 3)
        ensure_index(self.seed, "seed", DomainError, 0)


@dataclass
class EmbeddingState:
    Y: np.ndarray  # n x q


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    kl_loss: float
    orthogonality_maxabs: float  # nan for unconstrained runs


def ensure_perplexity(value, n, name="perplexity"):
    """Raise DomainError unless 2 <= value <= n - 1: above n - 1, the
    perplexity of a uniform distribution over the other points, no bandwidth
    reaches the target."""
    if not 2.0 <= value <= n - 1:
        raise DomainError(f"{name} must lie in [2, n - 1]; got {value} with n={n}")


def _offdiag(D, rows):
    """D[rows] without each row's own entry: a new len(rows) x (n - 1) array,
    from which the bandwidth search takes its start values and windows."""
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


def _bisect(x, lo, hi, wide, reach):
    """One step of a bracketed search on x = log sigma^2, one per row: x
    becomes the bracket's upper end (lo, hi) where the bandwidth was too
    wide and its lower end elsewhere.  Returns the new (lo, hi) and the next
    x: the bracket's midpoint once both ends are finite, else x -+ reach."""
    lo, hi = np.where(wide, lo, x), np.where(wide, x, hi)
    step = np.where(wide, x - reach, x + reach)
    return lo, hi, np.where(np.isfinite(lo) & np.isfinite(hi), (lo + hi) / 2.0, step)


def _locate(d, perplexity):
    """Log-bandwidths (low, high) per row of d, a block's distances without
    each row's own entry, between which the row reaches its target
    perplexity; nan for a row left unsolved.

    Newton's method on the log-perplexity H(x) = beta E_p[d] + log Z in
    x = log sigma^2, with beta = 1 / 2 sigma^2, the distances shifted by the
    row's minimum and the slope dH/dx = beta^2 Var_p(d), bracketed by the
    steps it has taken.  It starts from sigma^2 = r^2 / 2e, r^2 being the
    ceil(perplexity)-th nearest distance: around a point of 2-D data at even
    density rho, a Gaussian of bandwidth sigma^2 has perplexity
    P = 2 pi e sigma^2 rho, and the disk that holds the P nearest points has
    pi r^2 rho = P.  The start is only a hint, as is the floor of -700 put
    under each term -beta d before exp: below about -708 exp is many times
    slower and its results are subnormal or 0, and e^-700 is 1e-304 of the
    row's largest term, 1.  Neither moves sigma^2, which the certified
    edges and the replay in calibrate_bandwidths decide.

    At the root x*, perplexity moves by about perplexity * dH/dx per unit
    of x, so it stays within _TOL of the target on x* -+ w with
    w = _TOL / (perplexity * dH/dx); the edges are x* -+ (1 + _MARGIN) w.
    A row whose ceil(perplexity) nearest distances tie has no root and is
    left unsolved, as is one whose solve does not converge.  So is a row
    whose root needs so narrow a bandwidth that rounding its logits
    -d / 2 sigma^2, each by a few ulps of beta * d, could move its evaluated
    perplexity by the certification margin: there the evaluated perplexity
    need not rise with the bandwidth, as when the nearest distances differ
    by rounding error alone.
    """
    edges = np.full((2, len(d)), np.nan)
    nearest = d.min(axis=1)
    d = d - nearest[:, None]
    k = int(np.ceil(perplexity))
    kth = np.partition(d, k - 1, axis=1)[:, k - 1]
    rows = np.flatnonzero(kth > 0)
    if len(rows) < len(d):
        d = d[rows]
    x = np.log(kth[rows]) - np.log(2.0 * np.e)
    lo, hi = np.full(len(rows), -np.inf), np.full(len(rows), np.inf)
    target = np.log(perplexity)
    e = np.empty_like(d)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            beta = 0.5 * np.exp(-x)
            np.multiply(d, -beta[:, None], out=e)
            np.maximum(e, -700.0, out=e)
            np.exp(e, out=e)
            z = e.sum(axis=1)
            e *= d
            m1 = e.sum(axis=1) / z
            m2 = np.einsum("ij,ij->i", e, d) / z
            f = beta * m1 + np.log(z) - target
            slope = beta * beta * (m2 - m1 * m1)
            # converged within a tenth of the margin, in units of H
            done = (np.abs(f) <= 0.1 * _MARGIN * _TOL / perplexity) & (slope > 0)
            step = x - f / slope
            if done.any():
                root, solved = step[done], rows[done]
                w = (1.0 + _MARGIN) * _TOL / (perplexity * slope[done])
                beta_low = 0.5 * np.exp(w - root)
                rounding = _ROUNDING * perplexity * (1.0 + beta_low * nearest[solved])
                fine = rounding <= 0.5 * _MARGIN * _TOL
                edges[:, solved[fine]] = (root - w)[fine], (root + w)[fine]
            # a non-finite sum or a flat row drops out, unsolved
            keep = ~done & np.isfinite(f) & (slope > 0)
            if not keep.all():
                rows, x, lo, hi, f, step = (a[keep] for a in (rows, x, lo, hi, f, step))
                d, e = d[keep], e[: len(rows)]
            if not len(rows):
                break
            lo, hi, fallback = _bisect(x, lo, hi, f > 0, _NEWTON_REACH)
            # a Newton step outside the bracket, or more than _NEWTON_REACH
            # from x, is replaced by the bisection's step
            inside = (step > lo) & (step < hi) & (np.abs(step - x) <= _NEWTON_REACH)
            x = np.where(inside, step, fallback)
    return edges


def calibrate_bandwidths(D, perplexity):
    """Per-point bandwidth sigma^2 matching the target perplexity.

    Binary search over log(sigma^2) with expanding brackets, run on all rows
    at once; a row leaves the search when its achieved perplexity is within
    _TOL of the target, and the search ends after _MAX_ITER steps.  Rows still
    off target then issue a CalibrationWarning; their sigma^2 is returned as
    the search left it.

    Most steps of the search are decided before they are taken.  _locate
    finds, per row, log-bandwidths low < high between which the target is
    reached; when the row's perplexity at low is below target - _TOL and at
    high above target + _TOL, each by a margin, the row is certified, and a
    step of its search below low counts as too narrow and one above high as
    too wide without forming its Gaussian row.  Every other step is formed
    and evaluated, so sigma^2 is that of the plain search to the last bit as
    long as the evaluated perplexity rises with the bandwidth, which it does
    to far within the certification margin.
    """
    D = ensure_matrix(D, "D")
    n = D.shape[0]
    if D.shape[1] != n:
        raise ValidationError("distance matrix must be square")
    ensure_perplexity(perplexity, n)
    start = np.empty(n)
    edges = np.empty((2, n))
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
        edges[:, block] = _locate(d, perplexity)
    located = np.flatnonzero(np.isfinite(edges).all(axis=0))
    low = _row_perplexities(D, located, np.exp(edges[0, located]))
    high = _row_perplexities(D, located, np.exp(edges[1, located]))
    certified = np.zeros(n, dtype=bool)
    certified[located] = (low <= perplexity - (1.0 + _MARGIN / 2) * _TOL) & (
        high >= perplexity + (1.0 + _MARGIN / 2) * _TOL
    )
    # an uncertified row has every step evaluated
    edges[:, ~certified] = [[-np.inf], [np.inf]]
    x = np.log(start)
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    active = np.arange(n)
    for _ in range(_MAX_ITER):
        xa = x[active]
        # -inf and inf stand for the perplexities of steps known to be too
        # narrow and too wide
        perp = np.where(xa < edges[0, active], -np.inf, np.inf)
        unknown = (edges[0, active] <= xa) & (xa <= edges[1, active])
        perp[unknown] = _row_perplexities(D, active[unknown], np.exp(xa[unknown]))
        searching = ~(np.abs(perp - perplexity) < _TOL)
        active, perp = active[searching], perp[searching]
        if not active.size:
            break
        lo[active], hi[active], x[active] = _bisect(
            x[active], lo[active], hi[active], perp > perplexity, 1.0
        )
    sigma2 = np.exp(x)
    if active.size:
        miss = np.abs(_row_perplexities(D, active, sigma2[active]) - perplexity)
        off = ~(miss < _TOL)
        if off.any():
            _warn_caller(
                f"{int(off.sum())} of {n} rows missed perplexity {perplexity} by "
                f"tol={_TOL} or more after {_MAX_ITER} bisection steps; worst "
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


class _Kernel:
    """The exact pass of `kl_gradient` for one P and one embedding width,
    with its scratch and its walk over the tiles built once: each call copies
    Y in, refills the scratch in place and walks the plan.

    The plan pairs every row tile I with the panels J of the columns from I's
    first row on, so each pair i != j is seen once or, inside the tile's own
    rows, twice.  A tile is 3 x len(I) x len(J), a view of one buffer: its
    last plane holds the Student-t weights w_ij = 1 / (1 + |y_i - y_j|^2),
    zero where i == j, and the first two hold P o w and w o w, then the KL's
    terms.  The first k columns are I's own rows (k = 0 when J starts past
    I), so the pairs in [:, :k] appear in both orders and those in [:, k:]
    once.  Every product goes to one shared buffer before it is added in.
    """

    def __init__(self, P, dims):
        n = len(P)
        if n < 2:
            raise ValidationError("need at least 2 points")
        self.p_sum = P.sum()
        self.Y = np.empty((n, dims))
        # BLAS forms 1 + |y_i|^2 + |y_j|^2 exactly as the sum (1 + |y_i|^2) + |y_j|^2
        # from the two-column factors [1 + |y_i|^2, 1] and [1, |y_j|^2], faster
        # than a broadcast sum
        left, right = np.ones((2, n, 2))
        self.left_sq, self.sq = left[:, 0], right[:, 1]
        self.Y2 = np.empty((n, dims))
        # [P o w], [w o w] and w times [Y | 1], row by row: the last column holds
        # the row sums, and the w rows' last column sums to Z
        self.Y1 = np.ones((n, dims + 1))
        self.acc = np.empty((3, n, dims + 1))
        # contiguous, so that numpy's loops need no buffers of their own
        buf = np.empty(3 * min(n, _TILE_ROWS) * min(n, _TILE_COLS))
        prod = np.empty((3, min(n, _TILE_COLS), dims + 1))
        self.plan = []
        for i0 in range(0, n, _TILE_ROWS):
            I = slice(i0, min(i0 + _TILE_ROWS, n))
            m = I.stop - i0
            row_side = (left[I], self.Y2[I], self.Y1[I], prod[:, :m], self.acc[:, I])
            for j0 in range(i0, n, _TILE_COLS):
                J = slice(j0, min(j0 + _TILE_COLS, n))
                tile = buf[: 3 * m * (J.stop - j0)].reshape(3, m, -1)
                term, _, w = planes = tuple(tile)
                k, diag = 0, None
                if j0 == i0:
                    k, diag = m, w.reshape(-1)[:: w.shape[1] + 1]  # w[i, i]; m <= len(J)
                # the pairs seen once also count for their column's row
                once = None
                if j0 + k < J.stop:
                    once = (tile[:, :, k:].transpose(0, 2, 1), prod[:, : J.stop - j0 - k],
                            self.acc[:, j0 + k : J.stop])
                self.plan.append((P[I, J], right[J].T, self.Y[J].T, self.Y1[J], row_side,
                                  tile, planes, diag, once, w[:, k:], term[:, k:]))

    def __call__(self, Y, exaggeration=1.0, kl=False):
        np.copyto(self.Y, Y)
        Y = self.Y
        np.einsum("ij,ij->i", Y, Y, out=self.sq)
        np.add(self.sq, 1.0, out=self.left_sq)
        np.multiply(2.0, Y, out=self.Y2)
        np.copyto(self.Y1[:, :-1], Y)
        self.acc.fill(0.0)
        Z = plogpw = 0.0
        for p, right, y, y1, row_side, tile, planes, diag, once, w_once, term_once in self.plan:
            left, y2, y1_rows, prod, acc = row_side
            term, ww, w = planes
            np.matmul(left, right, out=w)
            w -= np.matmul(y2, y, out=term)
            np.maximum(w, 1.0, out=w)  # clamp distances below 0 from cancellation
            np.divide(1.0, w, out=w)
            if diag is not None:
                diag.fill(0.0)
            np.multiply(p, w, out=term)  # P o w, and then the KL's terms
            np.multiply(w, w, out=ww)
            acc += np.matmul(tile, y1, out=prod)
            if once is not None:
                tile_t, prod_once, acc_once = once
                acc_once += np.matmul(tile_t, y1_rows, out=prod_once)
            if kl:
                Z += w.sum() + w_once.sum()
                if diag is not None:
                    diag.fill(1.0)  # log 1 = 0 where p_ii = 0
                np.maximum(p, PROB_FLOOR, out=term)
                np.log(term, out=term)
                term -= np.log(w, out=w)
                term *= p
                plogpw += term.sum() + term_once.sum()
        attract, repulse, weights = self.acc
        attract *= 4.0 * exaggeration
        repulse /= weights[:, -1].sum() / 4.0
        coef = np.subtract(attract, repulse, out=attract)
        grad = coef[:, -1:] * Y - coef[:, :-1]
        return (grad, max(float(plogpw + self.p_sum * np.log(Z)), 0.0)) if kl else grad


def kl_gradient(P, Y, exaggeration=1.0, *, kl=False):
    """t-SNE gradient 4 sum_j (exaggeration * p_ij - q_ij) w_ij (y_i - y_j),
    which at exaggeration 1 is the gradient of KL(P || Q) in Y; with kl, the
    pair (gradient, KL).

    One pass over the tiles of `_Kernel` sums it as 4 (exaggeration A - R / Z),
    with A_i = sum_j p_ij w_ij (y_i - y_j), R_i = sum_j w_ij^2 (y_i - y_j) and
    Z = sum_{i != j} w_ij (van der Maaten 2014, JMLR 15), so no n x n array is
    built.  P must be symmetric, as is checked: the pass reads it only in the
    tiles at and above the diagonal, and uses each p_ij for rows i and j.  The
    same tiles give KL = sum p (log max(p, PROB_FLOOR) - log w) + log Z sum p.
    """
    P, Y = np.asarray(P, dtype=np.float64), ensure_matrix(Y, "Y")
    n = Y.shape[0]
    if P.shape != (n, n):
        raise ValidationError(f"P must be {n} x {n} to match Y; got {P.shape}")
    if not np.array_equal(P, P.T):
        raise ValidationError("P must be symmetric")
    return _Kernel(P, Y.shape[1])(Y, exaggeration, kl)


def run_tsne(X, cfg, projector=None, on_trace=None):
    """Full optimization loop over the configured number of iterations.

    The embedding starts as Normal(0, 1e-4) with cfg.seed and follows the
    schedule that OptimizerConfig describes.  The projector (for plain t-SNE,
    the empty design's, an exact copy) projects X before the affinities are
    calibrated, and every iterate.  Trace records are emitted through
    on_trace every _TRACE_EVERY iterations and at the last, each with the KL
    of its post-step iterate; tracing adds one pass, after the last iteration.
    """
    X = ensure_matrix(X, "X")
    n = X.shape[0]
    cfg.validate(n)
    if projector is None:
        projector = Projector(np.empty((n, 0)))
    # projecting checks the design's row count before its rank is read
    X = projector.project(X)
    if n - projector.rank < cfg.dims + 1:
        raise DomainError(
            f"design of rank {projector.rank} leaves {n - projector.rank} of {n} "
            f"dimensions free; a {cfg.dims}-D embedding needs {cfg.dims + 1}"
        )
    kernel = _Kernel(input_affinities(X, cfg.perplexity).P, cfg.dims)

    rng = np.random.default_rng(cfg.seed)
    Y = projector.project(1e-4 * rng.standard_normal((n, cfg.dims)))
    Y_prev, gains = Y.copy(), np.ones_like(Y)

    for t in range(cfg.n_iter):
        early = t < _EARLY_ITERS
        factor = cfg.exaggeration_factor if early else 1.0
        # this pass runs at iteration t - 1's post-step iterate
        if on_trace is not None and t and (t - 1) % _TRACE_EVERY == 0:
            grad, kl = kernel(Y, factor, kl=True)
            on_trace(TraceRecord(t - 1, kl, projector.orthogonality(Y)))
        else:
            grad = kernel(Y, factor)
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
    if on_trace is not None:  # one more pass, for the last iterate's KL
        _, kl = kernel(Y, kl=True)
        on_trace(TraceRecord(cfg.n_iter - 1, kl, projector.orthogonality(Y)))
    return EmbeddingState(Y=Y)
