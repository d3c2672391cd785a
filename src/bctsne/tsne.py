"""t-SNE core: perplexity-calibrated input affinities, the tiled Student-t
kernel that sums the KL gradient (and the trace's KL) without an n x n
array, and the momentum optimizer with optional per-iteration projection
onto a linear constraint set.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .design import Projector
from .errors import (CalibrationWarning, DomainError, OptimizerError,
                     ValidationError, _warn_caller)
from .linalg import _BLOCK_ROWS, ensure_index, ensure_matrix, pairwise_sqdist

PROB_FLOOR = 1e-12
# _calibrate's search ends for a row when its perplexity is within
# _TOL of the target, and for all rows after _MAX_ITER steps
_TOL = 1e-5
_MAX_ITER = 200
# _locate proves a window per row: its edges lie _MARGIN of its half width
# beyond where the perplexity leaves target -+ _TOL, and the proof must put
# the perplexities evaluated there at least _MARGIN / 2 of _TOL beyond
# target -+ _TOL.  Each log-perplexity the proof rests on, the Newton
# solve's and the one _row_perplexities evaluates, is taken to be off by at
# most _ROUNDING * (1 + beta d_min), beta d_min being the size of the row's
# largest logit (0 in the solve's shifted distances).  The Newton solve that
# places the windows takes at most _NEWTON_STEPS steps, each of at most
# _NEWTON_REACH in log(sigma^2), and stops at a step of at most _NEWTON_STOP.
_MARGIN = 1e-3
_ROUNDING = 64 * np.finfo(np.float64).eps
_NEWTON_STEPS = 50
_NEWTON_REACH = 4.0
_NEWTON_STOP = 1e-7
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
        ensure_index(self.n_iter, "n_iter", 1)
        ensure_perplexity(self.perplexity, n)
        for name in ("eta", "exaggeration_factor"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be positive and finite")
        ensure_index(self.dims, "dims", 2, 3)
        ensure_index(self.seed, "seed", 0)


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


def _row_perplexities(D, rows, sigma2, nearest, out):
    """Perplexity of rows `rows` of D (an index array, self excluded) under
    Gaussian bandwidths sigma2 and least distances nearest (each row's least
    distance to another point), one per row; each row's Gaussian
    probabilities p_j|i = exp(-d_ij / 2 sigma2_i) / sum_{k != i} exp(-d_ik /
    2 sigma2_i), with p_i|i = 0, are written to its row of out, an n x n
    array.

    The package's one Gaussian softmax: the bandwidth search forms every row
    it evaluates here, and the input affinities and LISI's weights keep its
    last row per point.  The rows and their log terms are formed
    _BLOCK_ROWS / 2 at a time in two reused buffers, one block of rows in
    all.  Each row keeps all n entries, its own logit set to -inf, so no row
    is copied to drop it.  The row's largest logit is (-0.5 nearest) /
    sigma2, with no pass over the row: rounding is monotone, so the least
    distance gives the largest logit to the bit.
    """
    half = _BLOCK_ROWS // 2
    perp = np.empty(len(rows))
    p_buf, logp_buf = np.empty((2, min(len(rows), half), D.shape[1]))
    for i in range(0, len(rows), half):
        block = slice(i, i + half)
        m = len(rows[block])
        # with mode "clip", take writes into the buffer without one of its
        # own; the rows are in range, so the mode changes no value
        p = np.take(D, rows[block], axis=0, out=p_buf[:m], mode="clip")
        p *= -0.5
        # at a row whose least distance is 0, sigma2 may be so small that
        # -d / 2 sigma2 overflows: -inf is the logit's limit, and its exp is 0
        with np.errstate(over="ignore"):
            p /= sigma2[block, None]
        p[np.arange(m), rows[block]] = -np.inf
        p -= ((-0.5 * nearest[block]) / sigma2[block])[:, None]
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        logp = np.maximum(p, PROB_FLOOR, out=logp_buf[:m])
        np.log(logp, out=logp)
        logp *= p
        perp[block] = np.exp(-np.sum(logp, axis=1))
        out[rows[block]] = p
    return perp


def _bisect(x, lo, hi, wide, reach):
    """One step of a bracketed search on x = log sigma^2, one per row: x
    becomes the bracket's upper end (lo, hi) where the bandwidth was too
    wide and its lower end elsewhere.  Returns the new (lo, hi) and the next
    x: the bracket's midpoint once both ends are finite, else x -+ reach."""
    lo, hi = np.where(wide, lo, x), np.where(wide, x, hi)
    step = np.where(wide, x - reach, x + reach)
    return lo, hi, np.where(np.isfinite(lo) & np.isfinite(hi), (lo + hi) / 2.0, step)


def _prove(x, f, slope, kappa3, far, nearest, n, perplexity):
    """The proof of _locate's windows, one call for all rows, each row on its
    own: for rows whose Newton solve stopped at x with sums f, slope and
    kappa3 there (nan for a row it never stopped on), far and nearest being
    each row's largest shifted and least distance and n the number of
    points, the edges (low, high) per row, or nan where an edge's bound does
    not clear target -+ (1 + _MARGIN / 2) _TOL.

    The raw moments behind f, slope and kappa3 lose at most a few ulps times
    n to cancellation, since the nearest term, at u = 0, holds 1 / n of the
    row or more; that lies far inside the allowance.  Also unproved is a row
    whose terms under the floor, which the solve sums as e^-700 in place of
    e^-u, could move its sums by an ulp, (n - 1) e^-700 (1 + beta far)^3 >
    eps, and one whose window reaches past x = -+700, where sigma^2 = e^x
    nears the ends of float64's range; such a window spans a plateau, as
    for a point with copies when the target lies just above their count.
    """
    beta = 0.5 * np.exp(-x)
    w = (1.0 + _MARGIN) * _TOL / (perplexity * slope)
    bias = (n - 1) * PROB_FLOOR / np.e
    edges = x - f / slope + np.array([-w, w + bias / slope])
    t = edges - x
    a = kappa3 / slope - 2.0
    u = np.minimum(beta * far * np.exp(np.abs(t)), 700.0)
    curve = u * (1.0 + 2.0 * u) * t * t
    q = np.abs(a * t) + curve / 2.0
    error = slope * np.abs(t) * (curve / 6.0 + q * q * np.exp(q) / 2.0)
    error += _ROUNDING * (2.0 + 0.5 * np.exp(-edges[0]) * nearest)
    # the greatest log-perplexity less the target at low, the least at high
    low, high = f + slope * t * (1.0 + a * t / 2.0) + np.array([[1.0], [-1.0]]) * error
    margin = (1.0 + _MARGIN / 2) * _TOL
    proved = ((low <= np.log1p(-margin / perplexity))
              & (high - bias >= np.log1p(margin / perplexity))
              & ((n - 1) * np.exp(-700.0) * (1.0 + beta * far) ** 3 <= np.finfo(float).eps)
              & (np.abs(edges).max(axis=0) <= 700.0))
    return np.where(proved, edges, np.nan)


def _locate(D, perplexity):
    """(start, nearest, edges) for the bandwidth search on the squared
    distances D: each row's start value for the search, its least distance
    to another point, and its proved log-bandwidths edges = (low, high),
    between which the row reaches its target perplexity; nan, the one mark
    of no window, for a row left unsolved or unproved.

    The search's one pass over D, _BLOCK_ROWS rows at a time.  A block's
    distances are copied without each row's own entry.  From them come each
    row's start value, the mean distance (the mean positive one where the
    least is 0), and its least distance; a row of duplicates, with no
    positive distance, raises ValidationError.  The block is then shifted in
    place by the least distances and solved, and the sums where each row's
    solve stops are kept.  One call of _prove, after the pass, proves every
    row's window from them.

    The solve is Newton's method on the log-perplexity H(x) = beta E_p[d] +
    log Z in x = log sigma^2, with beta = 1 / 2 sigma^2 and the slope
    dH/dx = beta^2 Var_p(d), bracketed by the steps it has taken.  It starts
    from sigma^2 = r^2 / 2e, r^2 being the ceil(perplexity)-th nearest
    distance: around a point of 2-D data at even density rho, a Gaussian of
    bandwidth sigma^2 has perplexity P = 2 pi e sigma^2 rho, and the disk
    that holds the P nearest points has pi r^2 rho = P.  The start is only a
    hint, as is the floor of -700 put under each term -beta d before exp:
    below about -708 exp is many times slower and its results are subnormal
    or 0, and e^-700 is 1e-304 of the row's largest term, 1.  Neither moves
    sigma^2, which the replay in _calibrate decides.  A row whose
    ceil(perplexity) nearest distances tie has no root and is left
    unsolved, as is one whose solve does not converge.

    Each row is proved (by _prove) from the sums of the step where its solve
    stops, at x: f = H(x) - log(perplexity), the slope s = H'(x) and kappa_3,
    the third central moment of u = beta d, formed at a step only when a row
    stops there.  In u, H' = Var_p(u), and g = log H' has

        g' = -2 + kappa_3 / Var_p(u) =: a,
        g'' = (kappa_4 - kappa_3) / Var_p(u) - (kappa_3 / Var_p(u))^2.

    For terms spread over u in [0, U], |kappa_3| <= U Var_p(u) and |kappa_4|
    <= U^2 Var_p(u), so |g''| <= B = U + 2 U^2.  U = min(beta d_max e^|t|,
    700) bounds u over the terms above the floor on the whole way from x to
    an edge x + t, and the terms below it weigh at most (n - 1) e^-700 of
    the row.  So g stays within B tau^2 / 2 of g(x) + a tau, and

        H(x + t) - H(x) = s t (1 + a t / 2) + E,
        |E| <= s |t| (B t^2 / 6 + q^2 e^q / 2),  q = |a t| + B t^2 / 2.

    The window is root -+ w around the Newton root x - f / s, with
    w = (1 + _MARGIN) _TOL / (perplexity s), where to first order the
    perplexity lies (1 + _MARGIN) _TOL from its target.  Its high edge is
    first widened by b / s, with b = (n - 1) PROB_FLOOR / e:
    _row_perplexities takes log max(p, PROB_FLOOR), which only lowers the
    evaluated log-perplexity, by at most max p log(PROB_FLOOR / p) =
    PROB_FLOOR / e per term.  An edge is proved when H's bound there lies
    beyond log(perplexity -+ (1 + _MARGIN / 2) _TOL) after the allowance
    _ROUNDING (2 + beta_low d_min), one share for the rounding of the
    solve's f and one for the evaluation's, and at the high edge after b.
    So the slack of _MARGIN / 2 of _TOL pays for the curvature term
    s a t^2 / 2, the remainder E, the rounding and the floor's bias.  A row
    where the rounding alone could fill it is not proved: there the
    evaluated perplexity need not rise with the bandwidth, as when the
    nearest distances differ by rounding error alone.
    """
    n, k = len(D), int(np.ceil(perplexity))
    start, nearest = np.empty((2, n))
    # x, f, slope and kappa_3 where each row's solve stops (nan where it never
    # does), and the row's largest shifted distance
    sums = np.full((5, n), np.nan)
    target = np.log(perplexity)
    for i in range(0, n, _BLOCK_ROWS):
        block = np.arange(i, min(i + _BLOCK_ROWS, n))
        d = D[block][np.arange(n) != block[:, None]].reshape(len(block), -1)
        start[block] = d.mean(axis=1)
        nearest[block] = d.min(axis=1)
        for j in np.flatnonzero(nearest[block] == 0):
            positive = d[j][d[j] > 0]
            if not positive.size:
                raise ValidationError(
                    f"row {block[j]} has zero distance to every other point (duplicates)"
                )
            start[block[j]] = positive.mean()
        d -= nearest[block, None]
        kth = np.partition(d, k - 1, axis=1)[:, k - 1].copy()
        sums[4, block] = d.max(axis=1)
        rows = block[kth > 0]
        if len(rows) < len(block):
            d = d[kth > 0]
        x = np.log(kth[kth > 0]) - np.log(2.0 * np.e)
        lo, hi = np.full(len(rows), -np.inf), np.full(len(rows), np.inf)
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
                # converged within a tenth of the margin, in units of H, or
                # with a Newton step of at most _NEWTON_STOP, which leaves the
                # root off by about its square
                done = ((np.abs(f) <= 0.1 * _MARGIN * _TOL / perplexity)
                        | (np.abs(f) <= _NEWTON_STOP * slope)) & (slope > 0)
                step = x - f / slope
                if done.any():
                    # kappa_3 from the raw moments; e, now the terms times d^2,
                    # is formed again at the next step
                    e *= d
                    m3 = np.einsum("ij,ij->i", e, d) / z
                    kappa3 = beta**3 * (m3 - m1 * (3.0 * m2 - 2.0 * m1 * m1))
                    sums[:4, rows[done]] = np.array([x, f, slope, kappa3])[:, done]
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return start, nearest, _prove(*sums, nearest, n, perplexity)


def _calibrate(D, perplexity):
    """Per-point bandwidth sigma^2 matching the target perplexity on the
    squared distances D, and the n x n Gaussian rows p_j|i at that
    sigma^2.

    Binary search over log(sigma^2) with expanding brackets, run on all rows
    at once; a row leaves the search when its achieved perplexity is within
    _TOL of the target, and the search ends after _MAX_ITER steps.  Rows still
    off target then issue a CalibrationWarning; their sigma^2 is returned as
    the search left it.

    Most steps of the search are decided before they are taken.  _locate
    finds, per row, log-bandwidths low < high and proves from its Newton
    solve that the perplexity evaluated at low lies below target - _TOL and
    at high above target + _TOL, each by _MARGIN / 2 of _TOL after the
    proof's Taylor remainder, its rounding allowance and, at high, the bias
    of PROB_FLOOR.  A step of the row's search below low counts as too
    narrow and one above high as too wide, without forming its Gaussian
    row.  Every other step is formed and evaluated, so sigma^2 is that of
    the plain search to the last bit as long as the evaluated perplexity
    rises with the bandwidth, which it does to far within the margin.
    Decided steps are taken first, and one call then evaluates every row
    where it stands.  A nan window, which _locate leaves for a row it did
    not solve or could not prove, is the one "no window": no comparison
    with nan is true, so it decides no step.

    A row's last evaluated step is at its returned sigma^2: the step where it
    lands within _TOL, or the check of a row out of steps.  So the rows come
    from the search itself, with no row formed again.  Their array is made
    after _locate returns, so no block of its scratch is alive beside it.
    """
    n = len(D)
    ensure_perplexity(perplexity, n)
    start, nearest, edges = _locate(D, perplexity)
    x = np.log(start)
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    steps = np.zeros(n, dtype=int)
    cond = np.empty_like(D)
    active, missed = np.arange(n), []
    while active.size:
        # each pass takes the next step of every row whose window decides it;
        # when no row has one, one call evaluates every active row where it is
        xa = x[active]
        wide = edges[1, active] < xa
        decided = (wide | (xa < edges[0, active])) & (steps[active] < _MAX_ITER)
        if decided.any():
            stepping, wide = active[decided], wide[decided]
        else:
            perp = _row_perplexities(D, active, np.exp(xa), nearest[active], cond)
            searching = ~(np.abs(perp - perplexity) < _TOL)
            spent = steps[active] == _MAX_ITER
            missed.append(perp[searching & spent])
            active = stepping = active[searching & ~spent]
            wide = perp[searching & ~spent] > perplexity
        lo[stepping], hi[stepping], x[stepping] = _bisect(
            x[stepping], lo[stepping], hi[stepping], wide, 1.0
        )
        steps[stepping] += 1
    miss = np.abs(np.concatenate(missed) - perplexity)
    if miss.size:
        _warn_caller(
            f"{miss.size} of {n} rows missed perplexity {perplexity} by "
            f"tol={_TOL} or more after {_MAX_ITER} bisection steps; worst "
            f"|perplexity - target| = {miss.max():.3g}",
            CalibrationWarning,
        )
    return np.exp(x), cond


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
    ensure_perplexity(perplexity, n)
    D = pairwise_sqdist(X)
    sigma2, cond = _calibrate(D, perplexity)
    del D  # at most two n x n arrays are alive at any time
    P = cond + cond.T
    del cond
    P /= 2.0 * n
    P[P < np.finfo(np.float64).tiny] = 0.0
    return AffinityTable(P=P, sigma2=sigma2)


class _Kernel:
    """The t-SNE gradient 4 sum_j (exaggeration * p_ij - q_ij) w_ij (y_i - y_j),
    at exaggeration 1 that of KL(P || Q) in Y, and with kl the pair
    (gradient, KL), for one P and one embedding width.  The scratch and the
    walk over the tiles are built once; each call copies Y in, refills the
    scratch in place and walks the plan.

    One pass sums the gradient as 4 (exaggeration A - R / Z), with
    A_i = sum_j p_ij w_ij (y_i - y_j), R_i = sum_j w_ij^2 (y_i - y_j) and
    Z = sum_{i != j} w_ij (van der Maaten 2014, JMLR 15), and the KL as
    sum p (log max(p, PROB_FLOOR) - log w) + log Z sum p, with no n x n
    array.  P is the package's symmetric input affinities: the pass reads it
    only at and above the diagonal, and uses each p_ij for rows i and j.

    The plan pairs every row tile I with the panels J of the columns from I's
    first row on, so each pair i != j is seen once or, inside the tile's own
    rows, twice.  The kernel copies those panels of P, one after another in
    plan order, into an array of its own, and keeps no view of the P it was
    built from.  Consecutive tiles form a group while their panels hold at
    most _TILE_ROWS x _TILE_COLS entries in all.  A group's scratch is three
    planes of one buffer, each holding its tiles' len(I) x len(J) blocks one
    after another, as the packed P does: the last holds the Student-t
    weights w_ij = 1 / (1 + |y_i - y_j|^2), zero where i == j, and the first
    two hold P o w and w o w, then the KL's terms.  Each elementwise step
    runs once over a whole group; each BLAS product, diagonal fill and sum
    runs per tile, so that no result depends on how the tiles are grouped.
    A tile's first k columns are I's own rows (k = 0 when J starts
    past I), so the pairs in [:, :k] appear in both orders and those in
    [:, k:] once.  Every product goes to one shared buffer before it is
    added in.
    """

    def __init__(self, P, dims):
        n = len(P)
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
        prod = np.empty((3, min(n, _TILE_COLS), dims + 1))
        tiles = [(slice(i0, min(i0 + _TILE_ROWS, n)), slice(j0, min(j0 + _TILE_COLS, n)))
                 for i0 in range(0, n, _TILE_ROWS) for j0 in range(i0, n, _TILE_COLS)]
        ends = list(itertools.accumulate((I.stop - I.start) * (J.stop - J.start)
                                         for I, J in tiles))
        starts = [0, *ends[:-1]]
        groups = [[]]
        for t in range(len(tiles)):
            if groups[-1] and ends[t] - starts[groups[-1][0]] > _TILE_ROWS * _TILE_COLS:
                groups.append([])
            groups[-1].append(t)
        self.panels = np.empty(ends[-1])
        # contiguous, so that numpy's loops need no buffers of their own
        buf = np.empty(3 * max(ends[g[-1]] - starts[g[0]] for g in groups))
        self.plan = []
        for group in groups:
            first = starts[group[0]]
            planes = buf[: 3 * (ends[group[-1]] - first)].reshape(3, -1)
            steps, diags = [], []
            for t in group:
                I, J = tiles[t]
                m, k = I.stop - I.start, 0
                block = self.panels[starts[t] : ends[t]].reshape(m, -1)
                np.copyto(block, P[I, J])
                tile = planes[:, starts[t] - first : ends[t] - first].reshape(3, *block.shape)
                term, _, w = tile
                if J.start == I.start:
                    k = m
                    diags.append(w.reshape(-1)[:: w.shape[1] + 1])  # w[i, i]; m <= len(J)
                # the pairs seen once also count for their column's row
                once = None
                if J.start + k < J.stop:
                    once = (tile[:, :, k:].transpose(0, 2, 1), self.Y1[I],
                            prod[:, : J.stop - J.start - k], self.acc[:, J.start + k : J.stop])
                steps.append(((left[I], right[J].T, w, self.Y2[I], self.Y[J].T, term),
                              (tile, self.Y1[J], prod[:, :m], self.acc[:, I], once),
                              (w, w[:, k:], term, term[:, k:])))
            self.plan.append((self.panels[first : ends[group[-1]]], planes, diags, steps))

    def __call__(self, Y, exaggeration=1.0, kl=False):
        np.copyto(self.Y, Y)
        Y = self.Y
        np.einsum("ij,ij->i", Y, Y, out=self.sq)
        np.add(self.sq, 1.0, out=self.left_sq)
        np.multiply(2.0, Y, out=self.Y2)
        np.copyto(self.Y1[:, :-1], Y)
        self.acc.fill(0.0)
        Z = plogpw = 0.0
        for p, (term, ww, w), diags, steps in self.plan:
            for (left, right, w_tile, y2, y, term_tile), _, _ in steps:
                np.matmul(left, right, out=w_tile)
                np.matmul(y2, y, out=term_tile)
            w -= term
            np.maximum(w, 1.0, out=w)  # clamp distances below 0 from cancellation
            np.divide(1.0, w, out=w)
            for diag in diags:
                diag.fill(0.0)
            np.multiply(p, w, out=term)  # P o w, and then the KL's terms
            np.multiply(w, w, out=ww)
            for _, (tile, y1, prod, acc, once), _ in steps:
                acc += np.matmul(tile, y1, out=prod)
                if once is not None:
                    tile_t, y1_rows, prod_once, acc_once = once
                    acc_once += np.matmul(tile_t, y1_rows, out=prod_once)
            if kl:
                for _, _, (w_tile, w_once, _, _) in steps:
                    Z += w_tile.sum() + w_once.sum()
                for diag in diags:
                    diag.fill(1.0)  # log 1 = 0 where p_ii = 0
                np.maximum(p, PROB_FLOOR, out=term)
                np.log(term, out=term)
                term -= np.log(w, out=w)
                term *= p
                for _, _, (_, _, term_tile, term_once) in steps:
                    plogpw += term_tile.sum() + term_once.sum()
        attract, repulse, weights = self.acc
        attract *= 4.0 * exaggeration
        repulse /= weights[:, -1].sum() / 4.0
        coef = np.subtract(attract, repulse, out=attract)
        grad = coef[:, -1:] * Y - coef[:, :-1]
        return (grad, max(float(plogpw + self.p_sum * np.log(Z)), 0.0)) if kl else grad


def run_tsne(X, cfg, projector=None, on_trace=None):
    """Full optimization loop over the configured number of iterations.

    The embedding starts as Normal(0, 1e-4) with cfg.seed and follows the
    schedule that OptimizerConfig describes.  The projector (for plain t-SNE,
    the empty design's, an exact copy) projects X before the affinities are
    calibrated, the initial embedding, and every iterate when its design has
    a column.  The kernel keeps its own packed copy of P, so the dense P is
    freed before the first iteration.  Trace records are emitted through
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
        # embedding mean stays at its initial value.  An empty basis would
        # subtract zeros, which gives Y to the bit
        if projector.rank:
            Y = projector.project(Y)
    if on_trace is not None:  # one more pass, for the last iterate's KL
        _, kl = kernel(Y, kl=True)
        on_trace(TraceRecord(cfg.n_iter - 1, kl, projector.orthogonality(Y)))
    return EmbeddingState(Y=Y)
