"""Brute-force reference implementations shared by the unit and acceptance
tests.  Each is a literal transcription of the defining formula, kept free of
the vectorized shortcuts used by the package itself, or a copy of the
package's earlier row-by-row or n x n code, which the faster code must
reproduce bit for bit or, where it sums in another order, within a tolerance
that the test states.
"""
from fractions import Fraction

import numpy as np
from scipy import stats
from scipy.linalg import eigh

from bctsne.matrixio import _FMT, _write_table
from bctsne.simulate import (
    _BASE_MEAN_SCALE,
    _BASE_MEAN_SHAPE,
    _CPM_SCALE,
    _LIB_SIZE_LOCATION,
    _LIB_SIZE_SCALE,
)
from bctsne.tsne import PROB_FLOOR, input_affinities, kl_gradient


def literal_input_affinities(X, sigma2):
    """Direct transcription of the conditional-probability formula."""
    n = X.shape[0]
    cond = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            num = np.exp(-0.5 * np.sum((X[i] - X[j]) ** 2) / sigma2[i])
            den = sum(
                np.exp(-0.5 * np.sum((X[i] - X[k]) ** 2) / sigma2[i])
                for k in range(n)
                if k != i
            )
            cond[i, j] = num / den
    return (cond + cond.T) / (2.0 * n)


def reference_pairwise_sqdist(A):
    """The package's earlier pairwise_sqdist, which symmetrised D explicitly."""
    A = np.asarray(A, dtype=np.float64)
    sq = np.einsum("ij,ij->i", A, A)
    D = sq[:, None] + sq[None, :] - 2.0 * (A @ A.T)
    np.maximum(D, 0.0, out=D)
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D


def literal_embedding_affinities(Y):
    n = Y.shape[0]
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                W[i, j] = 1.0 / (1.0 + np.sum((Y[i] - Y[j]) ** 2))
    return W / W.sum(), W


def silhouette_oracle(Y, codes):
    """Mean of per-point silhouette widths computed with explicit loops."""
    n = len(codes)
    D = np.sqrt(
        np.array([[np.sum((Y[i] - Y[j]) ** 2) for j in range(n)] for i in range(n)])
    )
    s = np.empty(n)
    for i in range(n):
        same = [j for j in range(n) if codes[j] == codes[i] and j != i]
        a = np.mean(D[i, same])
        b = min(
            np.mean(D[i, [j for j in range(n) if codes[j] == c]])
            for c in set(codes)
            if c != codes[i]
        )
        s[i] = (b - a) / max(a, b)
    return s.mean()


def svd_pc_regression(M, codes):
    """Variance-weighted R^2 of M's principal components regressed on the
    label codes, one SVD component at a time: the package's earlier form."""
    Mc = M - M.mean(axis=0)
    U, S, _ = np.linalg.svd(Mc, full_matrices=False)
    keep = S > max(S[0], 1.0) * 1e-12 if S.size else S.astype(bool)
    U, S = U[:, keep], S[keep]
    pcs = U * S
    onehot = np.eye(codes.max() + 1)[codes]
    fitted = onehot @ np.linalg.lstsq(onehot, pcs, rcond=None)[0]
    r2 = np.sum(fitted**2, axis=0) / np.sum(pcs**2, axis=0)
    return float(np.sum(S**2 * r2) / np.sum(S**2))


def exact_pc_regression(M, labels):
    """The same R^2 in exact rational arithmetic: the between-level sum of
    squares over the total, sum_l n_l |mean_l - mean|^2 / sum_i |m_i - mean|^2,
    which is what regressing every centered column on the dummies fits."""
    n, d = M.shape
    F = [[Fraction(float(v)) for v in row] for row in M]
    mean = [sum(r[j] for r in F) / n for j in range(d)]
    total = sum((r[j] - mean[j]) ** 2 for r in F for j in range(d))
    fitted = Fraction(0)
    for level in set(labels):
        rows = [F[i] for i in range(n) if labels[i] == level]
        m = [sum(r[j] for r in rows) / len(rows) for j in range(d)]
        fitted += len(rows) * sum((m[j] - mean[j]) ** 2 for j in range(d))
    return fitted / total


def hat_matrix_projection(Z, Y):
    """(I - Z (Z^T Z)^{-1} Z^T) Y for full-column-rank Z."""
    n = Z.shape[0]
    H = Z @ np.linalg.inv(Z.T @ Z) @ Z.T
    return (np.eye(n) - H) @ Y


def _row_perplexity(d, sigma2):
    logits = -0.5 * d / sigma2
    logits -= logits.max()
    p = np.exp(logits)
    p /= p.sum()
    h = -np.sum(p * np.log(np.maximum(p, 1e-12)))
    return np.exp(h)


def reference_conditional_rows(D, sigma2):
    """Conditional neighbour probabilities as the package formed them over
    whole n x n temporaries, before its rows came from one block routine."""
    logits = -0.5 * D / sigma2[:, None]
    np.fill_diagonal(logits, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    P = np.exp(logits, out=logits)
    P /= P.sum(axis=1, keepdims=True)
    return P


def calibrate_bandwidths_loop(D, perplexity, tol=1e-5, max_iter=200):
    """Bandwidth bisection one row at a time: the package's search before it
    ran on all rows at once.  The package must match it bit for bit."""
    n = D.shape[0]
    sigma2 = np.empty(n)
    offdiag = ~np.eye(n, dtype=bool)
    for i in range(n):
        d = D[i, offdiag[i]]
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


def row_perplexities(D, sigma2):
    """Perplexity each row of D reaches with bandwidths sigma2."""
    n = D.shape[0]
    offdiag = ~np.eye(n, dtype=bool)
    return np.array([_row_perplexity(D[i, offdiag[i]], sigma2[i]) for i in range(n)])


def reference_embedding_affinities(Y):
    """Student-t affinities as the package computed them with freshly
    allocated temporaries and an explicit symmetrisation."""
    sq = np.einsum("ij,ij->i", Y, Y)
    D = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
    np.maximum(D, 0.0, out=D)
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    W = 1.0 / (1.0 + D)
    np.fill_diagonal(W, 0.0)
    return W / W.sum(), W


def embedding_affinities(Y):
    """Student-t kernel weights W and globally normalized affinities Q, as
    the package computed them in n x n arrays before its kernel was tiled."""
    sq = np.einsum("ij,ij->i", Y, Y)
    W = np.add.outer(sq, sq)
    W -= 2.0 * (Y @ Y.T)
    np.maximum(W, 0.0, out=W)
    W += 1.0
    np.divide(1.0, W, out=W)
    np.fill_diagonal(W, 0.0)
    return W / W.sum(), W


def reference_kl_gradient(P, Y, exaggeration=1.0):
    """The gradient as the package computed it before its kernel was tiled:
    per-entry (exaggeration * p - q) * w over n x n arrays."""
    Q, W = reference_embedding_affinities(Y)
    M = (P * exaggeration - Q) * W
    return 4.0 * (M.sum(axis=1)[:, None] * Y - M @ Y)


def kbet_loop(Y, batch, knn, n_test, alpha=0.05, seed=0):
    """kBET acceptance with one neighbour search and one test per sampled
    row: the package's kBET before it handled all rows at once.
    Its p-value comes from scipy.stats.chi2.sf, an independent reference for
    the package's closed-form chi-squared tail, metrics._chi2_sf; this is the
    one import of scipy.stats."""
    n = Y.shape[0]
    levels = sorted(set(batch), key=str)
    codes = np.array([levels.index(b) for b in batch])
    expected = np.bincount(codes, minlength=len(levels)) / n * knn
    rng = np.random.default_rng(seed)
    test_idx = (
        np.arange(n) if n_test >= n else rng.choice(n, size=n_test, replace=False)
    )
    sq = np.einsum("ij,ij->i", Y, Y)
    D = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T), 0.0)
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    accepted = 0
    for i in test_idx:
        row = D[i].copy()
        row[i] = np.inf
        neigh = np.argpartition(row, knn)[:knn]
        observed = np.bincount(codes[neigh], minlength=len(levels))
        stat = float(np.sum((observed - expected) ** 2 / np.maximum(expected, 1e-12)))
        if stats.chi2.sf(stat, len(levels) - 1) >= alpha:
            accepted += 1
    return accepted / len(test_idx)


def kl_loss(P, Q):
    """KL divergence sum_{i != j} p log(p/q), with 0 log 0 := 0, summed over
    per-entry log ratios held in two n x n temporaries.  The package's n x n
    KL before its trace step summed KL through the kernel's tiles; the
    finite-difference checks of the gradient differentiate it."""
    P = np.asarray(P, dtype=np.float64)
    logratio = np.maximum(P, PROB_FLOOR)
    np.log(logratio, out=logratio)
    logq = np.maximum(Q, PROB_FLOOR)
    logratio -= np.log(logq, out=logq)
    return max(float(np.vdot(P, logratio)), 0.0)


def reference_tiles(Y):
    """Student-t weights w_ij = 1 / (1 + |y_i - y_j|^2), tile by tile: the
    package's tile walk before its scratch was built once per run.

    Yields (I, J, k, tile) for every row tile I of 64 rows and every panel J
    of at most 512 columns from I's first row on, so each pair i != j is seen
    once or, inside the tile's own rows, twice.  tile is 3 x len(I) x len(J):
    tile[2] holds w, zero where i == j, and tile[0] and tile[1] are scratch.
    The first k columns are I's own rows (k = 0 when J starts past I), so the
    pairs in [:, :k] appear in both orders and those in [:, k:] once.  Every
    tile is a view of one array, so the caller may overwrite it but not keep
    it.
    """
    rows, cols = 64, 512
    n = Y.shape[0]
    sq = np.einsum("ij,ij->i", Y, Y)
    left, right = np.ones((2, n, 2))
    left[:, 0] = sq + 1.0
    right[:, 1] = sq
    Y2 = 2.0 * Y
    buf = np.empty(3 * min(n, rows) * min(n, cols))
    for i0 in range(0, n, rows):
        I = slice(i0, min(i0 + rows, n))
        for j0 in range(i0, n, cols):
            J = slice(j0, min(j0 + cols, n))
            shape = (3, I.stop - i0, J.stop - j0)
            tile = buf[: shape[0] * shape[1] * shape[2]].reshape(shape)
            w = tile[2]
            np.matmul(left[I], right[J].T, out=w)
            w -= np.matmul(Y2[I], Y[J].T, out=tile[0])
            np.maximum(w, 1.0, out=w)
            np.divide(1.0, w, out=w)
            k = 0
            if j0 == i0:
                k = I.stop - i0
                w.flat[:: w.shape[1] + 1] = 0.0
            yield I, J, k, tile


def reference_tiled_gradient(P, Y, exaggeration=1.0, kl=False):
    """The gradient, or with kl the pair (gradient, KL), as the package's
    kl_gradient summed it over `reference_tiles` with scratch allocated per
    call; the kernel built once per run must match it bit for bit."""
    P, Y = np.asarray(P, dtype=np.float64), np.asarray(Y, dtype=np.float64)
    n, dims = Y.shape
    Y1 = np.ones((n, dims + 1))
    Y1[:, :dims] = Y
    acc = np.zeros((3, n, dims + 1))
    Z = plogpw = 0.0
    for I, J, k, tile in reference_tiles(Y):
        p, (term, ww, w) = P[I, J], tile
        np.multiply(p, w, out=term)
        np.multiply(w, w, out=ww)
        acc[:, I] += tile @ Y1[J]
        if J.start + k < J.stop:
            acc[:, J.start + k : J.stop] += tile[:, :, k:].transpose(0, 2, 1) @ Y1[I]
        if kl:
            Z += w.sum() + w[:, k:].sum()
            if k:
                np.fill_diagonal(w, 1.0)
            np.maximum(p, PROB_FLOOR, out=term)
            np.log(term, out=term)
            term -= np.log(w, out=w)
            term *= p
            plogpw += term.sum() + term[:, k:].sum()
    attract, repulse, weights = acc
    coef = (4.0 * exaggeration) * attract - repulse / (weights[:, -1].sum() / 4.0)
    grad = coef[:, -1:] * Y - coef[:, :-1]
    return (grad, max(float(plogpw + P.sum() * np.log(Z)), 0.0)) if kl else grad


def reference_tiled_kl(P, Y):
    """KL(P || Q) summed tile by tile as sum p (log p - log w) + log Z sum p,
    in a walk over the tiles of its own: the package's trace step before its
    KL came from the gradient's pass, which must match it bit for bit."""
    P = np.asarray(P, dtype=np.float64)
    Z = plogpw = 0.0
    for I, J, k, (term, _, w) in reference_tiles(Y):
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


def reference_kl_loss(P, Q):
    """KL as the package summed it before: masked products through np.sum."""
    logratio = np.log(np.maximum(P, 1e-12)) - np.log(np.maximum(Q, 1e-12))
    mask = P > 0
    return max(float(np.sum(P[mask] * logratio[mask])), 0.0)



# the optimizer settings the package had before its schedule was fixed, at
# their defaults
MOMENTUM_INITIAL, MOMENTUM_FINAL, MOMENTUM_SWITCH_ITER = 0.5, 0.8, 250
EXAGGERATION_ITERS, ADAPTIVE_GAINS, MIN_GAIN = 250, True, 0.01


def reference_momentum_at(t):
    if t < MOMENTUM_SWITCH_ITER:
        return MOMENTUM_INITIAL
    return MOMENTUM_FINAL


def reference_step(Y, Y_prev, gains, grad, t, eta):
    """One momentum update as the package's separate `step` made it; returns
    (new Y, Y, gains)."""
    velocity = Y - Y_prev
    if ADAPTIVE_GAINS:
        agree = np.sign(grad) == np.sign(velocity)
        gains = np.where(agree, gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, MIN_GAIN)
    alpha = reference_momentum_at(t)
    return Y - eta * gains * grad + alpha * velocity, Y, gains


def reference_run_tsne(X, cfg, projector=None, trace_every=50):
    """The package's optimizer loop before `step` was folded into it, with
    each trace step's KL from freshly allocated affinities.  A projector
    projects X before the affinities and every iterate.  Returns
    (Y, gains, [(iteration, kl, orthogonality)])."""
    n = X.shape[0]
    if projector is not None:
        X = projector.project(X)
    P = input_affinities(X, cfg.perplexity).P
    rng = np.random.default_rng(cfg.seed)
    Y = 1e-4 * rng.standard_normal((n, cfg.dims))
    if projector is not None:
        Y = projector.project(Y)
    Y_prev, gains = Y.copy(), np.ones_like(Y)
    trace = []
    for t in range(cfg.n_iter):
        factor = cfg.exaggeration_factor if t < EXAGGERATION_ITERS else 1.0
        grad = kl_gradient(P, Y, factor)
        Y, Y_prev, gains = reference_step(Y, Y_prev, gains, grad, t, cfg.eta)
        if projector is not None:
            Y = projector.project(Y)
        if t % trace_every == 0 or t == cfg.n_iter - 1:
            Q, _ = embedding_affinities(Y)
            orth = projector.orthogonality(Y) if projector is not None else np.nan
            trace.append((t, reference_kl_loss(P, Q), orth))
    return Y, gains, trace


def reference_simulate_counts(spec):
    """The package's earlier simulate, which formed the expected counts and
    the Poisson draw over whole n x p temporaries; its counts only."""
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
    batch_idx = np.arange(n) % spec.n_batches
    group_idx = (np.arange(n) // spec.n_batches) % spec.n_groups
    mean = base[None, :] * batch_factors[batch_idx] * group_factors[group_idx]
    prop = mean / mean.sum(axis=1, keepdims=True)
    return rng.poisson(lib[:, None] * prop).astype(np.float64)


def reference_normalize_log1p_cpm(counts):
    """The package's earlier normalize_log1p_cpm, over two n x p temporaries."""
    totals = counts.sum(axis=1, keepdims=True)
    safe = np.where(totals == 0, 1.0, totals)
    return np.log1p(counts / safe * _CPM_SCALE)


def reference_pca_reduce(X, k):
    """The package's earlier pca_reduce, which squared a copy of the centered
    X for the total variance and let eigh copy the Gram matrix; returns
    (scores, explained_variance)."""
    Xc = X - X.mean(axis=0)
    total = float(np.sum(Xc * Xc))
    n, p = Xc.shape
    gram = Xc @ Xc.T if n <= p else Xc.T @ Xc
    m = gram.shape[0]
    _, W = eigh(gram, subset_by_index=[m - k, m - 1])
    if n <= p:
        R, S, _ = np.linalg.svd(W.T @ Xc, full_matrices=False)
        U = W @ R
    else:
        U, S, _ = np.linalg.svd(Xc @ W, full_matrices=False)
    U = U * np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(k)])
    return U * S, S**2 / total


def per_value_write_matrix_csv(M, row_ids, col_names, path):
    """The package's earlier write_matrix_csv, which formatted every value of
    each row on its own."""
    M = np.asarray(M, dtype=np.float64)
    _write_table(
        path,
        ["id", *col_names],
        ([rid, *(_FMT % v for v in row.tolist())] for rid, row in zip(row_ids, M)),
    )
