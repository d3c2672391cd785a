import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bctsne import (
    DomainError,
    Projector,
    SimSpec,
    ValidationError,
    build_design,
    normalize_log1p_cpm,
    pca_reduce,
    simulate,
)
from bctsne.reduce import residualized_reduce

from oracles import reference_pca_reduce


def principal_angles(A, B):
    Qa, _ = np.linalg.qr(A)
    Qb, _ = np.linalg.qr(B)
    s = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
    return np.arccos(np.clip(s, -1, 1))


def geometric_spectrum(n=600, rank=30):
    """n x n input of the given rank with singular values 2^0 .. 2^-(rank-1)."""
    rng = np.random.default_rng(11)
    Qa, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    Qb, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    return (Qa * 2.0 ** -np.arange(rank)) @ Qb.T


def largest_angle_sine(A, B):
    """sin of the largest principal angle between span(A) and span(B), exact
    near 0 where arccos of the cosines loses half the digits."""
    Qa, _ = np.linalg.qr(A)
    Qb, _ = np.linalg.qr(B)
    return np.linalg.norm(Qa - Qb @ (Qb.T @ Qa), 2)


@st.composite
def pca_inputs(draw):
    """(X, k): X wide (n < p), tall (n > p) or of rank below k, built from a
    drawn seed as a sum of rank-one terms with weights across three decades,
    plus a constant that centering removes."""
    kind = draw(st.sampled_from(["wide", "tall", "rank-deficient"]))
    small = draw(st.integers(2, 40))
    large = draw(st.integers(small + 1, 120))
    n, p = (small, large) if kind != "tall" else (large, small)
    if kind == "rank-deficient" and draw(st.booleans()):
        n, p = p, n
    k = draw(st.integers(2 if kind == "rank-deficient" else 1, min(n, p)))
    rank = draw(st.integers(1, k - 1)) if kind == "rank-deficient" else min(n, p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = 10.0 ** rng.uniform(-3, 0, rank)
    X = (rng.standard_normal((n, rank)) * weights) @ rng.standard_normal((rank, p))
    return X + rng.uniform(-5, 5), k


class TestPcaReduce:
    def test_collinear_data_one_direction(self):
        t = np.linspace(-1, 1, 20)
        X = np.column_stack([t, 2 * t])
        red = pca_reduce(X, 2)
        assert red.explained_variance[0] == pytest.approx(1.0)
        assert red.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_identity_input_equal_variance(self):
        red = pca_reduce(np.eye(5), 2)
        assert np.allclose(red.explained_variance, [0.25, 0.25])

    def test_scores_match_full_svd_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((25, 8))
        red = pca_reduce(X, 4)
        Xc = X - X.mean(axis=0)
        U, S, _ = np.linalg.svd(Xc, full_matrices=False)
        oracle = U[:, :4] * S[:4]
        # compare up to per-column sign
        for j in range(4):
            assert np.allclose(red.scores[:, j], oracle[:, j], atol=1e-9) or np.allclose(
                red.scores[:, j], -oracle[:, j], atol=1e-9
            )

    @pytest.mark.parametrize("make, k", [
        pytest.param(lambda: np.random.default_rng(5).standard_normal((600, 700)), 30,
                     id="gaussian-600x700"),
        pytest.param(lambda: np.random.default_rng(6).standard_normal((700, 550)), 30,
                     id="gaussian-700x550"),
        pytest.param(geometric_spectrum, 10, id="geometric-600x600"),
    ])
    def test_exact_at_any_size(self, make, k):
        # both dimensions above 512, and a Gaussian spectrum is flat, where an
        # approximate solver misses by far more than the tolerance
        X = make()
        Xc = X - X.mean(axis=0)
        U, S, _ = np.linalg.svd(Xc, full_matrices=False)
        red = pca_reduce(X, k)
        ev = S[:k] ** 2 / np.sum(Xc * Xc)
        assert np.max(np.abs(red.explained_variance - ev) / ev) < 1e-10
        oracle = np.abs(U[:, :k] * S[:k])
        assert np.max(np.abs(np.abs(red.scores) - oracle)) < 1e-10 * oracle.max()

    @settings(max_examples=150, deadline=None)
    @given(pca_inputs())
    def test_matches_full_svd(self, case):
        X, k = case
        Xc = X - X.mean(axis=0)
        U, S, _ = np.linalg.svd(Xc, full_matrices=False)
        total = np.sum(Xc * Xc)
        red = pca_reduce(X, k)
        # relative where the variance lies above 1e-12 of the total, and
        # within 1e-22 of it below, where the input's rank has run out
        ev = S[:k] ** 2 / total
        assert np.all(np.abs(red.explained_variance - ev) <= 1e-10 * np.maximum(ev, 1e-12))
        # the leading i score directions are well posed only where the
        # spectrum has a gap after them; in a flat tail any solver (or BLAS
        # thread count) turns them inside the flat block.  Both solvers'
        # perturbation bounds scale as eps * s_1^2 / (s_i^2 - s_{i+1}^2).
        S1 = np.append(S, 0.0)
        for i in range(1, k + 1):
            if S[i - 1] ** 2 < 1e-12 * total:
                break
            if S1[i - 1] >= 1.01 * S1[i]:
                bound = 1e-12 * S[0] ** 2 / (S1[i - 1] ** 2 - S1[i] ** 2)
                assert largest_angle_sine(red.scores[:, :i], U[:, :i]) <= bound

    @pytest.mark.parametrize("n, p", [
        pytest.param(500, 2000, id="gram-over-cells"),
        pytest.param(3000, 200, id="gram-over-genes"),
    ])
    def test_matches_earlier_copies_bitwise(self, n, p):
        # squaring Xc in place, and eigh overwriting the Gram matrix, leave
        # every byte of the scores, the variance fractions and the input
        X = normalize_log1p_cpm(simulate(SimSpec(n_cells=n, n_genes=p, seed=10)).counts)
        before = X.copy()
        red = pca_reduce(X, 30)
        scores, explained_variance = reference_pca_reduce(X, 30)
        assert red.scores.tobytes() == scores.tobytes()
        assert red.explained_variance.tobytes() == explained_variance.tobytes()
        assert np.array_equal(X, before)

    def test_peak_centered_copy_and_gram(self):
        # Xc and the Gram matrix are the only large arrays alive together;
        # eigh's finiteness check takes a boolean mask of the Gram matrix
        n, p = 1000, 2000
        X = np.random.default_rng(12).standard_normal((n, p))
        tracemalloc.start()
        try:
            pca_reduce(X, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram = n * n * 8
        assert peak <= X.nbytes + gram + gram / 8 + 256 * 1024, peak

    def test_constant_matrix_rejected(self):
        with pytest.raises(ValidationError):
            pca_reduce(np.full((6, 3), 2.5), 2)

    def test_single_row_rejected(self):
        with pytest.raises(ValidationError, match="need at least 2 rows"):
            pca_reduce(np.ones((1, 3)), 1)

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            pca_reduce(np.random.default_rng(0).standard_normal((5, 3)), 4)


class TestResidualizedReduce:
    def test_single_batch_level_equals_pca(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 10))
        adj = residualized_reduce(X, Projector(np.ones((30, 1))), 3)
        plain = pca_reduce(X, 3)
        # residualizing on the intercept only re-centers already centered scores
        assert np.allclose(adj.scores, plain.scores, atol=1e-10)

    def test_planted_batch_effect_removed(self):
        rng = np.random.default_rng(2)
        n, p = 60, 20
        Z = (np.arange(n) % 3 == np.arange(3)[:, None]).T.astype(float)[:, 1:]
        Z1 = np.column_stack([np.ones(n), Z])
        # rank-3 noise E with columns orthogonal to the design and rows
        # orthogonal to the planted batch loadings, so the singular
        # decomposition of X separates batch and signal blocks exactly
        Ve, _ = np.linalg.qr(rng.standard_normal((p, 3)))
        G = rng.standard_normal((n, 3))
        G -= Z1 @ np.linalg.lstsq(Z1, G, rcond=None)[0]
        Ue, _ = np.linalg.qr(G)
        E = Ue @ np.diag([3.0, 2.0, 1.0]) @ Ve.T
        B = rng.standard_normal((2, p))
        B -= (B @ Ve) @ Ve.T
        X = 5.0 * (Z @ B) + E
        red = residualized_reduce(X, Projector(Z1), 5)
        Zc = Z - Z.mean(axis=0)
        norms = np.linalg.norm(red.scores, axis=0)
        for j in range(red.scores.shape[1]):
            if norms[j] < 1e-8 * norms.max():
                continue  # batch direction annihilated by the residualization
            for c in range(Zc.shape[1]):
                r = np.corrcoef(red.scores[:, j], Zc[:, c])[0, 1]
                assert abs(r) < 1e-8
        # the top-5 directions of X are the 2 planted batch directions plus
        # the 3 leading directions of E; residualization removes the former,
        # so the adjusted scores span E's 3 leading score directions.
        # oracle: residualize X columns directly, then PCA.
        Xr = X - Z1 @ np.linalg.lstsq(Z1, X, rcond=None)[0]
        oracle = pca_reduce(Xr, 3)
        live = red.scores[:, norms > 1e-8 * norms.max()]
        assert live.shape[1] == 3
        angles = principal_angles(live, oracle.scores)
        assert angles.max() < 1e-6

    def test_full_rank_spans_residual_space(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 10))
        Z = (rng.integers(0, 2, 20))[:, None].astype(float)
        Z1 = np.column_stack([np.ones(20), Z])
        k = 10
        red = residualized_reduce(X, Projector(Z1), k)
        Xc = X - X.mean(axis=0)
        T = Xc - Z1 @ np.linalg.lstsq(Z1, Xc, rcond=None)[0]
        keep = np.linalg.matrix_rank(T)
        angles = principal_angles(red.scores[:, :keep], T)
        assert angles.max() < 1e-6

    def test_orthogonality_invariant(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 15))
        design = build_design({"b": (rng.integers(0, 4, 40)).tolist()})
        red = residualized_reduce(X, design, 6)
        Zc = design.Z - design.Z.mean(axis=0)
        assert np.abs(Zc.T @ red.scores).max() < 1e-8

    def test_projection_is_contraction(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 12))
        Z = (rng.integers(0, 2, 30))[:, None].astype(float)
        adj = residualized_reduce(X, Projector(np.column_stack([np.ones(30), Z])), 5)
        plain = pca_reduce(X, 5)
        assert np.linalg.norm(adj.scores) <= np.linalg.norm(plain.scores) + 1e-12

    def test_row_mismatch(self):
        with pytest.raises(ValidationError):
            residualized_reduce(np.eye(6), Projector(np.ones((5, 1))), 2)

    def test_raw_array_rejected(self):
        X = np.random.default_rng(6).standard_normal((20, 5))
        Z = (np.arange(20) % 2)[:, None].astype(float)
        with pytest.raises(ValidationError, match="build_design"):
            residualized_reduce(X, Z, 3)
