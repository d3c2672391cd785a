import warnings

import numpy as np
import pytest

from oracles import reference_pairwise_sqdist

from bctsne import (
    DomainError,
    MetricsConfig,
    OptimizerConfig,
    SimSpec,
    ValidationError,
    evaluate,
    pca_reduce,
    run_tsne,
    simulate,
)
from bctsne.linalg import ensure_index, pairwise_sqdist
from bctsne.metrics import kbet_acceptance, lisi, silhouette
from bctsne.tsne import input_affinities


def jacobi_svd(A, sweeps=60, tol=1e-14):
    """One-sided Jacobi SVD oracle: rotate column pairs until orthogonal."""
    A = A.astype(float).copy()
    n, p = A.shape
    V = np.eye(p)
    for _ in range(sweeps):
        off = 0.0
        for i in range(p - 1):
            for j in range(i + 1, p):
                a = A[:, i] @ A[:, i]
                b = A[:, j] @ A[:, j]
                c = A[:, i] @ A[:, j]
                off = max(off, abs(c) / max(np.sqrt(a * b), 1e-300))
                if abs(c) < tol * np.sqrt(a * b):
                    continue
                zeta = (b - a) / (2.0 * c)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1 + zeta * zeta))
                cs = 1.0 / np.sqrt(1 + t * t)
                sn = cs * t
                for M in (A, V):
                    gi = M[:, i].copy()
                    M[:, i] = cs * gi - sn * M[:, j]
                    M[:, j] = sn * gi + cs * M[:, j]
        if off < tol:
            break
    S = np.linalg.norm(A, axis=0)
    order = np.argsort(S)[::-1]
    S = S[order]
    U = np.where(S > 0, 1.0, 1.0) * A[:, order] / np.where(S > 0, S, 1.0)
    return U, S, V[:, order]


class TestTruncatedSvd:
    """The truncated SVD of the centred input inside pca_reduce: its scores
    are U_k S_k, so their column norms are the singular values S."""

    def test_identity(self):
        # the centred 3 x 3 identity has singular values 1, 1, 0
        red = pca_reduce(np.eye(3), 2)
        assert np.allclose(red.scores.T @ red.scores, np.eye(2), atol=1e-12)

    def test_rank_one(self):
        a = np.array([1.0, -2.0, 3.0])
        b = np.array([2.0, 5.0])
        red = pca_reduce(np.outer(a, b), 1)
        assert red.scores.shape == (3, 1)
        S = np.linalg.norm(red.scores[:, 0])
        assert S == pytest.approx(np.linalg.norm(a - a.mean()) * np.linalg.norm(b))

    def test_full_rank_reconstruction_vs_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((50, 20))
        Ac = A - A.mean(axis=0)
        red = pca_reduce(A, 20)
        # at full rank the scores span the centred input's column space
        fit = red.scores @ np.linalg.lstsq(red.scores, Ac, rcond=None)[0]
        assert np.linalg.norm(Ac - fit) < 1e-8
        _, S_oracle, _ = jacobi_svd(Ac)
        assert np.allclose(np.linalg.norm(red.scores, axis=0), S_oracle, atol=1e-9)

    def test_orthonormality_and_ordering(self):
        rng = np.random.default_rng(3)
        red = pca_reduce(rng.standard_normal((30, 12)), 5)
        S = np.linalg.norm(red.scores, axis=0)
        U = red.scores / S
        assert np.allclose(U.T @ U, np.eye(5), atol=1e-8)
        assert np.all(np.diff(S) <= 1e-12)
        assert np.all(S >= 0)

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            pca_reduce(np.eye(3), 4)
        with pytest.raises(DomainError):
            pca_reduce(np.eye(3), 0)

    def test_non_finite_rejected(self):
        A = np.eye(3)
        A[1, 1] = np.nan
        with pytest.raises(ValidationError):
            pca_reduce(A, 2)


class TestPairwiseSqdist:
    def test_three_four_five(self):
        D = pairwise_sqdist(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert D[0, 1] == pytest.approx(25.0)
        assert D[1, 0] == pytest.approx(25.0)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValidationError, match=r"A must be 2-dimensional, got shape \(3,\)"):
            pairwise_sqdist(np.ones(3))

    def test_identical_rows_zero(self):
        D = pairwise_sqdist(np.ones((4, 3)))
        assert np.all(D == 0)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((10, 5))
        D = pairwise_sqdist(A)
        naive = np.array(
            [[np.sum((A[i] - A[j]) ** 2) for j in range(10)] for i in range(10)]
        )
        assert np.abs(D - naive).max() < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((12, 4))
        D = pairwise_sqdist(A)
        assert np.array_equal(D, D.T)
        assert np.all(D >= 0)
        assert np.all(np.diag(D) == 0)
        E = np.sqrt(D)  # triangle inequality on the square roots
        for i in range(12):
            for j in range(12):
                for k in range(12):
                    assert E[i, j] <= E[i, k] + E[k, j] + 1e-10

    @pytest.mark.parametrize("layout", ["C", "F", "row-strided"])
    def test_matches_symmetrised_reference_bitwise(self, layout):
        rng = np.random.default_rng(8)
        for n, p in ((7, 3), (200, 30), (800, 30), (1000, 3), (300, 700)):
            A = rng.standard_normal((n, p)) * rng.uniform(0.1, 100)
            A[n // 2 : n // 2 + 5] = A[0]  # duplicate rows
            A = {"C": A, "F": np.asfortranarray(A), "row-strided": A[::2]}[layout]
            assert np.array_equal(pairwise_sqdist(A), reference_pairwise_sqdist(A))

    def test_exactly_symmetric_without_unit_stride(self):
        A = np.random.default_rng(9).standard_normal((513, 60))[:, ::2]
        D = pairwise_sqdist(A)
        assert np.array_equal(D, D.T)
        assert np.allclose(D, reference_pairwise_sqdist(A), rtol=1e-12, atol=1e-12)

    def test_overflowing_distances_rejected_by_name(self):
        # silhouette and kBET scored such points as perfectly mixed, with
        # numpy's overflow warnings alone, and LISI and the affinities named
        # a matrix D that no caller passed; at 1e150 nothing overflows
        Y = np.random.default_rng(42).standard_normal((40, 2))
        labels = ["a", "b"] * 20
        calls = (lambda Y: silhouette(Y, labels), lambda Y: kbet_acceptance(Y, labels),
                 lambda Y: lisi(Y, labels, 10.0), lambda Y: input_affinities(Y, 10.0),
                 lambda Y: evaluate(Y, {"batch": labels}, MetricsConfig(lisi_perplexity=10.0)))
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError,
                                   match="^squared distances overflow float64$"):
                    call(1e160 * Y)
                call(1e150 * Y)


X = np.random.default_rng(10).standard_normal((30, 4))
BATCH = (np.arange(30) % 2).tolist()


class TestIntegerSettings:
    """Counts and seeds take integers, numpy's included; any other value, even
    a whole float, raises the error class of the setting's own range check
    rather than numpy's TypeError."""

    @pytest.mark.parametrize("error, call", [
        (DomainError, lambda: pca_reduce(X, 3.0)),
        (DomainError, lambda: run_tsne(X, OptimizerConfig(n_iter=5.5, perplexity=5))),
        (DomainError, lambda: run_tsne(X, OptimizerConfig(dims=2.0, perplexity=5))),
        (DomainError, lambda: run_tsne(X, OptimizerConfig(seed=1.5, perplexity=5))),
        (ValidationError, lambda: simulate(SimSpec(n_cells=8, n_genes=10.0))),
        (ValidationError, lambda: simulate(SimSpec(n_cells=8, seed=1.5))),
        (ValidationError, lambda: kbet_acceptance(X, BATCH, knn=5.5)),
        (ValidationError, lambda: kbet_acceptance(X, BATCH, n_test=5.5)),
        (ValidationError, lambda: kbet_acceptance(X, BATCH, seed=1.5)),
        (ValidationError, lambda: evaluate(X, {"batch": BATCH}, MetricsConfig(knn=5.0))),
    ], ids=["pca_reduce-k", "n_iter", "dims", "optimizer-seed", "n_genes",
            "simulate-seed", "knn", "n_test", "kbet-seed", "MetricsConfig-knn"])
    def test_non_integer_rejected_by_name(self, error, call):
        with pytest.raises(error, match="must be an integer"):
            call()

    def test_numpy_integers_accepted(self):
        i = np.int64
        assert pca_reduce(X, i(3)).scores.shape == (30, 3)
        cfg = OptimizerConfig(n_iter=i(2), perplexity=5, dims=i(2), seed=i(1))
        assert run_tsne(X, cfg).Y.shape == (30, 2)
        assert simulate(SimSpec(n_cells=i(8), n_genes=i(10), seed=i(1))).counts.shape == (8, 10)
        assert 0 <= kbet_acceptance(X, BATCH, knn=i(5), n_test=i(10), seed=i(1)) <= 1

    @pytest.mark.parametrize("value, low, high, message", [
        (0, 1, None, "k must be >= 1; got 0"),
        (-1, 0, None, "k must be >= 0; got -1"),
        (1, 2, 3, r"k must be in \[2, 3\]; got 1"),
        (4, 2, 3, r"k must be in \[2, 3\]; got 4"),
    ])
    def test_out_of_range_named_with_its_bounds(self, value, low, high, message):
        with pytest.raises(DomainError, match=message):
            ensure_index(value, "k", low, high)

    @pytest.mark.parametrize("value, low, high", [(1, 1, None), (2, 2, 3), (3, 2, 3)])
    def test_ends_of_the_range_accepted(self, value, low, high):
        assert ensure_index(np.int64(value), "k", low, high) == value
