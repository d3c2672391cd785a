import tracemalloc

import numpy as np
import pytest

from bctsne import (
    OptimizerConfig,
    SimSpec,
    ValidationError,
    normalize_log1p_cpm,
    pca_reduce,
    run_tsne,
    simulate,
)
from bctsne.metrics import kbet_acceptance, lisi, pc_regression

from oracles import reference_normalize_log1p_cpm, reference_simulate_counts


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestSimulate:
    def test_shapes_and_integrality(self):
        spec = SimSpec(n_cells=60, n_genes=150, seed=0)
        out = simulate(spec)
        assert out.counts.shape == (60, 150)
        assert np.all(out.counts >= 0)
        assert np.array_equal(out.counts, np.round(out.counts))
        assert len(out.batch_labels) == 60
        assert len(out.group_labels) == 60

    def test_balanced_label_marginals(self):
        out = simulate(SimSpec(n_cells=80, n_genes=50, n_batches=4, n_groups=4))
        _, batch_counts = np.unique(out.batch_labels, return_counts=True)
        _, group_counts = np.unique(out.group_labels, return_counts=True)
        assert np.all(batch_counts == 20)
        assert np.all(group_counts == 20)

    def test_seed_determinism(self):
        spec = SimSpec(n_cells=40, n_genes=100, seed=5)
        a, b = simulate(spec), simulate(spec)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.batch_labels, b.batch_labels)

    def test_no_effects_cells_exchangeable(self):
        spec = SimSpec(
            n_cells=200, n_genes=300, batch_effect_sd=0.0, group_effect_sd=0.0, seed=1
        )
        out = simulate(spec)
        X = normalize_log1p_cpm(out.counts)
        scores = pca_reduce(X, 10).scores
        acc = kbet_acceptance(scores, out.batch_labels.tolist(), knn=20, seed=1)
        assert acc >= 0.8  # near the null acceptance level

    def test_group_only_effect_separates_groups(self):
        spec = SimSpec(
            n_cells=200,
            n_genes=400,
            batch_effect_sd=0.0,
            group_effect_sd=1.5,
            de_prob=0.2,
            seed=2,
        )
        out = simulate(spec)
        X = normalize_log1p_cpm(out.counts)
        scores = pca_reduce(X, 10).scores
        state = run_tsne(scores, OptimizerConfig(n_iter=400, seed=2))
        batch_lisi, _ = lisi(state.Y, out.batch_labels.tolist())
        assert batch_lisi > 0.9 * spec.n_batches

    def test_batch_effect_monotone_in_pc_regression(self):
        r2 = []
        for sd in (0.0, 0.5, 1.0):
            spec = SimSpec(
                n_cells=150, n_genes=300, batch_effect_sd=sd,
                group_effect_sd=0.0, seed=3,
            )
            out = simulate(spec)
            scores = pca_reduce(normalize_log1p_cpm(out.counts), 10).scores
            r2.append(pc_regression(scores, out.batch_labels.tolist()))
        assert r2[0] <= r2[1] + 1e-9
        assert r2[1] <= r2[2] + 1e-9

    @pytest.mark.parametrize("spec", [
        pytest.param(SimSpec(n_cells=1, n_genes=300, seed=1), id="1-cell"),
        pytest.param(SimSpec(n_cells=127, n_genes=300, seed=2), id="127-cells"),
        pytest.param(SimSpec(n_cells=128, n_genes=300, seed=3), id="128-cells"),
        pytest.param(SimSpec(n_cells=129, n_genes=300, seed=4), id="129-cells"),
        pytest.param(SimSpec(n_cells=500, n_genes=2000, seed=0), id="500-cells"),
        pytest.param(SimSpec(n_cells=300, n_genes=200, n_batches=1, n_groups=1, seed=5),
                     id="one-batch-one-group"),
        pytest.param(SimSpec(n_cells=300, n_genes=200, batch_effect_sd=0.0, seed=6),
                     id="no-batch-effect"),
        pytest.param(SimSpec(n_cells=300, n_genes=200, de_prob=0.0, seed=7), id="de_prob-0"),
        pytest.param(SimSpec(n_cells=300, n_genes=200, de_prob=1.0, seed=8), id="de_prob-1"),
    ])
    def test_blocks_match_whole_matrix_draw_bitwise(self, spec):
        # blocks of 128 cells, with a last block of 1 cell (129) or none left
        # over (128), take the same random stream as the whole-matrix draw
        counts = simulate(spec).counts
        assert counts.dtype == np.float64 and counts.flags.c_contiguous
        assert counts.tobytes() == reference_simulate_counts(spec).tobytes()

    def test_peak_output_and_block_scratch(self):
        # the count matrix, plus a few blocks of 128 rows: the expected counts
        # being formed, the one before them and the integer draw
        n, p = 1000, 2000
        out, peak = traced_peak(simulate, SimSpec(n_cells=n, n_genes=p, seed=0))
        block_scratch = 4 * 128 * p * 8
        assert peak <= out.counts.nbytes + block_scratch + 256 * 1024, peak

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            simulate(SimSpec(n_cells=0))
        with pytest.raises(ValidationError):
            simulate(SimSpec(de_prob=1.5))
        for sd in (np.nan, np.inf, -0.1):
            with pytest.raises(ValidationError, match="batch_effect_sd"):
                simulate(SimSpec(batch_effect_sd=sd))
            with pytest.raises(ValidationError, match="group_effect_sd"):
                simulate(SimSpec(group_effect_sd=sd))
        with pytest.raises(ValidationError, match="seed"):
            simulate(SimSpec(seed=-1))


class TestNormalize:
    def test_all_zero_gene_stays_zero(self):
        counts = np.array([[0.0, 3.0], [0.0, 5.0]])
        X = normalize_log1p_cpm(counts)
        assert np.all(X[:, 0] == 0)

    def test_single_cell_arithmetic(self):
        X = normalize_log1p_cpm(np.array([[1.0, 1.0]]))
        assert np.allclose(X, np.log1p(5000.0))

    def test_row_sum_identity(self):
        rng = np.random.default_rng(4)
        counts = rng.poisson(5.0, size=(20, 50)).astype(float)
        counts[:, 0] += 1  # no empty cells
        X = normalize_log1p_cpm(counts)
        assert np.allclose(np.expm1(X).sum(axis=1), 1e4)

    def test_matches_two_temporary_form_bitwise(self):
        counts = simulate(SimSpec(n_cells=300, n_genes=200, seed=9)).counts
        counts[17] = 0.0  # an empty cell keeps its zero row
        counts[:, 3] = 0.0
        X = normalize_log1p_cpm(counts)
        assert not np.any(X[17])
        assert X.tobytes() == reference_normalize_log1p_cpm(counts).tobytes()

    def test_peak_output_and_masks(self):
        # one n x p float64 output; the finiteness and sign checks take a
        # boolean mask each, an eighth of it, one at a time
        counts = simulate(SimSpec(n_cells=1000, n_genes=2000, seed=0)).counts
        X, peak = traced_peak(normalize_log1p_cpm, counts)
        assert peak <= X.nbytes + X.nbytes / 8 + 256 * 1024, peak

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            normalize_log1p_cpm(np.array([[-1.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_counts_rejected(self, bad):
        counts = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValidationError, match="counts contains non-finite"):
            normalize_log1p_cpm(counts)
