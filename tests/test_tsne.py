import linecache
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bctsne
from bctsne import (
    CalibrationWarning,
    DomainError,
    OptimizerConfig,
    OptimizerError,
    Projector,
    SimSpec,
    ValidationError,
    build_design,
    normalize_log1p_cpm,
    pca_reduce,
    run_tsne,
    simulate,
)
from bctsne.linalg import _BLOCK_ROWS, pairwise_sqdist
from bctsne.metrics import lisi, silhouette
from bctsne.tsne import _calibrate, _Kernel, _offdiag, input_affinities


from oracles import (
    calibrate_bandwidths_loop,
    embedding_affinities,
    kl_loss,
    literal_embedding_affinities,
    literal_input_affinities,
    reference_conditional_rows,
    reference_embedding_affinities,
    reference_kl_gradient,
    reference_kl_loss,
    reference_run_tsne,
    reference_tiled_gradient,
    reference_tiled_kl,
    row_perplexities,
)


def calibration_points():
    """Points whose squared distances exercise every branch of the search."""
    rng = np.random.default_rng(20)
    clustered = np.vstack([
        rng.standard_normal((40, 5)),
        rng.standard_normal((40, 5)) + 8.0,
        rng.standard_normal((3, 5)) * 60.0,  # far outliers
    ])
    duplicated = rng.standard_normal((30, 3))
    duplicated[10:15] = duplicated[:5]  # rows with zero distances
    duplicated[20:23] = duplicated[5]
    return {
        "random": rng.standard_normal((50, 4)),
        "clustered_outliers": clustered,
        "collinear": np.arange(12.0)[:, None] * [1.0, 2.0],
        "duplicates": duplicated,
    }


CALIBRATION_POINTS = calibration_points()
CALIBRATION_INPUTS = {name: pairwise_sqdist(X) for name, X in CALIBRATION_POINTS.items()}


@st.composite
def calibration_cases(draw):
    """(D, perplexity, max_iter): random, clustered-with-outliers and
    quarter-duplicate points, the duplicates exact or apart by rounding
    error alone, their coordinates scaled by 1e-3 to 1e3."""
    kind = draw(st.sampled_from(
        ["random", "clustered_outliers", "quarter_duplicates", "rounding_duplicates"]
    ))
    n = draw(st.integers(8, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, draw(st.integers(1, 5))))
    if kind == "clustered_outliers":
        X[: n // 2] += 8.0
        X[-max(1, n // 20) :] *= 60.0
    elif kind.endswith("duplicates"):
        q = n // 4
        X[n - q :] = X[rng.integers(0, n - q, q)]
        if kind == "rounding_duplicates":
            X[n - q :] *= 1.0 + 1e-15 * rng.standard_normal((q, 1))
    D = pairwise_sqdist(10.0 ** draw(st.floats(-3.0, 3.0)) * X)
    perplexity = draw(st.floats(2.0, n - 1.0))
    return D, perplexity, draw(st.sampled_from([0, 1, 2, 5, 200]))


def planted_layout(n=400, apart=12.0):
    """Four 2-D Gaussian clusters, 12 (or apart) apart with spread 1.5."""
    rng = np.random.default_rng(36)
    centers = apart * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return centers[np.arange(n) % 4] + rng.normal(0.0, 1.5, size=(n, 2))


def count_evaluated_rows(monkeypatch):
    """A one-element list that counts the rows _row_perplexities forms."""
    count, evaluate = [0], bctsne.tsne._row_perplexities

    def counted(D, rows, *args):
        count[0] += len(rows)
        return evaluate(D, rows, *args)

    monkeypatch.setattr(bctsne.tsne, "_row_perplexities", counted)
    return count


def count_gaussian_rows(monkeypatch):
    """A one-element list that counts the rows _gaussian_rows forms."""
    count, form = [0], bctsne.tsne._gaussian_rows

    def counted(D, rows, *args):
        count[0] += len(rows)
        return form(D, rows, *args)

    monkeypatch.setattr(bctsne.tsne, "_gaussian_rows", counted)
    return count


def bandwidths(D, perplexity):
    """The bandwidth search's sigma^2 on squared distances D."""
    return _calibrate(D, perplexity, False)[0]


def locate_blocks(D, perplexity):
    """_locate on D's blocks of 128 rows, as _calibrate runs it."""
    for i in range(0, len(D), _BLOCK_ROWS):
        d = _offdiag(D, np.arange(i, min(i + _BLOCK_ROWS, len(D))))
        nearest = d.min(axis=1)
        bctsne.tsne._locate(d - nearest[:, None], nearest, perplexity)


def newton_steps_per_row(monkeypatch, D, perplexity):
    """Steps that _locate's Newton solve takes per row of D: each step of a
    row moves its bracket once, through _bisect."""
    count, bisect = [0], bctsne.tsne._bisect

    def counted(x, *args):
        count[0] += len(x)
        return bisect(x, *args)

    with monkeypatch.context() as patch:
        patch.setattr(bctsne.tsne, "_bisect", counted)
        locate_blocks(D, perplexity)
    return count[0] / len(D)


def entropy_bisect_oracle(d, perplexity, lo=1e-12, hi=1e12, steps=200):
    """Scalar bisection on achieved perplexity as a function of sigma^2."""

    def perp(s2):
        logits = -0.5 * d / s2
        logits = logits - logits.max()
        p = np.exp(logits)
        p = p / p.sum()
        h = -np.sum(p * np.log(np.maximum(p, 1e-300)))
        return np.exp(h)

    for _ in range(steps):
        mid = np.sqrt(lo * hi)
        if perp(mid) > perplexity:
            hi = mid
        else:
            lo = mid
    return np.sqrt(lo * hi)


class TestCalibrateBandwidths:
    def test_equilateral_uniform_perplexity_two(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        D = pairwise_sqdist(X)
        sigma2 = bandwidths(D, 2.0)
        for i in range(3):
            d = np.delete(D[i], i)
            p = np.exp(-0.5 * d / sigma2[i])
            p /= p.sum()
            assert np.allclose(p, 0.5)

    def test_collinear_matches_bisection_oracle(self, monkeypatch):
        # target 2.5 keeps the entropy strictly monotone at the solution
        # (target 2 is attained in the sigma -> 0 limit for interior points
        # with tied nearest neighbors, so sigma^2 would be non-unique there)
        X = np.arange(5.0)[:, None]
        D = pairwise_sqdist(X)
        monkeypatch.setattr(bctsne.tsne, "_TOL", 1e-8)
        sigma2 = bandwidths(D, 2.5)
        for i in range(5):
            d = np.delete(D[i], i)
            oracle = entropy_bisect_oracle(d, 2.5)
            assert sigma2[i] == pytest.approx(oracle, rel=1e-5)

    def test_large_perplexity_limit(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 3))
        D = pairwise_sqdist(X)
        target = 11 - 1e-6
        sigma2 = bandwidths(D, target)
        for i in range(12):
            d = np.delete(D[i], i)
            p = np.exp(-0.5 * d / sigma2[i])
            p /= p.sum()
            h = -np.sum(p * np.log(p))
            assert np.exp(h) >= 0.99 * 11

    def test_duplicate_rows_rejected(self):
        duplicates = r"^row 0 has zero distance to every other point \(duplicates\)$"
        for call in (lambda: bandwidths(np.zeros((4, 4)), 2.0),
                     lambda: bandwidths(pairwise_sqdist(np.full((6, 3), 2.5)), 2.0),
                     lambda: input_affinities(np.zeros((10, 2)), 3.0)):
            with pytest.raises(ValidationError, match=duplicates):
                call()

    @pytest.mark.parametrize("perplexity, name", [
        *((p, name) for p in (2.5, 8.0) for name in sorted(CALIBRATION_INPUTS)),
        # every point of a 6 x 5 integer grid has at least 2 neighbours tied at
        # its nearest distance, so its perplexity exceeds 2 at every bandwidth:
        # each step of its search goes down in sigma^2, and the 26 points with
        # 3 or 4 such neighbours never land.  _MAX_ITER steps stay far above
        # those (about 700) where the Gaussian rows' logits overflow
        (2.0, "grid"),
    ])
    def test_matches_row_loop_oracle_bitwise(self, monkeypatch, perplexity, name):
        grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0)), -1).reshape(-1, 2)
        D = {**CALIBRATION_INPUTS, "grid": pairwise_sqdist(grid)}[name]
        for max_iter in (200, 5, 2, 1, 0):  # few steps leave rows unconverged
            monkeypatch.setattr(bctsne.tsne, "_MAX_ITER", max_iter)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CalibrationWarning)
                sigma2 = bandwidths(D, perplexity)
            oracle = calibrate_bandwidths_loop(D, perplexity, max_iter=max_iter)
            assert np.array_equal(sigma2, oracle), (name, max_iter)

    @settings(max_examples=100, deadline=None)
    @given(calibration_cases())
    def test_matches_row_loop_oracle_property(self, case):
        D, perplexity, max_iter = case
        # a context, not the function-scoped fixture, which hypothesis would
        # share between examples
        with pytest.MonkeyPatch.context() as monkeypatch, warnings.catch_warnings():
            monkeypatch.setattr(bctsne.tsne, "_MAX_ITER", max_iter)
            warnings.simplefilter("ignore", CalibrationWarning)
            sigma2 = bandwidths(D, perplexity)
        oracle = calibrate_bandwidths_loop(D, perplexity, max_iter=max_iter)
        assert sigma2.tobytes() == oracle.tobytes()

    def test_coincident_points_just_above_perplexity_two(self):
        # points 0, 6 and 7 coincide, so their perplexity falls to 2 as
        # sigma^2 goes to 0 and is flat just above 2: their window would
        # reach from x = log sigma^2 of about -707 to 706, where -d / 2 sigma^2
        # overflows or, 10 times as far apart, e^x does
        X = np.random.default_rng(49).standard_normal((8, 3))
        X[6:] = X[0]
        perplexity = np.nextafter(2.0, 3.0)
        for scale in (1.0, 10.0):
            D = pairwise_sqdist(scale * X)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CalibrationWarning)
                sigma2 = bandwidths(D, perplexity)
            oracle = calibrate_bandwidths_loop(D, perplexity)
            assert sigma2.tobytes() == oracle.tobytes(), scale

    def test_rounding_duplicates_left_to_the_plain_search(self):
        # each of 10 points has a copy off by rounding error: at the bandwidth
        # that separates the two, the evaluated perplexity jumps up and down
        # with the bandwidth, so no step of such a row may be skipped
        rng = np.random.default_rng(4)
        X = 30.0 * rng.standard_normal((40, 3))
        X[30:] = X[rng.integers(0, 30, 10)] * (1.0 + 1e-15 * rng.standard_normal((10, 1)))
        D = pairwise_sqdist(X)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationWarning)
            sigma2 = bandwidths(D, 2.0)
        assert sigma2.tobytes() == calibrate_bandwidths_loop(D, 2.0).tobytes()

    def test_certified_rows_skip_most_steps(self, monkeypatch):
        # two certification rows and the landing step per row, give or take;
        # the plain search forms about 28 rows per row.  With the clusters
        # 120 apart, each row's Newton terms for the other clusters lie far
        # below the floor of -700 put under them before exp
        n = 400
        for apart in (12.0, 120.0):
            D = pairwise_sqdist(planted_layout(n, apart))
            count = count_evaluated_rows(monkeypatch)
            sigma2 = bandwidths(D, 30.0)
            assert count[0] <= 4 * n, (apart, count[0])
            assert np.array_equal(sigma2, calibrate_bandwidths_loop(D, 30.0)), apart

    @pytest.fixture(scope="class")
    def realistic_points(self):
        """500-cell simulated PCA scores (the default simulation otherwise,
        seed 0), uncorrected and corrected for batch, a 30-D Gaussian cloud
        of 400 points, and planted_layout(400)."""
        sim = simulate(SimSpec(n_cells=500, seed=0))
        scores = pca_reduce(normalize_log1p_cpm(sim.counts), 30).scores
        corrected = build_design({"batch": sim.batch_labels.tolist()}).project(scores)
        cloud = np.random.default_rng(37).standard_normal((400, 30))
        return {"uncorrected": scores, "corrected": corrected, "cloud": cloud,
                "planted": planted_layout()}

    @pytest.fixture(scope="class")
    def realistic(self, realistic_points):
        """The squared distances of realistic_points."""
        return {name: pairwise_sqdist(X) for name, X in realistic_points.items()}

    @pytest.mark.parametrize("name, perplexity", [
        ("uncorrected", 30.0), ("corrected", 30.0), ("cloud", 5.0), ("cloud", 50.0),
    ])
    def test_certified_rows_skip_most_steps_on_realistic_inputs(
        self, monkeypatch, realistic, name, perplexity
    ):
        # 3.00 rows per row; a Newton solve without its bracket still
        # certifies the rows, but evaluates 13.7 to 24.5 rows per row here
        D = realistic[name]
        count = count_evaluated_rows(monkeypatch)
        bandwidths(D, perplexity)
        assert count[0] <= 4 * len(D), count[0]

    @pytest.mark.parametrize("name, perplexity", [
        ("uncorrected", 30.0), ("corrected", 30.0), ("cloud", 5.0), ("cloud", 50.0),
        ("planted", 30.0),
    ])
    def test_conditional_rows_come_from_the_search(
        self, monkeypatch, realistic_points, realistic, name, perplexity
    ):
        # 3.000 to 3.002 Gaussian rows per row, all formed by the search,
        # which keeps each point's last; one more row per point would fail
        X, D = realistic_points[name], realistic[name]
        for call in (lambda: _calibrate(D, perplexity, True),
                     lambda: input_affinities(X, perplexity)):
            with monkeypatch.context() as patch:
                count = count_gaussian_rows(patch)
                call()
            assert count[0] <= 3.05 * len(X), count[0]

    @pytest.mark.parametrize("name, perplexity", [
        ("uncorrected", 30.0), ("corrected", 30.0), ("cloud", 5.0), ("cloud", 50.0),
        ("planted", 30.0),
    ])
    def test_newton_starts_near_its_root(self, monkeypatch, realistic, name, perplexity):
        # from sigma^2 = r^2 / 2e, and stopping at a Newton step of at most
        # 1e-7, the solve takes 2.48 to 3.57 steps per row here (3.8 leaves a
        # margin of 0.23); it took 2.94 to 4.21 when it stopped only on the
        # perplexity's own error, and from r^2, a median 1.6 to 2.0 above the
        # root in log sigma^2, 5.18 to 5.64
        steps = newton_steps_per_row(monkeypatch, realistic[name], perplexity)
        assert steps <= 3.8, steps

    @pytest.mark.parametrize("name", ["planted", "uncorrected"])
    def test_newton_solve_never_underflows(self, realistic, name):
        # exp is many times slower on arguments below about -708, where its
        # results are subnormal; each block of these inputs reached them
        with np.errstate(under="raise"):
            locate_blocks(realistic[name], 30.0)

    @pytest.mark.parametrize("shift", [None, 0.5, -0.5])
    def test_without_certified_rows_every_step_is_evaluated(self, monkeypatch, shift):
        # no row located (None), or every window moved off its root, which
        # the certification must catch: each step is then formed as in the
        # plain search, and the result is the oracle's
        locate = bctsne.tsne._locate

        def misplaced(d, nearest, perplexity):
            edges = locate(d, nearest, perplexity)
            return np.full_like(edges, np.nan) if shift is None else edges + shift

        monkeypatch.setattr(bctsne.tsne, "_locate", misplaced)
        n = 400
        D = pairwise_sqdist(planted_layout(n))
        count = count_evaluated_rows(monkeypatch)
        sigma2 = bandwidths(D, 30.0)
        assert np.array_equal(sigma2, calibrate_bandwidths_loop(D, 30.0))
        steps = count[0] - (0 if shift is None else 2 * n)  # less the certification
        assert steps >= 20 * n, count[0]

    def test_peak_a_few_blocks_above_the_distances(self):
        # the start values, the Newton solve and the Gaussian rows each work
        # on 128 rows at a time: at most 6 blocks of 128 x n float64 besides D
        n = 1000
        D = pairwise_sqdist(np.random.default_rng(35).standard_normal((n, 30)))
        tracemalloc.start()
        try:
            bandwidths(D, 30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 128 * n * 8 + 256 * 1024, peak

    def test_zero_distance_rows_start_from_positive_mean(self, monkeypatch):
        D = CALIBRATION_INPUTS["duplicates"]
        monkeypatch.setattr(bctsne.tsne, "_MAX_ITER", 0)
        with pytest.warns(CalibrationWarning):
            start = bandwidths(D, 5.0)
        for i in range(D.shape[0]):
            d = np.delete(D[i], i)
            assert start[i] == np.exp(np.log(d[d > 0].mean()))
        assert np.any(D + np.eye(30) == 0)

    def test_unconverged_rows_warn_with_count_and_worst_miss(self, monkeypatch):
        D = CALIBRATION_INPUTS["clustered_outliers"]
        monkeypatch.setattr(bctsne.tsne, "_MAX_ITER", 2)
        with pytest.warns(CalibrationWarning) as record:
            sigma2 = bandwidths(D, 10.0)
        assert np.array_equal(sigma2, calibrate_bandwidths_loop(D, 10.0, max_iter=2))
        miss = np.abs(row_perplexities(D, sigma2) - 10.0)
        off = miss >= 1e-5
        message = str(record[0].message)
        count, worst = re.search(r"^(\d+) of 83 rows.* = (\S+)$", message).groups()
        assert int(count) == off.sum() > 0
        assert float(worst) == pytest.approx(miss[off].max(), rel=1e-2)

    def test_warning_points_at_the_callers_line(self, monkeypatch):
        Y = CALIBRATION_POINTS["clustered_outliers"]
        # each of 4 coincident points has 3 neighbours at distance 0, so its
        # perplexity cannot fall to 2 at any bandwidth
        X = np.random.default_rng(0).standard_normal((20, 3))
        X[1:4] = X[0]
        calls = {
            "lisi": lambda: lisi(Y, np.arange(len(Y)) % 2, 10.0),
            "input_affinities": lambda: input_affinities(X, 2.0),
        }
        for name, call in calls.items():
            if name == "lisi":  # two steps leave rows of Y's distances off target
                monkeypatch.setattr(bctsne.tsne, "_MAX_ITER", 2)
            with pytest.warns(CalibrationWarning) as record:
                call()
            monkeypatch.undo()
            assert record[0].filename == __file__, name
            assert name in linecache.getline(__file__, record[0].lineno), name

    def test_converged_search_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", CalibrationWarning)
            for D in CALIBRATION_INPUTS.values():
                bandwidths(D, 8.0)

    def test_perplexity_range(self):
        X = np.arange(5.0)[:, None]
        with pytest.raises(DomainError):
            input_affinities(X, 1.0)
        with pytest.raises(DomainError):
            input_affinities(X, 5.0)
        # above n - 1, the perplexity of a uniform distribution over the
        # other points, no bandwidth reaches the target
        with pytest.raises(DomainError):
            input_affinities(X, 4.5)
        with pytest.raises(DomainError):
            OptimizerConfig(perplexity=9.5).validate(10)


class TestConditionalRows:
    # the rows are those the bandwidth search formed last, block by block in
    # its one Gaussian-row routine, and must match the whole-array expression
    # bit for bit
    @staticmethod
    def points():
        X = np.random.default_rng(32).standard_normal((1000, 10))
        return {**CALIBRATION_POINTS, "n1000": X}

    @classmethod
    def inputs(cls):
        return {name: pairwise_sqdist(X) for name, X in cls.points().items()}

    @pytest.mark.parametrize("perplexity", [2.5, 8.0])
    def test_match_reference_bitwise(self, monkeypatch, perplexity):
        # at 2 and 0 steps most rows run out of steps, and their rows come
        # from the search's last check alone
        for name, X in self.points().items():
            D = pairwise_sqdist(X)
            for max_iter in (200, 2, 0):
                monkeypatch.setattr(bctsne.tsne, "_MAX_ITER", max_iter)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", CalibrationWarning)
                    sigma2 = bandwidths(D, perplexity)
                    W = _calibrate(D, perplexity, True)[1]
                    t = input_affinities(X, perplexity)
                cond = reference_conditional_rows(D, sigma2)
                P = (cond + cond.T) / (2.0 * len(X))
                P[P < np.finfo(np.float64).tiny] = 0.0
                assert np.array_equal(W, cond), (name, max_iter)
                assert np.array_equal(t.sigma2, sigma2), (name, max_iter)
                assert np.array_equal(t.P, P), (name, max_iter)

    @pytest.mark.parametrize("perplexity", [2.5, 8.0])
    def test_lisi_weights_match_reference_bitwise(self, perplexity):
        for name, D in self.inputs().items():
            if name == "n1000":  # too slow for the row-loop search; rows only
                sigma2 = bandwidths(D, perplexity)
            else:
                sigma2 = calibrate_bandwidths_loop(D, perplexity)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CalibrationWarning)
                W = _calibrate(D, perplexity, True)[1]
            assert np.array_equal(W, reference_conditional_rows(D, sigma2)), name

    def test_input_affinities_match_reference_bitwise(self):
        X = np.random.default_rng(33).standard_normal((300, 6))
        t = input_affinities(X, 20.0)
        cond = reference_conditional_rows(pairwise_sqdist(X), t.sigma2)
        P = (cond + cond.T) / (2.0 * 300)
        P[P < np.finfo(np.float64).tiny] = 0.0
        assert np.array_equal(t.P, P)


class TestInputAffinities:
    def test_square_corners_symmetry_classes(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        t = input_affinities(X, 2.5)
        edges = [t.P[0, 1], t.P[1, 2], t.P[2, 3], t.P[3, 0]]
        diags = [t.P[0, 2], t.P[1, 3]]
        assert np.allclose(edges, edges[0])
        assert np.allclose(diags, diags[0])
        assert diags[0] < edges[0]
        assert np.array_equal(t.P, t.P.T)

    def test_normalization_identity(self):
        rng = np.random.default_rng(1)
        t = input_affinities(rng.standard_normal((25, 6)), 10.0)
        assert abs(t.P.sum() - 1.0) < 1e-9
        assert np.all(np.diag(t.P) == 0)
        assert np.all(t.P >= 0)

    def test_matches_literal_formula_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 4))
        t = input_affinities(X, 8.0)
        oracle = literal_input_affinities(X, t.sigma2)
        assert np.abs(t.P - oracle).max() < 1e-10

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            input_affinities(np.eye(3), 2.0)

    def test_perplexity_checked_before_the_distances(self):
        # the n x n distances of 2000 points take 32 MB
        X = np.random.default_rng(41).standard_normal((2000, 2))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="perplexity"):
                input_affinities(X, 5000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024, peak

    def test_no_subnormal_entries(self):
        # two blobs far enough apart that exp underflows into subnormals for
        # some cross-blob conditional probabilities (122 of them before)
        rng = np.random.default_rng(20)
        X = np.vstack(
            [rng.standard_normal((40, 5)), rng.standard_normal((40, 5)) + 10]
        )
        P = input_affinities(X, 5.0).P
        assert not np.any((P > 0) & (P < np.finfo(np.float64).tiny))
        assert np.array_equal(P, P.T) and abs(P.sum() - 1.0) < 1e-12

    def test_peak_two_square_arrays(self):
        # D and the conditional rows, then the rows and P, are the only n x n
        # float64 arrays alive together; the subnormal mask is n x n bytes,
        # and the Gaussian rows take one block of 128 rows of scratch
        n = 1000
        X = np.random.default_rng(34).standard_normal((n, 30))
        tracemalloc.start()
        try:
            input_affinities(X, 30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        square = n * n * 8
        block_scratch = 128 * n * 8
        assert peak <= 2 * square + square / 8 + block_scratch + 256 * 1024, peak


class TestEmbeddingAffinities:
    def test_two_points(self):
        Q, _ = embedding_affinities(np.array([[0.0, 0.0], [1.0, 2.0]]))
        assert Q[0, 1] == pytest.approx(0.5)
        assert Q[1, 0] == pytest.approx(0.5)

    def test_coincident_points_kernel_peak(self):
        Y = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        _, W = embedding_affinities(Y)
        assert W[0, 1] == pytest.approx(1.0)
        assert W[0, 1] == W.max()

    def test_matches_literal_oracle(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((15, 2))
        Q, W = embedding_affinities(Y)
        Qo, Wo = literal_embedding_affinities(Y)
        assert np.abs(Q - Qo).max() < 1e-12
        assert np.abs(W - Wo).max() < 1e-12


class TestKlLoss:
    def test_zero_when_q_equals_p(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((10, 2))
        Q, _ = embedding_affinities(Y)
        assert kl_loss(Q, Q) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_three_points(self):
        # both tables normalized over off-diagonal pairs
        P = np.array([[0, 0.25, 0.10], [0.25, 0, 0.15], [0.10, 0.15, 0]])
        Q = np.array([[0, 0.20, 0.10], [0.20, 0, 0.20], [0.10, 0.20, 0]])
        expected = (
            2 * 0.25 * np.log(0.25 / 0.20)
            + 2 * 0.10 * np.log(0.10 / 0.10)
            + 2 * 0.15 * np.log(0.15 / 0.20)
        )
        assert kl_loss(P, Q) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            X = rng.standard_normal((12, 3))
            t = input_affinities(X, 5.0)
            Q, _ = embedding_affinities(rng.standard_normal((12, 2)))
            assert kl_loss(t.P, Q) >= 0

    def test_matches_masked_sum(self):
        # one vdot over every entry against the masked np.sum it replaced;
        # P has exact zeros off the diagonal too
        rng = np.random.default_rng(24)
        for n in (5, 50, 300):
            P = input_affinities(rng.standard_normal((n, 4)), 2.0).P
            P[P < np.quantile(P, 0.3)] = 0.0
            Q, _ = embedding_affinities(rng.standard_normal((n, 2)))
            ref = reference_kl_loss(P, Q)
            assert abs(kl_loss(P, Q) - ref) <= 1e-13 * ref

    def test_near_equal_tables_keep_relative_precision(self):
        # KL of nearly equal tables is a small difference of large sums:
        # summing p * (log p - log q) per entry keeps ~1e-13 of it, while
        # sum p log p - sum p log q keeps only ~1e-10 (reference in long double)
        rng = np.random.default_rng(28)
        for n in (100, 300):
            P = rng.random((n, n))
            P += P.T
            np.fill_diagonal(P, 0.0)
            P /= P.sum()
            Q = P * np.exp(1e-2 * rng.standard_normal((n, n)))
            Q += Q.T
            Q /= Q.sum()
            off = ~np.eye(n, dtype=bool)
            Pl, Ql = P[off].astype(np.longdouble), Q[off].astype(np.longdouble)
            exact = float(np.sum(Pl * (np.log(Pl) - np.log(Ql))))
            assert abs(kl_loss(P, Q) - exact) <= 1e-12 * exact

    def test_descent_over_first_iterations(self, monkeypatch):
        monkeypatch.setattr("bctsne.tsne._TRACE_EVERY", 1)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((100, 5))
        cfg = OptimizerConfig(
            n_iter=50, perplexity=20, eta=100, exaggeration_factor=1.0, seed=0
        )
        trace = []
        run_tsne(X, cfg, on_trace=trace.append)
        losses = [r.kl_loss for r in trace]
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestKlGradient:
    def test_zero_at_stationary_construction(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((10, 2))
        Q, _ = embedding_affinities(Y)
        grad = _Kernel(Q, 2)(Y)
        assert np.abs(grad).max() < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((12, 4))
        t = input_affinities(X, 5.0)
        Y = rng.standard_normal((12, 2))
        grad = _Kernel(t.P, 2)(Y)
        h = 1e-5
        for i in range(12):
            for j in range(2):
                Yp, Ym = Y.copy(), Y.copy()
                Yp[i, j] += h
                Ym[i, j] -= h
                fd = (
                    kl_loss(t.P, embedding_affinities(Yp)[0])
                    - kl_loss(t.P, embedding_affinities(Ym)[0])
                ) / (2 * h)
                assert abs(grad[i, j] - fd) < 1e-4 * max(abs(fd), 1e-8)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((10, 3))
        t = input_affinities(X, 4.0)
        Y = rng.standard_normal((10, 2))
        shifted = Y + np.array([3.7, -1.2])
        kernel = _Kernel(t.P, 2)
        assert np.abs(kernel(Y) - kernel(shifted)).max() < 1e-12
        l1 = kl_loss(t.P, embedding_affinities(Y)[0])
        l2 = kl_loss(t.P, embedding_affinities(shifted)[0])
        assert abs(l1 - l2) < 1e-10

    def test_tiled_kernel_matches_reference(self):
        # the tiled pass sums the gradient in another order and in the split
        # form exaggeration * A - R / Z, so it matches the per-entry n x n
        # expression to rounding only: observed up to 6.3e-14 of max|grad|,
        # at Y scales near 1e2, where both lose digits to the cancellation in
        # |y_i|^2 + |y_j|^2 - 2 y_i . y_j.  Asked for the KL too, the pass
        # keeps the gradient's bytes, and its KL is that of a walk of its own
        rng = np.random.default_rng(21)
        for n in (3, 60, 257, 800):
            P = rng.random((n, n))
            P += P.T
            np.fill_diagonal(P, 0.0)
            P /= P.sum()
            for dims in (2, 3):
                Y = rng.standard_normal((n, dims)) * 10.0 ** rng.uniform(-4, 2)
                for factor in (1.0, 12.0):
                    ref = reference_kl_gradient(P, Y, factor)
                    grad = _Kernel(P, dims)(Y, factor)
                    err = np.abs(grad - ref).max()
                    assert err <= 1e-13 * np.abs(ref).max(), (n, dims, factor)
                    traced, kl = _Kernel(P, dims)(Y, factor, True)
                    assert traced.tobytes() == grad.tobytes(), (n, dims, factor)
                    assert kl == reference_tiled_kl(P, Y), (n, dims, factor)

    @pytest.mark.parametrize("n", [4, 63, 64, 65, 128, 129, 200, 300, 511, 512, 513, 577,
                                   1100])
    def test_kernel_matches_frozen_tiled_oracle_bitwise(self, n):
        # sizes on either side of the 64-row tiles and the 512-column panels,
        # and groups of tiles of unequal widths (200: one group of 4 tiles;
        # 300: a group of a 64 x 108 and a 44 x 44 tile); one kernel serves
        # every call in turn, so a buffer left stale by an earlier call, with
        # another Y, exaggeration or kl, shows here
        rng = np.random.default_rng(n)
        P = rng.random((n, n))
        P += P.T
        zeros = rng.random((n, n)) < 0.1
        P[zeros | zeros.T] = 0.0  # about 19% zeros, which take the KL's PROB_FLOOR
        np.fill_diagonal(P, 0.0)
        P /= P.sum()
        for dims in (2, 3):
            Ya, Yb = rng.standard_normal((2, n, dims)) * 10.0 ** rng.uniform(-4, 2, (2, 1, 1))
            kernel = _Kernel(P, dims)
            for Y, factor, kl in [(Ya, 1.0, False), (Yb, 12.0, False), (Yb, 12.0, True),
                                  (Ya, 1.0, True), (Ya, 12.0, False), (Yb, 1.0, True)]:
                ref = reference_tiled_gradient(P, Y, factor, kl)
                for out in (kernel(Y, factor, kl), _Kernel(P, dims)(Y, factor, kl)):
                    if kl:
                        assert out[1] == ref[1], (dims, factor)
                        out, ref_grad = out[0], ref[0]
                    else:
                        ref_grad = ref
                    assert out.tobytes() == ref_grad.tobytes(), (dims, factor, kl)

    @pytest.mark.parametrize("n", [200, 600])
    def test_kernel_keeps_no_view_of_p(self, n):
        # the kernel reads its own packed copy of P's panels, so zeroing the
        # P it was built from moves no byte of its gradient or KL
        rng = np.random.default_rng(n + 1)
        P = rng.random((n, n))
        P += P.T
        np.fill_diagonal(P, 0.0)
        P /= P.sum()
        Y = rng.standard_normal((n, 2))
        kernel = _Kernel(P, 2)
        grad, kl = kernel(Y, 12.0, kl=True)
        P.fill(0.0)
        again, kl_again = kernel(Y, 12.0, kl=True)
        assert again.tobytes() == grad.tobytes() and kl_again == kl

    @pytest.mark.parametrize("dims", [2, 3])
    def test_built_kernel_allocates_nothing_tile_sized(self, dims):
        # once built, a call allocates only the gradient it returns, the one
        # temporary of that size it is formed from (2 * dims float64 per
        # point) and at most numpy's 64 KiB ufunc buffer.  A tile buffer
        # (768 KiB), or an accumulator of 3 (dims + 1) float64 per point made
        # per call, would not fit
        n = 1000
        rng = np.random.default_rng(31)
        P = rng.random((n, n))
        P += P.T
        P /= P.sum()
        Y = rng.standard_normal((n, dims))
        tracemalloc.start()
        try:
            kernel = _Kernel(P, dims)
            base = tracemalloc.get_traced_memory()[0]
            kernel(Y, 12.0)
            tracemalloc.reset_peak()
            for kl in (False, True, False, True):
                kernel(Y, 12.0, kl=kl)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * dims * 8 * n + 64 * 1024, peak

    def test_trace_kl_matches_reference(self, monkeypatch):
        # a trace step sums KL over the kernel's tiles as
        # sum p (log p - log w) + log Z sum p; the reference sums per-entry
        # log ratios over n x n arrays
        monkeypatch.setattr("bctsne.tsne._TRACE_EVERY", 100)
        rng = np.random.default_rng(30)
        for n in (257, 800):
            X = rng.standard_normal((n, 5))
            cfg = OptimizerConfig(n_iter=260, perplexity=20)
            trace = []
            state = run_tsne(X, cfg, on_trace=trace.append)
            P = input_affinities(X, 20.0).P
            ref = reference_kl_loss(P, embedding_affinities(state.Y)[0])
            assert trace[-1].iteration == 259, n
            assert abs(trace[-1].kl_loss - ref) <= 1e-13 * ref, n

    def test_embedding_affinities_match_reference_bitwise(self):
        rng = np.random.default_rng(22)
        for n in (3, 40, 257):
            Y = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-4, 2)
            Q, W = embedding_affinities(Y)
            Qr, Wr = reference_embedding_affinities(Y)
            assert np.array_equal(Q, Qr) and np.array_equal(W, Wr)


class TestRunTsne:
    def test_separated_blobs_high_silhouette(self):
        rng = np.random.default_rng(12)
        X = np.vstack(
            [rng.standard_normal((50, 5)), rng.standard_normal((50, 5)) + 10]
        )
        state = run_tsne(X, OptimizerConfig(n_iter=600, perplexity=20, seed=1))
        raw, _ = silhouette(state.Y, ["a"] * 50 + ["b"] * 50)
        assert raw > 0.5

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((40, 6))
        cfg = OptimizerConfig(n_iter=100, perplexity=10, seed=7)
        s1 = run_tsne(X, cfg)
        s2 = run_tsne(X, cfg)
        assert np.array_equal(s1.Y, s2.Y)

    @pytest.mark.parametrize("n_iter, every", [(1, 50), (50, 50), (51, 50), (200, 50),
                                               (7, 1)])
    def test_trace_cadence(self, monkeypatch, n_iter, every):
        # a record's KL comes from the next iteration's kernel pass, so
        # tracing adds one pass, after the last iteration, and moves no byte
        calls = []
        call = _Kernel.__call__

        def gradient(*args, **kwargs):
            calls.append(1)
            return call(*args, **kwargs)

        monkeypatch.setattr(_Kernel, "__call__", gradient)
        monkeypatch.setattr("bctsne.tsne._TRACE_EVERY", every)
        rng = np.random.default_rng(14)
        X = rng.standard_normal((30, 4))
        cfg = OptimizerConfig(n_iter=n_iter, perplexity=8, seed=0)
        trace = []
        traced = run_tsne(X, cfg, on_trace=trace.append)
        expected = sorted({t for t in range(n_iter) if t % every == 0} | {n_iter - 1})
        assert [r.iteration for r in trace] == expected
        assert all(np.isnan(r.orthogonality_maxabs) for r in trace)
        assert len(calls) == n_iter + 1
        calls.clear()
        assert run_tsne(X, cfg).Y.tobytes() == traced.Y.tobytes()
        assert len(calls) == n_iter

    def test_affinity_normalization_at_checkpoints(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((30, 4))
        state = run_tsne(X, OptimizerConfig(n_iter=60, perplexity=8, seed=0))
        Q, _ = embedding_affinities(state.Y)
        assert abs(Q.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("n, n_iter, factor, projected, dims", [
        (60, 120, 12.0, False, 2),
        (60, 260, 1.0, True, 3),
        (80, 300, 12.0, True, 2),
        (70, 251, 4.0, False, 3),
    ])
    def test_matches_earlier_loop_bitwise(self, monkeypatch, n, n_iter, factor, projected,
                                          dims):
        # the loop with the update and schedule inlined must reproduce the
        # separate `step` with its momentum schedule bit for bit, on both
        # sides of the switch at iteration 250
        monkeypatch.setattr("bctsne.tsne._TRACE_EVERY", 10)
        rng = np.random.default_rng(n + n_iter)
        X = rng.standard_normal((n, 5))
        X[: n // 2] += 4.0
        projector = None
        if projected:
            projector = build_design({"b": (np.arange(n) % 3).tolist()})
        cfg = OptimizerConfig(n_iter=n_iter, perplexity=10, exaggeration_factor=factor,
                              dims=dims, seed=n)
        trace = []
        state = run_tsne(X, cfg, projector=projector, on_trace=trace.append)
        Y, _, ref_trace = reference_run_tsne(X, cfg, projector, trace_every=10)
        assert np.array_equal(state.Y, Y)
        assert [r.iteration for r in trace] == [t for t, _, _ in ref_trace]
        for rec, (_, kl, orth) in zip(trace, ref_trace):
            assert abs(rec.kl_loss - kl) <= 1e-13 * kl
            assert np.array_equal(rec.orthogonality_maxabs, orth, equal_nan=True)

    @pytest.mark.parametrize("factor", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_exaggeration_rejected(self, factor):
        X = np.random.default_rng(27).standard_normal((20, 3))
        with pytest.raises(DomainError, match="exaggeration"):
            run_tsne(X, OptimizerConfig(n_iter=5, perplexity=5, exaggeration_factor=factor))

    def test_negative_seed_rejected(self):
        X = np.random.default_rng(27).standard_normal((20, 3))
        with pytest.raises(DomainError, match="seed"):
            run_tsne(X, OptimizerConfig(n_iter=5, perplexity=5, seed=-1))

    def test_design_row_count_checked_before_rank(self):
        # a 50-row design of rank 49 on 10 points is a row mismatch, not a
        # design that leaves -39 dimensions free
        X = np.random.default_rng(27).standard_normal((10, 3))
        projector = Projector(np.eye(50)[:, :49])
        with pytest.raises(ValidationError, match="row mismatch"):
            run_tsne(X, OptimizerConfig(n_iter=5, perplexity=3), projector=projector)

    @pytest.mark.parametrize("k", [0, 3, 251])
    def test_non_finite_gradient_raises_with_iteration(self, monkeypatch, k):
        calls = []
        call = _Kernel.__call__

        def gradient(kernel, Y, exaggeration=1.0, **kwargs):
            calls.append(1)
            out = call(kernel, Y, exaggeration, **kwargs)
            grad = out[0] if kwargs.get("kl") else out
            if len(calls) == k + 1:
                grad[1, 0] = np.nan
            return out

        monkeypatch.setattr(_Kernel, "__call__", gradient)
        monkeypatch.setattr("bctsne.tsne._TRACE_EVERY", 2)
        X = np.random.default_rng(25).standard_normal((20, 3))
        for traced in (False, True):
            calls.clear()
            trace = []
            with pytest.raises(OptimizerError) as exc:
                run_tsne(X, OptimizerConfig(n_iter=300, perplexity=5),
                         on_trace=trace.append if traced else None)
            assert exc.value.iteration == k
            assert len(calls) == k + 1
            # the record of iteration k - 1 comes from the pass that fails
            expected = [t for t in range(k) if t % 2 == 0] if traced else []
            assert [r.iteration for r in trace] == expected

    @staticmethod
    def _memory(monkeypatch, X, cfg, on_trace):
        """Bytes traced while run_tsne runs: "affinities", the peak inside
        input_affinities; "returned", what the run holds once it returns;
        "build", the peak from then to the kernel's first pass, which spans
        the kernel's build; "built", what the run holds at that pass; and
        "loop", the peak from then on, above "built".  "built" is read at the
        first pass and not when the build returns, since the call that builds
        the kernel holds the dense P until it has returned."""
        marks = {}
        call = _Kernel.__call__

        def affinities(*args, **kwargs):
            tracemalloc.reset_peak()
            table = input_affinities(*args, **kwargs)
            marks["affinities"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            marks["returned"] = tracemalloc.get_traced_memory()[0]
            return table

        def first_pass(kernel, *args, **kwargs):
            if "built" not in marks:
                marks["build"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                marks["built"] = tracemalloc.get_traced_memory()[0]
            return call(kernel, *args, **kwargs)

        monkeypatch.setattr("bctsne.tsne.input_affinities", affinities)
        monkeypatch.setattr(_Kernel, "__call__", first_pass)
        monkeypatch.setattr("bctsne.tsne._TRACE_EVERY", 1)
        tracemalloc.start()
        try:
            run_tsne(X, cfg, on_trace=on_trace)
            marks["loop"] = tracemalloc.get_traced_memory()[1] - marks["built"]
        finally:
            tracemalloc.stop()
        return marks

    # a pass over the kernel's tiles keeps three arrays of at most 64 x 512
    # float64s; an n x n array at n = 1000 is 8 MB
    N_MEMORY = 1000
    TILE_SCRATCH = 3 * 64 * 512 * 8

    def test_trace_step_adds_no_square_array(self, monkeypatch):
        # the trace's KL is summed in the gradient pass's own tile scratch
        X = np.random.default_rng(26).standard_normal((self.N_MEMORY, 5))
        cfg = OptimizerConfig(n_iter=3, perplexity=20)
        peaks = [self._memory(monkeypatch, X, cfg, on_trace)["loop"]
                 for on_trace in (None, lambda rec: None)]
        assert peaks[1] - peaks[0] <= 256 * 1024, peaks

    def test_loop_holds_no_square_array_besides_p(self, monkeypatch):
        # from the first pass on, the run holds the kernel's packed P and, besides
        # the tiles, arrays of a few dozen float64s per point (iterates, gains,
        # gradient, accumulators)
        X = np.random.default_rng(29).standard_normal((self.N_MEMORY, 5))
        cfg = OptimizerConfig(n_iter=3, perplexity=20)
        peak = self._memory(monkeypatch, X, cfg, lambda rec: None)["loop"]
        per_point = 64 * 8 * self.N_MEMORY
        assert peak <= self.TILE_SCRATCH + 256 * 1024 + per_point, peak

    def test_kernel_build_frees_the_dense_p(self, monkeypatch):
        # the kernel packs P's panels at and above the diagonal (0.53 n x n at
        # n = 1000) and the run lets go of the dense P before its first pass,
        # so it then holds at least 0.4 n x n less than input_affinities
        # returned, besides the kernel's scratch (tiles and a few dozen
        # float64s per point, as the loop's bound allows).  While both P exist
        # (about 1.53 n x n), the run stays below input_affinities' 2 n x n
        n = self.N_MEMORY
        X = np.random.default_rng(32).standard_normal((n, 5))
        cfg = OptimizerConfig(n_iter=3, perplexity=20)
        marks = self._memory(monkeypatch, X, cfg, None)
        scratch = self.TILE_SCRATCH + 64 * 8 * n
        assert marks["built"] <= marks["returned"] - 0.4 * n * n * 8 + scratch, marks
        assert marks["build"] < marks["affinities"], marks

    def test_same_bytes_at_one_and_two_blas_threads(self):
        # the kernel keeps every BLAS product below OpenBLAS's threading
        # cutoff, so the embedding cannot depend on the thread count
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from bctsne import OptimizerConfig, run_tsne\n"
            "for n in (1000, 2000):\n"
            "    X = np.random.default_rng(n).standard_normal((n, 10))\n"
            "    Y = run_tsne(X, OptimizerConfig(n_iter=50, seed=0)).Y\n"
            "    print(n, hashlib.sha256(Y.tobytes()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(bctsne.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=600).stdout
            digests.append(out.split())
        assert len(digests[0]) == 4 and digests[0] == digests[1], digests
