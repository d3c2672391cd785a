from fractions import Fraction
import tracemalloc
import warnings

import numpy as np
import pytest

import bctsne.metrics
from bctsne import (
    CalibrationWarning,
    DomainError,
    MetricsConfig,
    ValidationError,
    build_design,
    evaluate,
)
from bctsne.metrics import _chi2_sf, kbet_acceptance, lisi, pc_regression, silhouette


from oracles import (
    exact_pc_regression,
    kbet_loop,
    silhouette_oracle,
    svd_pc_regression,
)


def kbet_layouts():
    """Tie-free and tied 2-D layouts with a partly batch-driven structure."""
    rng = np.random.default_rng(30)
    batch = rng.integers(0, 3, 150)
    smooth = rng.standard_normal((150, 2)) + 1.5 * batch[:, None]
    grid = np.round(smooth)  # many equal distances, also at the k-th neighbour
    return {"tie_free": smooth, "tied": grid}, [f"b{b}" for b in batch]


def collapsed_layout():
    """60 points labelled a, b, c in turn: a and b at the origin, c drawn
    from N(5, 1) in 2-D."""
    labels = ["abc"[i % 3] for i in range(60)]
    Y = np.zeros((60, 2))
    Y[2::3] = np.random.default_rng(42).normal(5.0, 1.0, (20, 2))
    return Y, labels


def peak_before_refusal(call, error, match):
    """The tracemalloc peak, in bytes, of call up to its expected error."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSilhouette:
    def test_separated_blobs(self):
        rng = np.random.default_rng(0)
        Y = np.vstack([rng.standard_normal((30, 2)), rng.standard_normal((30, 2)) + 50])
        raw, rescaled = silhouette(Y, ["a"] * 30 + ["b"] * 30)
        assert raw > 0.9
        assert rescaled < 0.1

    def test_random_labels_near_zero_raw(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((80, 2))
        raws = []
        for _ in range(100):
            labels = rng.permutation(["a"] * 40 + ["b"] * 40)
            raw, rescaled = silhouette(Y, labels)
            raws.append(raw)
            assert 0.0 <= rescaled <= 1.0
        assert abs(np.mean(raws)) < 0.05

    def test_hand_instance(self):
        # two within-pair distances 1, across-pair distances ~10
        Y = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        raw, _ = silhouette(Y, ["a", "a", "b", "b"])
        # a=1, b=mean(10,11)=10.5 or mean(9,10)=9.5 per point; matches oracle
        assert raw == pytest.approx(silhouette_oracle(Y, [0, 0, 1, 1]), abs=1e-12)
        assert raw == pytest.approx((9.5 - 1) / 9.5 / 2 + (10.5 - 1) / 10.5 / 2, abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((25, 2))
        codes = rng.integers(0, 3, 25)
        # guard against singleton levels in the draw
        while np.bincount(codes, minlength=3).min() < 2:
            codes = rng.integers(0, 3, 25)
        raw, _ = silhouette(Y, codes.tolist())
        assert raw == pytest.approx(silhouette_oracle(Y, codes.tolist()), abs=1e-10)

    def test_singleton_level_rejected(self):
        Y = np.zeros((4, 2)) + np.arange(4)[:, None]
        with pytest.raises(ValidationError):
            silhouette(Y, ["a", "a", "a", "b"])

    def test_collapsed_levels_give_zero_width(self):
        # a and b share the origin, so a_i = b_i = 0 for their points, whose
        # width is 0 (it was 0 / 0 = nan); c's points keep theirs
        Y, labels = collapsed_layout()
        raw, rescaled = silhouette(Y, labels)
        assert raw == pytest.approx(silhouette_oracle(Y, labels), abs=1e-12)
        assert 0.0 < raw < 1.0 and rescaled == 1.0 - raw


class TestKbet:
    def test_null_coin_flip_batches_accepted(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((400, 2))
        batch = rng.integers(0, 2, 400)
        acc = kbet_acceptance(Y, batch.tolist(), knn=40, seed=0)
        assert acc >= 0.85

    def test_total_confounding_rejected(self):
        rng = np.random.default_rng(3)
        Y = np.vstack(
            [rng.standard_normal((100, 2)), rng.standard_normal((100, 2)) + 30]
        )
        batch = ["a"] * 100 + ["b"] * 100
        acc = kbet_acceptance(Y, batch, knn=20, seed=0)
        assert acc < 0.05

    def test_single_batch_level_rejected(self):
        with pytest.raises(ValidationError):
            kbet_acceptance(np.zeros((10, 2)) + np.arange(10)[:, None], ["a"] * 10)

    def test_knn_too_small(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((2000, 2))
        batch = (np.arange(2000) % 1000).tolist()  # 1000 levels, props 1/1000
        with pytest.raises(ValidationError, match="knn"):
            kbet_acceptance(Y, batch, knn=10)

    @pytest.mark.parametrize("n, knn", [(8, 7), (10, 9), (11, 10), (250, 12)])
    def test_default_knn_capped_at_n_minus_one(self, n, knn):
        rng = np.random.default_rng(n)
        Y = rng.standard_normal((n, 2))
        batch = (np.arange(n) % 2).tolist()
        assert kbet_acceptance(Y, batch) == kbet_loop(Y, batch, knn, n, seed=0)

    @pytest.mark.parametrize("knn", [0, 8])
    def test_explicit_knn_outside_range_rejected(self, knn):
        Y = np.random.default_rng(8).standard_normal((8, 2))
        with pytest.raises(ValidationError, match=r"knn must be in \[1, 7\]"):
            kbet_acceptance(Y, (np.arange(8) % 2).tolist(), knn=knn)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((120, 2))
        batch = rng.integers(0, 3, 120).tolist()
        a1 = kbet_acceptance(Y, batch, knn=15, n_test=60, seed=9)
        a2 = kbet_acceptance(Y, batch, knn=15, n_test=60, seed=9)
        assert a1 == a2

    @pytest.mark.parametrize("n_test", [0, -3])
    def test_n_test_below_one_rejected(self, n_test):
        layouts, batch = kbet_layouts()
        with pytest.raises(ValidationError, match="n_test"):
            kbet_acceptance(layouts["tie_free"], batch, n_test=n_test)

    def test_negative_seed_rejected(self):
        layouts, batch = kbet_layouts()
        with pytest.raises(ValidationError, match="seed"):
            kbet_acceptance(layouts["tie_free"], batch, seed=-1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, -0.1, np.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        layouts, batch = kbet_layouts()
        with pytest.raises(DomainError, match="alpha"):
            kbet_acceptance(layouts["tie_free"], batch, alpha=alpha)

    @pytest.mark.parametrize("layout", ["tie_free", "tied"])
    def test_matches_row_loop_oracle(self, layout):
        layouts, batch = kbet_layouts()
        Y = layouts[layout]
        values = set()
        for knn, n_test, seed in [(10, 150, 0), (12, 60, 1), (25, 100, 2), (40, 149, 3)]:
            acc = kbet_acceptance(Y, batch, knn=knn, n_test=n_test, seed=seed)
            assert acc == kbet_loop(Y, batch, knn, n_test, seed=seed)
            values.add(acc)
        assert len(values) > 1 and 0.0 < min(values) and max(values) < 1.0

    @pytest.mark.parametrize("layout", ["tie_free", "tied"])
    @pytest.mark.parametrize("levels", [4, 6])
    def test_matches_row_loop_oracle_at_more_levels(self, levels, layout):
        # chi-squared with levels - 1 = 3 and 5 degrees of freedom; 4 batches
        # are the pipeline's default.  Batch centres on a unit circle, so
        # every triple accepts some points and rejects others
        rng = np.random.default_rng(levels)
        batch = rng.integers(0, levels, 200)
        angle = 2 * np.pi * batch / levels
        Y = rng.standard_normal((200, 2)) + np.c_[np.cos(angle), np.sin(angle)]
        if layout == "tied":
            Y = np.round(Y)
        labels = [f"b{b}" for b in batch]
        for knn, n_test, seed in [(10, 200, 0), (15, 80, 1), (30, 120, 2), (50, 199, 3)]:
            acc = kbet_acceptance(Y, labels, knn=knn, n_test=n_test, seed=seed)
            assert acc == kbet_loop(Y, labels, knn, n_test, seed=seed)
            assert 0.0 < acc < 1.0

    def test_p_value_matches_scipy_chdtrc(self):
        # kBET's closed-form chi-squared tail against scipy's, imported here
        # only; every x from 0 to 5000, densest where kBET's statistics lie
        from scipy.special import chdtrc

        x = np.unique(np.concatenate([
            np.linspace(0.0, 5000.0, 5001), np.linspace(0.0, 200.0, 2001),
            np.geomspace(1e-12, 1.0, 200),
        ]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # also under a pytest that allows them
            for df in range(1, 151):
                ref, got = chdtrc(df, x), _chi2_sf(df, x)
                assert got[0] == 1.0  # at x = 0
                assert np.all(got >= 0.0)
                tail = ref > 1e-10
                np.testing.assert_allclose(got[tail], ref[tail], rtol=1e-12, atol=0)
                np.testing.assert_allclose(got[~tail], ref[~tail], rtol=0, atol=1e-10)
                far = _chi2_sf(df, np.array([1e6]))
                assert np.isfinite(far[0]) and far[0] >= 0.0


class TestLisi:
    def test_single_label(self):
        rng = np.random.default_rng(6)
        Y = rng.standard_normal((30, 2))
        mean_raw, rescaled = lisi(Y, ["x"] * 30, perplexity=10)
        assert mean_raw == pytest.approx(1.0, abs=1e-9)
        assert rescaled == 0.0

    def test_uniform_mixture_approaches_level_count(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((500, 2))
        L = 4
        labels = rng.integers(0, L, 500).tolist()
        mean_raw, rescaled = lisi(Y, labels, perplexity=100)
        assert abs(mean_raw - L) / L < 0.1
        assert rescaled > 0.85

    def test_fully_separated(self):
        rng = np.random.default_rng(8)
        Y = np.vstack(
            [rng.standard_normal((60, 2)), rng.standard_normal((60, 2)) + 100]
        )
        labels = ["a"] * 60 + ["b"] * 60
        mean_raw, rescaled = lisi(Y, labels, perplexity=20)
        assert mean_raw == pytest.approx(1.0, abs=0.01)
        assert rescaled < 0.01

    def test_perplexity_checked_before_the_distances(self):
        # the n x n distances of 2000 points take 32 MB
        Y = np.random.default_rng(43).standard_normal((2000, 2))
        peak = peak_before_refusal(lambda: lisi(Y, (np.arange(2000) % 3).tolist(), 5000.0),
                                   DomainError, "perplexity")
        assert peak < 1024 * 1024, peak

    def test_labels_checked_before_the_weights(self, monkeypatch):
        # so a wrong labeling is named before an out-of-range perplexity, and
        # neither the distances nor the calibration are spent on it
        Y = np.random.default_rng(19).standard_normal((40, 2))
        with pytest.raises(ValidationError, match="labels length"):
            lisi(Y, ["a", "b"] * 10, perplexity=100.0)

        def refuse(Y):
            raise AssertionError("distances formed")

        monkeypatch.setattr(bctsne.metrics, "pairwise_sqdist", refuse)
        with pytest.raises(ValidationError, match="labels length"):
            lisi(Y, ["a", "b"] * 10)


class TestPcRegression:
    def test_projected_embedding_gives_zero(self):
        rng = np.random.default_rng(9)
        batch = (np.arange(60) % 3).tolist()
        Y = build_design({"batch": batch}).project(rng.standard_normal((60, 2)))
        assert pc_regression(Y, batch) < 1e-6

    def test_dummy_coordinate_gives_one(self):
        batch = ([0] * 20 + [1] * 20)
        Y = np.column_stack([np.array(batch, float), np.array(batch, float) * 2.0])
        assert pc_regression(Y, batch) == pytest.approx(1.0, abs=1e-9)

    def test_random_labels_null_band(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((200, 5))
        vals = [
            pc_regression(Y, rng.integers(0, 4, 200).tolist()) for _ in range(50)
        ]
        # expected R^2 of noise on b=3 dummies is about b/(n-1)
        assert abs(np.mean(vals) - 3 / 199) < 3 / 199

    def test_variance_weighting(self):
        rng = np.random.default_rng(11)
        labels = ([0] * 30 + [1] * 30)
        # first (dominant-variance) direction is pure label signal
        strong = np.array(labels, float) * 100 + rng.standard_normal(60) * 0.01
        weak = rng.standard_normal(60)
        r2 = pc_regression(np.column_stack([strong, weak]), labels)
        assert r2 > 0.95

    def test_matches_svd_form(self):
        # |fitted(M_c)|^2 / |M_c|^2 against the S^2-weighted mean of the
        # per-component R^2; these inputs differ by at most 2.2e-16
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(6, 120))
            M = rng.standard_normal((n, int(rng.integers(1, 6))))
            M *= 10.0 ** rng.uniform(-3, 3, M.shape[1])
            if M.shape[1] > 1 and rng.random() < 0.3:
                M[:, -1] = M[:, 0] * 2.0  # rank-deficient
            codes = rng.integers(0, int(rng.integers(2, 5)), n)
            _, codes = np.unique(codes, return_inverse=True)
            if codes.max() == 0:
                continue
            expected = svd_pc_regression(M, codes)
            assert abs(pc_regression(M, codes.tolist()) - expected) <= 1e-12

    def test_close_to_exact_rational_value(self):
        # random inputs, some far from the origin: observed error 3.6e-17
        rng = np.random.default_rng(35)
        for _ in range(10):
            n = int(rng.integers(20, 150))
            Y = rng.standard_normal((n, int(rng.integers(1, 4))))
            Y = Y * 10.0 ** rng.uniform(-2, 3) + rng.uniform(-100, 100)
            labels = rng.integers(0, 3, n).tolist()
            r2 = Fraction(pc_regression(Y, labels))
            assert abs(float(r2 - exact_pc_regression(Y, labels))) <= 1e-15

    @pytest.mark.parametrize("value", [0.0, 0.1, -3.7])
    def test_constant_embedding_rejected(self, value):
        Y = np.full((40, 2), value)
        with pytest.raises(ValidationError, match="no variance"):
            pc_regression(Y, ["a", "b"] * 20)

    def test_single_level_rejected(self):
        Y = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(ValidationError, match="pc_regression needs at least 2 label levels"):
            pc_regression(Y, ["a"] * 10)


class TestEvaluate:
    def test_report_structure_and_ranges(self):
        rng = np.random.default_rng(12)
        Y = rng.standard_normal((100, 2))
        labelings = {
            "batch": rng.integers(0, 2, 100).tolist(),
            "group": rng.integers(0, 4, 100).tolist(),
        }
        report = evaluate(Y, labelings, MetricsConfig(knn=12, seed=1))
        rows = report.rows()
        assert [r[0] for r in rows] == ["batch"] * 4 + ["group"] * 4
        for labeling, metric, raw, rescaled in rows:
            # kBET's and PcReg's rescaled values are their raw ones
            assert 0.0 <= rescaled <= 1.0
            if metric == "lisi":
                assert 1.0 <= raw
        assert len(rows) == 8
        assert {r[1] for r in rows} == {"silhouette", "kbet", "lisi", "pcreg"}

    def test_table_lists_each_labelings_rescaled_values(self):
        rng = np.random.default_rng(12)
        Y = rng.standard_normal((60, 2))
        labelings = {"batch": (np.arange(60) % 2).tolist(),
                     "group": (np.arange(60) % 3).tolist()}
        report = evaluate(Y, labelings, MetricsConfig(knn=10))
        lines = report.format_table().split("\n")
        assert lines[0].split() == ["labeling", "SIL", "kBET", "LISI", "PcReg"]
        rows = report.rows()
        for line, start in zip(lines[1:], (0, 4), strict=True):
            expected = [rows[start][0]] + [f"{r[3]:.3f}" for r in rows[start : start + 4]]
            assert line.split() == expected

    @pytest.mark.parametrize("layout", ["tie_free", "tied"])
    def test_rows_equal_separate_metric_calls(self, layout):
        layouts, batch = kbet_layouts()
        Y = layouts[layout]
        group = (np.arange(150) % 4).tolist()
        cfg = MetricsConfig(knn=12, n_test=80, lisi_perplexity=20.0, seed=4)
        expected = []
        for name, labels in (("batch", batch), ("group", group)):
            raw, resc = silhouette(Y, labels)
            kbet = kbet_acceptance(Y, labels, knn=12, n_test=80, seed=4)
            lisi_mean, lisi_resc = lisi(Y, labels, perplexity=20.0)
            pcr = pc_regression(Y, labels)
            expected += [(name, "silhouette", raw, resc), (name, "kbet", kbet, kbet),
                         (name, "lisi", lisi_mean, lisi_resc), (name, "pcreg", pcr, pcr)]
        assert evaluate(Y, {"batch": batch, "group": group}, cfg).rows() == expected

    def test_kbet_neighbours_searched_once_per_embedding(self, monkeypatch):
        # the search depends on knn, n_test and seed alone; each labeling
        # counts its batches from the one index
        calls, search = [], bctsne.metrics._kbet_neighbours

        def counted(*args):
            calls.append(args[1:])
            return search(*args)

        monkeypatch.setattr(bctsne.metrics, "_kbet_neighbours", counted)
        layouts, batch = kbet_layouts()
        labelings = {"batch": batch, "group": (np.arange(150) % 4).tolist()}
        for Y in layouts.values():
            evaluate(Y, labelings, MetricsConfig(knn=12, n_test=80, seed=4))
        assert calls == [(12, 80, 4)] * 2

    def test_each_labeling_encoded_once(self, monkeypatch):
        calls, encode = [], bctsne.metrics.encode_labels

        def counted(labels, n):
            calls.append(labels)
            return encode(labels, n)

        monkeypatch.setattr(bctsne.metrics, "encode_labels", counted)
        layouts, batch = kbet_layouts()
        group = (np.arange(150) % 4).tolist()
        evaluate(layouts["tie_free"], {"batch": batch, "group": group}, MetricsConfig(knn=12))
        assert calls == [batch, group]

    @pytest.mark.parametrize("metric", [silhouette, kbet_acceptance, lisi, pc_regression])
    @pytest.mark.parametrize("length", [39, 41, 80])
    def test_labels_length_checked(self, metric, length):
        Y = np.random.default_rng(14).standard_normal((40, 2))
        with pytest.raises(ValidationError, match="labels length"):
            metric(Y, (["a", "b"] * length)[:length])

    @pytest.mark.parametrize("metric", [silhouette, kbet_acceptance, lisi])
    def test_labels_checked_before_any_distance(self, monkeypatch, metric):
        def refuse(Y):
            raise AssertionError("distances formed")

        monkeypatch.setattr(bctsne.metrics, "pairwise_sqdist", refuse)
        Y = np.random.default_rng(14).standard_normal((40, 2))
        with pytest.raises(ValidationError, match="labels length"):
            metric(Y, ["a", "b"] * 19 + ["a"])

    def test_silhouette_levels_checked_before_any_distance(self):
        # the n x n distances of 2000 points take 32 MB
        Y = np.random.default_rng(44).standard_normal((2000, 2))
        peak = peak_before_refusal(lambda: silhouette(Y, ["a"] * 2000), ValidationError,
                                   "^silhouette needs at least 2 label levels$")
        assert peak < 1024 * 1024, peak

    def test_collapsed_levels_report_a_finite_silhouette(self):
        # a and b at one point gave SIL nan, with only numpy's RuntimeWarning
        # to show it; the calibration of their 40 rows cannot reach
        # perplexity 5, and says so
        Y, labels = collapsed_layout()
        with pytest.warns(CalibrationWarning):
            report = evaluate(Y, {"abc": labels}, MetricsConfig(lisi_perplexity=5))
        assert report.rows()[0] == ("abc", "silhouette", *silhouette(Y, labels))
        assert "nan" not in report.format_table()

    def test_no_labeling_rejected_before_any_distance(self, monkeypatch):
        def refuse(Y):
            raise AssertionError("distances formed")

        monkeypatch.setattr(bctsne.metrics, "pairwise_sqdist", refuse)
        Y = np.random.default_rng(18).standard_normal((40, 2))
        with pytest.raises(ValidationError, match="^need at least one labeling$"):
            evaluate(Y, {})

    def test_lisi_perplexity_out_of_range_named(self):
        # the default lisi_perplexity, 30, needs at least 31 points
        rng = np.random.default_rng(16)
        Y = rng.standard_normal((8, 2))
        labelings = {"batch": ["a", "b"] * 4, "group": ["c"] * 4 + ["d"] * 4}
        with pytest.raises(DomainError, match=r"^lisi_perplexity must lie in "
                           r"\[2, n - 1\]; got 30.0 with n=8$"):
            evaluate(Y, labelings)
        evaluate(Y, labelings, MetricsConfig(lisi_perplexity=7.0))

    def test_errors_keep_their_order_across_labelings(self):
        # the first labeling's silhouette and kBET checks come before LISI's
        # perplexity, which comes before the second labeling's checks
        Y = np.random.default_rng(17).standard_normal((8, 2))
        good, one_level = ["a", "b"] * 4, ["a"] * 8
        with pytest.raises(ValidationError, match="at least 2 label levels"):
            evaluate(Y, {"first": one_level, "second": good})
        with pytest.raises(DomainError, match="lisi_perplexity"):
            evaluate(Y, {"first": good, "second": one_level})

    def test_peak_two_square_arrays(self):
        # the shared distances and LISI's weights are the only n x n float64
        # arrays; silhouette takes its square roots 128 rows at a time, and
        # kBET's neighbour search holds two blocks of 128 rows: the copied
        # distance rows and argpartition's index block, freed once its first
        # knn columns are copied out
        n = 1000
        rng = np.random.default_rng(15)
        Y = rng.standard_normal((n, 2))
        labelings = {"batch": (np.arange(n) % 4).tolist(),
                     "group": rng.integers(0, 3, n).tolist()}
        tracemalloc.start()
        try:
            evaluate(Y, labelings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        square = n * n * 8
        block_scratch = 2 * 128 * n * 8
        assert peak <= 2 * square + block_scratch + 256 * 1024, peak

    def test_orientation_limits(self):
        rng = np.random.default_rng(13)
        Y = np.vstack(
            [rng.standard_normal((50, 2)), rng.standard_normal((50, 2)) + 40]
        )
        confounded = ["a"] * 50 + ["b"] * 50
        mixed = rng.permutation(confounded).tolist()
        rep = evaluate(
            Y, {"confounded": confounded, "mixed": mixed}, MetricsConfig(knn=10)
        )
        rescaled = {(name, metric): value for name, metric, _, value in rep.rows()}
        assert rescaled["confounded", "silhouette"] < rescaled["mixed", "silhouette"]
        assert rescaled["confounded", "lisi"] < rescaled["mixed", "lisi"]
        assert rescaled["confounded", "kbet"] < rescaled["mixed", "kbet"]
