import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bctsne import (
    CollinearityError,
    DomainError,
    OptimizerConfig,
    Projector,
    ValidationError,
    build_design,
    run_tsne,
)
from bctsne.design import encode_labels
from bctsne.metrics import silhouette
from bctsne.tsne import input_affinities


class TestEncodeLabels:
    def test_levels_sorted_by_str(self):
        levels, codes = encode_labels([10, 9, 2, 10], 4)
        assert levels == [10, 2, 9]
        assert codes.tolist() == [0, 2, 1, 0]

    @pytest.mark.parametrize("n", [3, 5])
    def test_length_mismatch_rejected(self, n):
        with pytest.raises(ValidationError, match=f"labels length 4 does not match matrix rows {n}"):
            encode_labels([10, 9, 2, 10], n)

    def test_design_columns_differing_in_length_rejected(self):
        with pytest.raises(ValidationError, match="labels length 3"):
            build_design({"a": ["x", "y", "x", "y"], "b": ["u", "v", "u"]})


class TestBuildDesign:
    def test_dummy_coding_with_intercept(self):
        d = build_design({"batch": ["A", "A", "B", "B"]})
        assert isinstance(d, Projector) and d.rank == 2
        assert np.array_equal(d.Z, np.array([[1, 0], [1, 0], [1, 1], [1, 1]], float))

    def test_duplicated_factor_collinear(self):
        labels = {"v1": ["A", "A", "B", "B"], "v2": ["x", "x", "y", "y"]}
        with pytest.raises(CollinearityError) as exc:
            build_design(labels)
        assert "v2[y]" in exc.value.columns

    def test_confounded_design_names_absorbed_columns(self):
        # mouse determines sex and date exactly
        mouse = ["m1", "m1", "m2", "m2", "m3", "m3", "m4", "m4", "m5", "m5"]
        sex = ["F", "F", "F", "F", "M", "M", "M", "M", "M", "M"]
        date = ["jul02", "jul02", "jul02", "jul02", "jul25", "jul25",
                "aug18", "aug18", "aug18", "aug18"]
        labels = {"mouse": mouse, "sex": sex, "date": date}
        with pytest.raises(CollinearityError, match="sex") as exc:
            build_design(labels)
        assert exc.value.columns == ["sex[M]", "date[jul02]", "date[jul25]"]

    @pytest.mark.parametrize("labels, message", [
        ({}, "need at least one categorical column"),
        ({"batch": ["a"]}, "need at least 2 rows"),
    ])
    def test_degenerate_labels_rejected(self, labels, message):
        with pytest.raises(ValidationError, match=message):
            build_design(labels)

    def test_single_level_with_intercept_degenerate_ok(self):
        d = build_design({"b": ["A", "A", "A"]})
        assert np.array_equal(d.Z, np.ones((3, 1))) and d.rank == 1

    def test_binary_dummy_columns(self):
        rng = np.random.default_rng(0)
        d = build_design({"b": rng.integers(0, 3, 30).tolist()})
        dummies = d.Z[:, 1:]
        assert set(np.unique(dummies)) <= {0.0, 1.0}


@st.composite
def label_columns(draw):
    """1-3 categorical columns over the same rows: each drawn afresh (crossed
    with the others), nested in an earlier one, or an earlier one with its
    levels renamed (so its reference level may change)."""
    n = draw(st.integers(4, 30))
    labels = {}
    for v in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["crossed", "nested", "duplicated"])) if labels else "crossed"
        fresh = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if kind == "crossed":
            values = [f"l{x}" for x in fresh]
        else:
            base = labels[draw(st.sampled_from(sorted(labels)))]
            if kind == "nested":
                values = [f"{b}.{x % 2}" for b, x in zip(base, fresh)]
            else:
                levels = sorted(set(base))
                order = draw(st.permutations(range(len(levels))))
                rename = {lev: f"d{k}" for lev, k in zip(levels, order)}
                values = [rename[b] for b in base]
        labels[f"v{v}"] = values
    return labels


class TestBuildDesignProperties:
    @settings(max_examples=80, deadline=None)
    @given(label_columns(), st.integers(0, 2**32 - 1))
    def test_raises_exactly_on_prefix_rank_drops(self, labels, seed):
        # oracle: a column of [1 | dummies] is absorbed when matrix_rank of
        # the columns up to it equals that of the columns before it
        n = len(labels["v0"])
        names, columns = ["intercept"], [np.ones(n)]
        for var, values in labels.items():
            for lev in sorted(set(values))[1:]:
                names.append(f"{var}[{lev}]")
                columns.append((np.array(values) == lev).astype(float))
        Z = np.column_stack(columns)
        ranks = [np.linalg.matrix_rank(Z[:, :j]) if j else 0 for j in range(len(names) + 1)]
        absorbed = [name for j, name in enumerate(names) if ranks[j + 1] == ranks[j]]
        try:
            design = build_design(labels)
        except CollinearityError as exc:
            assert exc.columns == absorbed != []
            assert str(exc).rsplit(": ", 1)[1].split(", ") == absorbed
        else:
            assert absorbed == []
            assert np.array_equal(design.Z, Z) and design.rank == len(names)
            one_hot = [(np.array(values) == lev).astype(float)
                       for values in labels.values() for lev in sorted(set(values))]
            Y = np.random.default_rng(seed).standard_normal((n, 2))
            full = Projector(np.column_stack([np.ones(n), *one_hot])).project(Y)
            assert np.abs(design.project(Y) - full).max() <= 1e-10 * (1 + np.abs(Y).max())


class TestProjector:
    def _random_pair(self, rng, n=40, b=4, q=2):
        Z = np.column_stack(
            [np.ones(n)] + [rng.standard_normal(n) for _ in range(b - 1)]
        )
        Y = rng.standard_normal((n, q))
        return Z, Y

    def test_idempotence(self):
        rng = np.random.default_rng(1)
        Z, Y = self._random_pair(rng)
        P = Projector(Z)
        Yt = P.project(Y)
        assert np.abs(P.project(Yt) - Yt).max() < 1e-12

    def test_intercept_only_centers(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((20, 3))
        P = Projector(np.ones((20, 1)))
        assert np.allclose(P.project(Y), Y - Y.mean(axis=0), atol=1e-12)

    def test_matches_hat_matrix_oracle(self):
        rng = np.random.default_rng(3)
        Z, Y = self._random_pair(rng)
        P = Projector(Z)
        H = Z @ np.linalg.inv(Z.T @ Z) @ Z.T
        oracle = (np.eye(40) - H) @ Y
        Yt = P.project(Y)
        assert np.abs(Yt - oracle).max() < 1e-8
        assert np.abs(Z.T @ Yt).max() < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_linearity_and_contraction(self, seed):
        rng = np.random.default_rng(seed)
        Z, Y1 = self._random_pair(rng)
        Y2 = rng.standard_normal(Y1.shape)
        P = Projector(Z)
        lhs = P.project(2.5 * Y1 - 1.3 * Y2)
        rhs = 2.5 * P.project(Y1) - 1.3 * P.project(Y2)
        assert np.abs(lhs - rhs).max() < 1e-10
        assert np.linalg.norm(P.project(Y1)) <= np.linalg.norm(Y1) + 1e-12

    def test_empty_design_is_identity(self):
        Y = np.random.default_rng(4).standard_normal((10, 2))
        P = Projector(np.empty((10, 0)))
        assert P.rank == 0
        assert P.project(Y).tobytes() == Y.tobytes()
        assert np.isnan(P.orthogonality(Y))

    def test_row_mismatch(self):
        with pytest.raises(ValidationError):
            Projector(np.ones((5, 1))).project(np.ones((6, 2)))

    def test_orthogonality_row_mismatch(self):
        with pytest.raises(ValidationError, match="row mismatch"):
            Projector(np.ones((5, 1))).orthogonality(np.ones((6, 2)))


@st.composite
def design_and_blocks(draw):
    """A design [one-hot levels | optional dense covariates], optionally with
    an explicit intercept in front (so [1 | Z] with Z already spanning 1),
    and two blocks Y1, Y2 of matching rows."""
    n = draw(st.integers(3, 30))
    levels = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    columns = [(levels == lev).astype(float) for lev in np.unique(levels)]
    dense = draw(st.integers(0, 2))
    if dense:
        columns += list(draw(hnp.arrays(np.float64, (dense, n),
                                        elements=st.floats(-10, 10, width=32))))
    if draw(st.booleans()):
        columns.insert(0, np.ones(n))
    Z = np.column_stack(columns)
    q = draw(st.integers(1, 3))
    block = hnp.arrays(np.float64, (n, q), elements=st.floats(-1e3, 1e3, width=32))
    return levels, Z, draw(block), draw(block)


class TestProjectorProperties:
    @settings(max_examples=60, deadline=None)
    @given(design_and_blocks(), st.floats(-10, 10), st.floats(-10, 10))
    def test_idempotent_linear_contracting_orthogonal(self, case, a, b):
        _, Z, Y1, Y2 = case
        P = Projector(Z)
        T1 = P.project(Y1)
        scale = 1.0 + np.abs(Y1).max()
        assert np.abs(P.project(T1) - T1).max() <= 1e-10 * scale
        lin = P.project(a * Y1 + b * Y2) - (a * T1 + b * P.project(Y2))
        assert np.abs(lin).max() <= 1e-10 * (1.0 + abs(a) * scale + abs(b) * np.abs(Y2).max())
        assert np.linalg.norm(T1) <= np.linalg.norm(Y1) * (1 + 1e-12) + 1e-12
        assert np.abs(Z.T @ T1).max() <= 1e-10 * (1.0 + np.abs(Z).max()) * scale * Z.shape[0]

    @settings(max_examples=60, deadline=None)
    @given(design_and_blocks())
    def test_rank_deficient_dummy_design_removes_level_means(self, case):
        # the one-hot columns already sum to the intercept, so [1 | Z] is
        # rank deficient; its projection still removes each level's mean
        levels, _, Y, _ = case
        Z = np.column_stack([(levels == lev).astype(float) for lev in np.unique(levels)])
        P = Projector(np.column_stack([np.ones(len(levels)), Z]))
        assert P.rank == Z.shape[1] == np.linalg.matrix_rank(Z)
        means = np.array([Y[levels == lev].mean(axis=0) for lev in levels])
        scale = 1.0 + np.abs(Y).max()
        assert np.abs(P.project(Y) - (Y - means)).max() <= 1e-10 * scale
        assert np.abs(P.project(Y) - Projector(Z).project(Y)).max() <= 1e-10 * scale


class TestProjectedStep:
    def test_design_spanning_all_rows_rejected(self):
        # every cell its own batch: the complement of span(Z) is {0}, and an
        # embedding confined to it would be identically zero
        X = np.random.default_rng(9).standard_normal((10, 3))
        design = build_design({"b": [f"c{i}" for i in range(10)]})
        with pytest.raises(DomainError, match="rank 10"):
            run_tsne(X, OptimizerConfig(n_iter=5, perplexity=3), projector=design)
        # 8 levels leave 2 free dimensions; a 2-D embedding needs dims + 1 = 3
        design = build_design({"b": [f"c{i // 2}" if i < 4 else f"c{i}" for i in range(10)]})
        with pytest.raises(DomainError):
            run_tsne(X, OptimizerConfig(n_iter=5, perplexity=3), projector=design)

    def test_orthogonality_every_iteration(self, monkeypatch):
        monkeypatch.setattr("bctsne.tsne._TRACE_EVERY", 1)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 6))
        P = build_design({"b": (np.arange(40) % 2).tolist()})
        trace = []
        run_tsne(
            X,
            OptimizerConfig(n_iter=120, perplexity=10, seed=0),
            projector=P,
            on_trace=trace.append,
        )
        assert len(trace) == 120
        assert all(r.orthogonality_maxabs < 1e-8 for r in trace)

    def test_input_projected_before_affinities(self, monkeypatch):
        seen = []

        def affinities(X, *args, **kwargs):
            seen.append(X)
            return input_affinities(X, *args, **kwargs)

        monkeypatch.setattr("bctsne.tsne.input_affinities", affinities)
        rng = np.random.default_rng(10)
        batch = (np.arange(40) % 3).tolist()
        X = rng.standard_normal((40, 6)) + 5.0 * np.array(batch)[:, None]
        projector = build_design({"b": batch})
        run_tsne(X, OptimizerConfig(n_iter=5, perplexity=10), projector=projector)
        assert np.abs(projector.Z.T @ seen[0]).max() <= 1e-10 * np.abs(X).max()

    def test_confounded_blobs_batch_removed(self):
        # blob label coincides with batch label: projection must destroy the
        # batch separation an unprojected run shows
        rng = np.random.default_rng(7)
        X = np.vstack(
            [rng.standard_normal((40, 5)), rng.standard_normal((40, 5)) + 8]
        )
        batch = ["a"] * 40 + ["b"] * 40
        cfg = OptimizerConfig(n_iter=600, perplexity=20, seed=2)
        plain = run_tsne(X, cfg)
        raw_plain, _ = silhouette(plain.Y, batch)
        corrected = run_tsne(X, cfg, projector=build_design({"batch": batch}))
        raw_corr, _ = silhouette(corrected.Y, batch)
        assert raw_plain > 0.5
        assert raw_corr < 0.1

    def test_null_projector_matches_unprojected_run(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 4))
        cfg = OptimizerConfig(n_iter=80, perplexity=8, seed=3)
        s1 = run_tsne(X, cfg)
        s2 = run_tsne(X, cfg, projector=Projector(np.empty((30, 0))))
        assert np.array_equal(s1.Y, s2.Y)
