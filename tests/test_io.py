import csv
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bctsne import SimSpec, ValidationError, simulate
from bctsne.matrixio import (
    align_labels,
    read_embedding_csv,
    read_labels_csv,
    read_matrix_csv,
    write_embedding_csv,
    write_labels_csv,
    write_loss_trace,
    write_matrix_csv,
)
from bctsne.tsne import TraceRecord


class TestMatrixCsv:
    def test_round_trip_bit_identical(self, tmp_path):
        M = np.array([[1.0, 2.5], [np.pi, -1e-17], [3.0, 1e300]])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(M, ["r1", "r2", "r3"], ["c1", "c2"], p1)
        M2, ids, cols = read_matrix_csv(p1)
        write_matrix_csv(M2, ids, cols, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(M, M2)
        assert ids == ["r1", "r2", "r3"]
        assert cols == ["c1", "c2"]

    def test_non_numeric_cell_named(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,g1,g2\ncell1,1.5,NA\n")
        with pytest.raises(ValidationError, match="line 2, column 3"):
            read_matrix_csv(p)

    def test_ragged_row_line_number(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("id,g1,g2\ncell1,1,2\ncell2,3\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_matrix_csv(p)

    def test_duplicate_ids(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("id,g1\nc1,1\nc1,2\n")
        with pytest.raises(ValidationError, match="duplicate"):
            read_matrix_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            read_matrix_csv(p)

    def test_malformed_csv_named(self, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("id,g1\nc1,1\n" + "c2," + "1" * 200_000 + "\n")
        with pytest.raises(ValidationError, match="line 3: field larger"):
            read_matrix_csv(p)

    def test_field_at_csv_limit_round_trips(self, tmp_path):
        label = "x" * csv.field_size_limit()
        p = tmp_path / "labels.csv"
        write_labels_csv(["c1", "c2"], {"b": [label, "y"]}, p)
        assert read_labels_csv(p) == (["c1", "c2"], {"b": [label, "y"]})

    def test_field_over_csv_limit_refused_at_write(self, tmp_path):
        limit = csv.field_size_limit()
        p = tmp_path / "labels.csv"
        with pytest.raises(ValidationError, match="labels.csv: field longer"):
            write_labels_csv(["c1", "c2"], {"b": ["y", "x" * (limit + 1)]}, p)
        assert not p.exists()
        ids = tmp_path / "ids.csv"
        write_matrix_csv(np.ones((1, 1)), ["c1"], ["g1"], ids)
        before = ids.read_bytes()
        with pytest.raises(ValidationError, match="ids.csv: field longer"):
            write_matrix_csv(np.ones((1, 1)), ["c" * (limit + 1)], ["g1"], ids)
        assert ids.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["ids.csv"]
        assert csv.field_size_limit() == limit

    def test_tab_delimiter_autodetected(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("id\tg1\tg2\nc1\t1\t2\n")
        M, ids, cols = read_matrix_csv(p)
        assert np.array_equal(M, [[1.0, 2.0]])

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"id,g1\r\nc1,1.5\r\n")
        M, _, _ = read_matrix_csv(p)
        assert M[0, 0] == 1.5

    def test_large_generated_matrix_loads_quickly(self, tmp_path):
        out = simulate(SimSpec(seed=0))
        ids = [f"cell{i}" for i in range(out.counts.shape[0])]
        genes = [f"g{j}" for j in range(out.counts.shape[1])]
        p = tmp_path / "big.csv"
        write_matrix_csv(out.counts, ids, genes, p)
        t0 = time.time()
        M, _, _ = read_matrix_csv(p)
        assert time.time() - t0 < 5.0
        assert M.shape == (800, 2000)

    def test_peak_parsed_rows_and_matrix(self, tmp_path):
        # each row is parsed to float64 as it is read, so the peak is the rows
        # and the matrix stacked from them, not every field held as a str
        counts = simulate(SimSpec(n_cells=1000, seed=0)).counts
        p = tmp_path / "counts.csv"
        write_matrix_csv(counts, [f"cell{i}" for i in range(counts.shape[0])],
                         [f"gene{j}" for j in range(counts.shape[1])], p)
        tracemalloc.start()
        try:
            M, _, _ = read_matrix_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(M, counts)
        assert peak <= 2 * counts.nbytes + 2**20


class TestLabelsCsv:
    def test_realignment_by_id(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_labels_csv(["c2", "c1", "c3"], {"batch": ["B", "A", "C"]}, p)
        ids, table = read_labels_csv(p)
        aligned = align_labels(ids, table, ["c1", "c2", "c3"])
        assert aligned["batch"] == ["A", "B", "C"]

    def test_missing_id_listed(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_labels_csv(["c1"], {"batch": ["A"]}, p)
        ids, table = read_labels_csv(p)
        with pytest.raises(ValidationError, match="c9"):
            align_labels(ids, table, ["c1", "c9"])

    def test_multi_variable_file(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_labels_csv(
            ["c1", "c2"],
            {"mouse": ["m1", "m2"], "sex": ["F", "M"], "date": ["d1", "d2"]},
            p,
        )
        _, table = read_labels_csv(p)
        assert sorted(table) == ["date", "mouse", "sex"]


class TestEmbeddingAndTrace:
    def test_embedding_round_trip(self, tmp_path):
        Y = np.random.default_rng(0).standard_normal((5, 3))
        p = tmp_path / "emb.csv"
        write_embedding_csv(Y, [f"c{i}" for i in range(5)], p)
        assert p.read_text().splitlines()[0] == "id,y1,y2,y3"
        Y2, ids = read_embedding_csv(p)
        assert np.array_equal(Y, Y2)

    def test_trace_columns(self, tmp_path):
        trace = [TraceRecord(0, 1.5, 1e-12), TraceRecord(50, 0.7, 2e-12)]
        p = tmp_path / "trace.csv"
        write_loss_trace(trace, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "iteration,kl_loss,orthogonality_maxabs"
        assert len(lines) == 3


# Text that CSV must quote or keep as is: delimiters, quotes, line breaks,
# spaces and non-ASCII.  Surrogates cannot be encoded as UTF-8, and NUL is
# left out because csv.reader rejects it before Python 3.11.
_HOSTILE = st.text(
    alphabet=st.one_of(
        st.sampled_from([",", '"', "\t", "\r", "\n", " ", "é", "雪", "🙂"]),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=8,
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _hostile_matrix(draw):
    n = draw(st.integers(1, 5))
    p = draw(st.integers(1, 4))
    ids = draw(st.lists(_HOSTILE, min_size=n, max_size=n, unique=True))
    names = draw(st.lists(_HOSTILE, min_size=p, max_size=p, unique=True))
    return draw(hnp.arrays(np.float64, (n, p), elements=_FINITE)), ids, names


class TestHostileRoundTrip:
    """Every writer's output reads back exactly, whatever the ids and names."""

    @settings(max_examples=150, deadline=None)
    @given(_hostile_matrix())
    def test_matrix(self, tmp_path_factory, case):
        M, ids, names = case
        p = tmp_path_factory.mktemp("hostile") / "m.csv"
        write_matrix_csv(M, ids, names, p)
        M2, ids2, names2 = read_matrix_csv(p)
        assert (ids2, names2) == (ids, names)
        assert M2.tobytes() == M.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(_hostile_matrix(), st.data())
    def test_labels(self, tmp_path_factory, case, data):
        _, ids, names = case
        table = {name: data.draw(st.lists(_HOSTILE, min_size=len(ids), max_size=len(ids)))
                 for name in names}
        p = tmp_path_factory.mktemp("hostile") / "l.csv"
        write_labels_csv(ids, table, p)
        assert read_labels_csv(p) == (ids, table)

    @settings(max_examples=100, deadline=None)
    @given(_hostile_matrix())
    def test_embedding(self, tmp_path_factory, case):
        Y, ids, _ = case
        p = tmp_path_factory.mktemp("hostile") / "e.csv"
        write_embedding_csv(Y, ids, p)
        Y2, ids2 = read_embedding_csv(p)
        assert ids2 == ids
        assert Y2.tobytes() == Y.tobytes()
