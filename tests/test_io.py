import csv
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bctsne import SimSpec, ValidationError, matrixio, simulate
from bctsne.matrixio import (
    read_embedding_csv,
    read_labels_csv,
    read_matrix_csv,
    write_embedding_csv,
    write_labels_csv,
    write_loss_trace,
    write_matrix_csv,
)
from bctsne.tsne import TraceRecord
from oracles import per_value_write_matrix_csv


def _names(prefix, count):
    return [f"{prefix}{i + 1}" for i in range(count)]


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

    def test_text_is_that_of_numpy_scalars(self, tmp_path):
        # rows are formatted from Python floats; the text must be what
        # formatting the matrix's own numpy scalars gives
        M = np.array([[-0.0, 5e-324, 1e300], [0.1, 2.0**60, 1 / 3]])
        p = tmp_path / "m.csv"
        write_matrix_csv(M, ["r1", "r2"], ["a", "b", "c"], p)
        expected = "id,a,b,c\n" + "".join(
            f"{rid}," + ",".join("%.17g" % v for v in row) + "\n"
            for rid, row in zip(["r1", "r2"], M)
        )
        assert p.read_bytes() == expected.encode()

    def test_counts_match_per_value_writer(self, tmp_path):
        counts = simulate(SimSpec(n_cells=300, seed=0)).counts
        assert counts.size > matrixio._BLOCK_VALUES  # more than one block
        ids, genes = _names("cell", 300), _names("gene", counts.shape[1])
        p, ref = tmp_path / "counts.csv", tmp_path / "reference.csv"
        write_matrix_csv(counts, ids, genes, p)
        per_value_write_matrix_csv(counts, ids, genes, ref)
        assert p.read_bytes() == ref.read_bytes()

    def test_signed_zeros_match_per_value_writer(self, tmp_path):
        # distinct values are keyed on their bits: a key that compared equal
        # for 0.0 and -0.0 would give one of them the other's text
        width = 1000
        block = matrixio._BLOCK_VALUES // width
        rng = np.random.default_rng(0)
        M = rng.choice([0.0, -0.0, 5e-324, 0.1, 1 / 3, np.nan, -np.nan],
                       size=(3 * block + 1, width))
        # both zeros in the first block, only -0.0 in the second, only 0.0 after
        second, rest = M[block:2 * block], M[2 * block:]
        second[second == 0] = -0.0
        rest[rest == 0] = 0.0
        signs = np.signbit(M[M == 0])
        assert signs.any() and not signs.all()
        ids, cols = _names("r", M.shape[0]), _names("c", width)
        p, ref = tmp_path / "m.csv", tmp_path / "reference.csv"
        write_matrix_csv(M, ids, cols, p)
        per_value_write_matrix_csv(M, ids, cols, ref)
        assert p.read_bytes() == ref.read_bytes()
        assert b",-0," in p.read_bytes().split(b"\n")[1]

    @pytest.mark.parametrize("n_cells", [200, 1000])
    def test_writer_scratch_does_not_grow_with_rows(self, tmp_path, n_cells):
        # a block of rows at a time: one np.unique over the whole matrix would
        # hold a count-sized copy, 16 MB at 1000 x 2000
        counts = simulate(SimSpec(n_cells=n_cells, seed=0)).counts
        ids, genes = _names("cell", n_cells), _names("gene", counts.shape[1])
        tracemalloc.start()
        try:
            write_matrix_csv(counts, ids, genes, tmp_path / "counts.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_repeated_gene_names_accepted(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("id,Actb,Actb\nc1,1,2\n")
        M, _, cols = read_matrix_csv(p)
        assert cols == ["Actb", "Actb"]
        assert np.array_equal(M, [[1.0, 2.0]])

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

    @pytest.mark.parametrize("text, message", [
        ("id\nc1\n", "header needs an id column and one more"),
        ("id,g1\n", "no data rows"),
        ("id,g1\nc1,1\nc2,nan\n", "non-finite values present"),
    ], ids=["one-field-header", "header-only", "nan"])
    def test_refused_tables_named(self, tmp_path, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ValidationError, match=f"bad.csv: {message}"):
            read_matrix_csv(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("id,g1\n\nc1,1\n\nc2,2\n\n")
        M, ids, _ = read_matrix_csv(p)
        assert ids == ["c1", "c2"] and np.array_equal(M, [[1.0], [2.0]])

    def test_malformed_csv_named(self, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("id,g1\nc1,1\n" + "c2," + "1" * 200_000 + "\n")
        with pytest.raises(ValidationError, match="line 3: field larger"):
            read_matrix_csv(p)

    def test_field_at_csv_limit_round_trips(self, tmp_path):
        label = "x" * csv.field_size_limit()
        p = tmp_path / "labels.csv"
        write_labels_csv(["c1", "c2"], {"b": [label, "y"]}, p)
        assert read_labels_csv(p, ["c1", "c2"]) == {"b": [label, "y"]}

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

    @pytest.mark.parametrize("n_ids, n_names", [(2, 2), (5, 2), (4, 3), (4, 1)],
                             ids=["fewer-ids", "more-ids", "more-names", "fewer-names"])
    def test_counts_checked_before_the_target_is_touched(self, tmp_path, n_ids, n_names):
        p = tmp_path / "m.csv"
        p.write_text("old")
        with pytest.raises(ValidationError, match=rf"m.csv: {n_ids} ids and {n_names} "
                           r"column names for a matrix of shape \(4, 2\)$"):
            write_matrix_csv(np.ones((4, 2)), _names("c", n_ids), _names("g", n_names), p)
        assert p.read_text() == "old"
        assert [f.name for f in tmp_path.iterdir()] == ["m.csv"]

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
        aligned = read_labels_csv(p, ["c1", "c2", "c3"])
        assert aligned["batch"] == ["A", "B", "C"]

    def test_missing_id_listed(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_labels_csv(["c1"], {"batch": ["A"]}, p)
        with pytest.raises(ValidationError, match="c9"):
            read_labels_csv(p, ["c1", "c9"])

    def test_multi_variable_file(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_labels_csv(
            ["c1", "c2"],
            {"mouse": ["m1", "m2"], "sex": ["F", "M"], "date": ["d1", "d2"]},
            p,
        )
        assert list(read_labels_csv(p, ["c1", "c2"])) == ["mouse", "sex", "date"]
        assert read_labels_csv(p, ["c2"], ["sex", "mouse"]) == {"sex": ["M"],
                                                               "mouse": ["m2"]}

    def test_repeated_column_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("id,batch,batch\nc1,A,X\nc2,B,Y\n")
        with pytest.raises(ValidationError,
                           match=r"labels.csv: repeated label column\(s\) \['batch'\]"):
            read_labels_csv(p, ["c1", "c2"])

    def test_missing_ids_reported_before_unknown_columns(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_labels_csv(["c1"], {"batch": ["A"]}, p)
        with pytest.raises(ValidationError, match=r"labels.csv: .*missing ids: \['c9'\]"):
            read_labels_csv(p, ["c1", "c9"], ["nope"])
        with pytest.raises(ValidationError,
                           match=r"labels.csv: unknown .*\['nope'\].*\['batch'\]"):
            read_labels_csv(p, ["c1"], ["nope"])

    @pytest.mark.parametrize("length", [1, 3])
    def test_label_column_length_checked(self, tmp_path, length):
        p = tmp_path / "labels.csv"
        p.write_text("old")
        with pytest.raises(ValidationError,
                           match=f"labels.csv: {length} 'sex' labels for 2 ids$"):
            write_labels_csv(["c1", "c2"], {"batch": ["A", "B"],
                                            "sex": ["F", "M", "F"][:length]}, p)
        assert p.read_text() == "old"
        assert [f.name for f in tmp_path.iterdir()] == ["labels.csv"]


class TestEmbeddingAndTrace:
    def test_embedding_round_trip(self, tmp_path):
        Y = np.random.default_rng(0).standard_normal((5, 3))
        p = tmp_path / "emb.csv"
        write_embedding_csv(Y, [f"c{i}" for i in range(5)], p)
        assert p.read_text().splitlines()[0] == "id,y1,y2,y3"
        Y2, ids = read_embedding_csv(p)
        assert np.array_equal(Y, Y2)

    @pytest.mark.parametrize("n_ids", [2, 6])
    def test_embedding_ids_checked(self, tmp_path, n_ids):
        p = tmp_path / "emb.csv"
        with pytest.raises(ValidationError, match=f"emb.csv: {n_ids} ids and 2 column"):
            write_embedding_csv(np.zeros((4, 2)), _names("c", n_ids), p)
        assert not p.exists()

    def test_counts_file_is_not_an_embedding(self, tmp_path):
        p = tmp_path / "counts.csv"
        write_matrix_csv(np.ones((2, 2)), ["c1", "c2"], ["g1", "y2"], p)
        with pytest.raises(ValidationError,
                           match=r"counts.csv: not an embedding file \(columns \['g1', 'y2'\]\)"):
            read_embedding_csv(p)

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
        assert read_labels_csv(p, ids) == table

    @settings(max_examples=100, deadline=None)
    @given(_hostile_matrix())
    def test_embedding(self, tmp_path_factory, case):
        Y, ids, _ = case
        p = tmp_path_factory.mktemp("hostile") / "e.csv"
        write_embedding_csv(Y, ids, p)
        Y2, ids2 = read_embedding_csv(p)
        assert ids2 == ids
        assert Y2.tobytes() == Y.tobytes()
