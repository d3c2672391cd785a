"""CSV/TSV persistence for matrices, labels, embeddings, metric reports and
loss traces.

All text formats are UTF-8, accept LF or CRLF, and carry cell identifiers in
the first column; errors name the offending file, line and column.  Ids,
names and labels may hold commas, quotes, tabs and line breaks.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import os
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError

_FMT = "%.17g"


def _read_table(path, convert=lambda lineno, cells: cells):
    """(header, ids, rows) of a table with unique ids in its first column;
    tab-delimited when the first header field holds a tab.  Each row holds
    convert(line number, the fields after the id), applied as the row is
    read, so that only the converted rows are kept."""
    path = Path(path)
    ids, rows = [], []
    with path.open("r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.strip():
            raise ValidationError(f"{path}: empty file")
        delimiter = "\t" if "\t" in first.split(",", 1)[0] else ","
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
            if len(header) < 2:
                raise ValidationError(f"{path}: header needs an id column and one more")
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(header):
                    raise ValidationError(
                        f"{path}: line {reader.line_num}: expected {len(header)} "
                        f"fields, found {len(fields)}"
                    )
                ids.append(fields[0])
                rows.append(convert(reader.line_num, fields[1:]))
        except csv.Error as exc:
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    counts = Counter(ids)
    dupes = sorted(i for i, count in counts.items() if count > 1)
    if dupes:
        raise ValidationError(f"{path}: duplicate ids: {dupes}")
    return header, ids, rows


@contextlib.contextmanager
def replacing(path):
    """A UTF-8 text handle on a temporary file that replaces path when the
    block completes; if the block raises, path keeps its old bytes."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_table(path, header, rows):
    # csv.writer quotes a field holding a bare CR only when CR is part of the
    # line terminator, so it writes CRLF, one whole record per call, and each
    # record reaches the file with LF
    limit = csv.field_size_limit()
    with replacing(path) as fh:
        lf = SimpleNamespace(write=lambda record: fh.write(record[:-2] + "\n"))
        writer = csv.writer(lf, lineterminator="\r\n")
        for row in itertools.chain([header], rows):
            # the reader refuses a longer field; a record within the limit has none
            if writer.writerow(row) > limit and max(len(str(f)) for f in row) > limit:
                raise ValidationError(f"{path}: field longer than the csv limit ({limit})")


def read_matrix_csv(path):
    """Parse a labeled matrix file: header of feature names, first column ids.

    Returns (matrix, row_ids, column_names).
    """

    def parse(lineno, cells):
        try:
            return np.array(cells, dtype=np.float64)
        except ValueError:
            for j, cell in enumerate(cells, start=2):
                try:
                    float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: line {lineno}, column {j}: "
                        f"non-numeric value {cell!r}"
                    ) from None
            raise

    header, ids, rows = _read_table(path, parse)
    M = np.vstack(rows)
    del rows  # before the finiteness mask, so the peak stays the rows plus M
    if not np.isfinite(M).all():
        raise ValidationError(f"{path}: non-finite values present")
    return M, ids, header[1:]


def write_matrix_csv(M, row_ids, col_names, path):
    M = np.asarray(M, dtype=np.float64)
    _write_table(
        path,
        ["id", *col_names],
        ([rid, *(_FMT % v for v in row)] for rid, row in zip(row_ids, M)),
    )


def read_labels_csv(path):
    """Parse a label table: first column ids, remaining columns categorical.

    Returns (ids, {column: list of strings}).
    """
    header, ids, rows = _read_table(path)
    return ids, {name: [row[j] for row in rows] for j, name in enumerate(header[1:])}


def align_labels(ids, table, reference_ids):
    """Reorder label rows to match reference_ids, erroring on missing ids."""
    index = {rid: i for i, rid in enumerate(ids)}
    missing = [rid for rid in reference_ids if rid not in index]
    if missing:
        raise ValidationError(f"label file is missing ids: {missing[:10]}")
    order = [index[rid] for rid in reference_ids]
    return {name: [values[i] for i in order] for name, values in table.items()}


def write_labels_csv(ids, table, path):
    names = list(table)
    _write_table(
        path,
        ["id", *names],
        ([rid, *(str(table[n][i]) for n in names)] for i, rid in enumerate(ids)),
    )


def write_embedding_csv(Y, ids, path):
    Y = np.asarray(Y, dtype=np.float64)
    cols = [f"y{j + 1}" for j in range(Y.shape[1])]
    write_matrix_csv(Y, ids, cols, path)


def read_embedding_csv(path):
    M, ids, cols = read_matrix_csv(path)
    if not all(c.startswith("y") for c in cols):
        raise ValidationError(f"{path}: not an embedding file (columns {cols})")
    return M, ids


def write_report_csv(report, path):
    _write_table(
        path,
        ["labeling", "metric", "raw", "rescaled"],
        ([labeling, metric, _FMT % raw, _FMT % rescaled]
         for labeling, metric, raw, rescaled in report.rows()),
    )


def write_loss_trace(trace, path):
    _write_table(
        path,
        ["iteration", "kl_loss", "orthogonality_maxabs"],
        ([rec.iteration, _FMT % rec.kl_loss, _FMT % rec.orthogonality_maxabs]
         for rec in trace),
    )
