"""CSV/TSV persistence for matrices, labels, embeddings, metric reports and
loss traces.

All text formats are UTF-8, accept LF or CRLF, and carry cell identifiers in
the first column; errors name the offending file, line and column.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import ValidationError

_FMT = "%.17g"


def _detect_delimiter(first_line, delimiter=None):
    if delimiter is not None:
        return delimiter
    return "\t" if "\t" in first_line else ","


def _read_rows(path, delimiter):
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.strip():
            raise ValidationError(f"{path}: empty file")
        delim = _detect_delimiter(first, delimiter)
        fh.seek(0)
        return list(csv.reader(fh, delimiter=delim)), delim


def read_matrix_csv(path, delimiter=None):
    """Parse a labeled matrix file: header of feature names, first column ids.

    Returns (matrix, row_ids, column_names).
    """
    path = Path(path)
    rows, _ = _read_rows(path, delimiter)
    header = rows[0]
    if len(header) < 2:
        raise ValidationError(f"{path}: header must contain at least one feature")
    col_names = header[1:]
    width = len(header)
    ids, data = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise ValidationError(
                f"{path}: line {lineno}: expected {width} fields, found {len(row)}"
            )
        ids.append(row[0])
        try:
            data.append(np.array(row[1:], dtype=np.float64))
        except ValueError:
            for j, cell in enumerate(row[1:], start=2):
                try:
                    float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: line {lineno}, column {j}: "
                        f"non-numeric value {cell!r}"
                    ) from None
            raise
    if not ids:
        raise ValidationError(f"{path}: no data rows")
    if len(set(ids)) != len(ids):
        seen = set()
        dupes = sorted({i for i in ids if i in seen or seen.add(i)})
        raise ValidationError(f"{path}: duplicate ids: {dupes}")
    M = np.vstack(data)
    if not np.isfinite(M).all():
        raise ValidationError(f"{path}: non-finite values present")
    return M, ids, col_names


def write_matrix_csv(M, row_ids, col_names, path, delimiter=","):
    M = np.asarray(M, dtype=np.float64)
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(delimiter.join(["id", *col_names]) + "\n")
        for rid, row in zip(row_ids, M):
            fh.write(rid + delimiter + delimiter.join(_FMT % v for v in row) + "\n")


def read_labels_csv(path, delimiter=None):
    """Parse a label table: first column ids, remaining columns categorical.

    Returns (ids, {column: list of strings}).
    """
    path = Path(path)
    rows, _ = _read_rows(path, delimiter)
    header = rows[0]
    if len(header) < 2:
        raise ValidationError(f"{path}: need at least one label column")
    width = len(header)
    ids = []
    table = {name: [] for name in header[1:]}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise ValidationError(
                f"{path}: line {lineno}: expected {width} fields, found {len(row)}"
            )
        ids.append(row[0])
        for name, value in zip(header[1:], row[1:]):
            table[name].append(value)
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: duplicate ids")
    return ids, table


def align_labels(ids, table, reference_ids):
    """Reorder label rows to match reference_ids, erroring on missing ids."""
    index = {rid: i for i, rid in enumerate(ids)}
    missing = [rid for rid in reference_ids if rid not in index]
    if missing:
        raise ValidationError(f"label file is missing ids: {missing[:10]}")
    order = [index[rid] for rid in reference_ids]
    return {name: [values[i] for i in order] for name, values in table.items()}


def write_labels_csv(ids, table, path, delimiter=","):
    path = Path(path)
    names = list(table)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(delimiter.join(["id", *names]) + "\n")
        for i, rid in enumerate(ids):
            fh.write(delimiter.join([rid, *(str(table[n][i]) for n in names)]) + "\n")


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
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("labeling,metric,raw,rescaled\n")
        for labeling, metric, raw, rescaled in report.rows():
            fh.write(f"{labeling},{metric},{_FMT % raw},{_FMT % rescaled}\n")


def write_loss_trace(trace, path):
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,kl_loss,orthogonality_maxabs\n")
        for rec in trace:
            fh.write(
                f"{rec.iteration},{_FMT % rec.kl_loss},"
                f"{_FMT % rec.orthogonality_maxabs}\n"
            )
