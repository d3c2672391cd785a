"""CSV/TSV persistence for matrices, labels, embeddings, metric reports and
loss traces.

All text formats are UTF-8, accept LF or CRLF, and carry cell identifiers in
the first column.  Ids, names and labels may hold commas, quotes, tabs and
line breaks.  Every fault raises ValidationError naming the offending file,
line and column: malformed or inconsistent data, and a path that cannot be
read, written or decoded (never the temporary file a writer uses).
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
# values per block of rows that write_matrix_csv formats at once; its scratch
# memory, about 70 bytes a value, depends on this and not on the row count
_BLOCK_VALUES = 2**14


@contextlib.contextmanager
def path_faults(path):
    """Turn an OSError or UnicodeDecodeError raised in the block into a
    ValidationError naming path."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _read_table(path, convert=lambda lineno, cells: cells):
    """(header, ids, rows) of a table with unique ids in its first column;
    tab-delimited when the first header field holds a tab.  Each row holds
    convert(line number, the fields after the id), applied as the row is
    read, so that only the converted rows are kept."""
    path = Path(path)
    ids, rows = [], []
    with path_faults(path), path.open("r", encoding="utf-8", newline="") as fh:
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


def temporary_path(path, pid=None):
    """The temporary file that `replacing` writes for path in process pid,
    by default this one."""
    return Path(f"{path}.{os.getpid() if pid is None else pid}.tmp")


@contextlib.contextmanager
def replacing(path):
    """A UTF-8 text handle on a temporary file that replaces path when the
    block completes; if the block raises, path keeps its old bytes.  A
    process killed by a signal leaves the temporary file behind.  A path
    that is a directory is refused by name before anything is written."""
    if os.path.isdir(path):
        raise ValidationError(f"{path}: is a directory")
    tmp = temporary_path(path)
    with path_faults(path):
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


def _text_rows(M, row_ids):
    """[id, the text of each value] for each row of M, a block of rows at a
    time: the block's distinct values are formatted once each, as Python
    floats (faster than numpy's scalars, same text).  Values are told apart
    by their bits, so 0.0 and -0.0 keep their own text."""
    ids = iter(row_ids)
    width = M.shape[1]
    step = max(1, _BLOCK_VALUES // max(width, 1))
    for start in range(0, M.shape[0], step):
        block = M[start:start + step]
        bits, codes = np.unique(block.ravel().view(np.int64), return_inverse=True)
        text = [_FMT % v for v in bits.view(np.float64).tolist()]
        cells = list(map(text.__getitem__, codes.tolist()))
        # the block's rows first, so that zip takes no id past them
        for i, rid in zip(range(len(block)), ids):
            yield [rid, *cells[i * width:(i + 1) * width]]


def write_matrix_csv(M, row_ids, col_names, path):
    M = np.asarray(M, dtype=np.float64)
    if (len(row_ids), len(col_names)) != M.shape:
        raise ValidationError(f"{path}: {len(row_ids)} ids and {len(col_names)} column "
                              f"names for a matrix of shape {M.shape}")
    _write_table(path, ["id", *col_names], _text_rows(M, row_ids))


def read_labels_csv(path, ids, columns=None):
    """Parse a label table (first column ids, remaining columns categorical)
    into {column: the labels of ids, in their order}: the named columns, or
    all of them in file order when columns is None."""
    header, label_ids, rows = _read_table(path)
    # a repeated column would leave only its last labels; a matrix's gene
    # names may repeat, since real gene symbols do
    repeated = sorted(n for n, count in Counter(header[1:]).items() if count > 1)
    if repeated:
        raise ValidationError(f"{path}: repeated label column(s) {repeated}")
    index = {rid: i for i, rid in enumerate(label_ids)}
    missing = [rid for rid in ids if rid not in index]
    if missing:
        raise ValidationError(f"{path}: label file is missing ids: {missing[:10]}")
    names = {name: j for j, name in enumerate(header[1:])}
    columns = list(names) if columns is None else columns
    unknown = [c for c in columns if c not in names]
    if unknown:
        raise ValidationError(f"{path}: unknown label column(s) {unknown}; "
                              f"its columns are {list(names)}")
    order = [index[rid] for rid in ids]
    return {c: [rows[i][names[c]] for i in order] for c in columns}


def write_labels_csv(ids, table, path):
    names = list(table)
    for name in names:
        if len(table[name]) != len(ids):
            raise ValidationError(f"{path}: {len(table[name])} {name!r} labels "
                                  f"for {len(ids)} ids")
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
