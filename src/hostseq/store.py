"""On-disk artifact formats: the feature, token, prediction, metrics,
PR-curve and token-frequency CSV tables, and the binary model
checkpoint.

Every CSV table goes through one row writer. A text field, headers
included, is wrapped in `"` with inner `"` doubled if and only if it
holds `,`, `"`, `\\n` or `\\r`; that is `csv.writer`'s minimal quoting
plus `\\r`, so a table reads back through `csv.reader` whatever its ids,
labels and class names hold. Numbers are written one value at a time
with `repr`, so floats round-trip exactly.

The checkpoint is a magic-tagged container: a JSON header describing
the model and its arrays, followed by the raw little-endian array
blocks in header order. One format serves both the neural nets and the
tree ensembles.
"""

from __future__ import annotations

import csv
import io
import json
import re
import struct
from dataclasses import asdict

import numpy as np

from .estimators import FAMILIES
from .ngram import true_lengths
from .seqio import DataError, open_text
from .util import atomic_write_bytes, atomic_write_text


MAGIC = b"HSEQCKPT"
VERSION = 2   # 1 recorded no input width
_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def write_features_csv(path, ids, labels, scheme: str, matrix) -> None:
    """Rows of id,label,scheme,v0..v{d-1}; floats use repr round-trip."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or len(ids) != matrix.shape[0] \
            or len(labels) != matrix.shape[0]:
        raise ValueError("ids, labels and matrix rows must align")
    _write_table(path, ["id", "label", "scheme"]
                 + [f"v{i}" for i in range(matrix.shape[1])],
                 ((rid, label, scheme) for rid, label in zip(ids, labels)),
                 matrix)


_NEEDS_QUOTES = re.compile('[,"\n\r]')


def _csv_text(fields) -> str:
    return ",".join('"' + f.replace('"', '""') + '"'
                    if _NEEDS_QUOTES.search(f) else f for f in fields)


def _write_table(path, header, rows, numbers=None) -> None:
    """Writes header and rows of text fields as CSV lines ending in \\n;
    with a 2-D numbers array, each row continues with its row of numbers,
    written one value at a time with repr (tolist once per row). A text
    field is quoted, with inner `"` doubled, if and only if it holds
    `,`, `"`, `\\n` or `\\r`."""
    buf = io.StringIO()
    buf.write(_csv_text(header) + "\n")
    if numbers is None:
        for fields in rows:
            buf.write(_csv_text(fields) + "\n")
    else:
        for fields, values in zip(rows, numbers):
            buf.write(_csv_text(fields) + ","
                      + ",".join(map(repr, values.tolist())) + "\n")
    atomic_write_text(path, buf.getvalue())


def _read_table(path, columns, what):
    """Data rows of a CSV whose header is columns and at least one more;
    returns (header, rows). Every row must be as wide as the header."""
    with open_text(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise DataError(f"{path}: no {what} rows")
    header = rows[0]
    if header[:len(columns)] != columns:
        raise DataError(f"{path}: unexpected header {header[:len(columns)]}")
    if len(header) == len(columns):
        raise DataError(f"{path}: no value columns after {columns}")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: line {line} has {len(row)} fields, "
                            f"the header {len(header)}")
    return header, rows[1:]


def _numbers(path, row, dtype, fields) -> np.ndarray:
    """fields of record row as a dtype vector. numpy parses each field
    with int() or float(); a field that does not parse, or an integer
    outside dtype's range, is a DataError naming the record."""
    try:
        return np.array(fields, dtype=dtype)
    except ValueError as exc:
        raise DataError(f"{path}: record {row[0]!r}: {exc}") from exc
    except OverflowError:
        raise DataError(f"{path}: record {row[0]!r}: a value outside the "
                        f"{np.dtype(dtype)} range") from None


def read_features_csv(path):
    """Returns (ids, labels, scheme, matrix)."""
    header, rows = _read_table(path, ["id", "label", "scheme"], "feature")
    scheme = rows[0][2]
    for row in rows:
        if row[2] != scheme:
            raise DataError(f"{path}: mixed schemes {scheme!r} and {row[2]!r}")
    values = [_numbers(path, row, np.float64, row[3:]) for row in rows]
    return ([row[0] for row in rows], [row[1] for row in rows], scheme,
            np.asarray(values, dtype=np.float64).reshape(
                len(rows), len(header) - 3))


def write_tokens_csv(path, ids, labels, matrix) -> None:
    """Rows of id,label,true_len,t0..t{max_len-1} (left-padded ids)."""
    matrix = np.asarray(matrix, dtype=np.int64)
    _write_table(path, ["id", "label", "true_len"]
                 + [f"t{i}" for i in range(matrix.shape[1])],
                 ((rid, label, str(n)) for rid, label, n in zip(
                     ids, labels, true_lengths(matrix).tolist())),
                 matrix)


def read_tokens_csv(path):
    """Returns (ids, labels, matrix); a miscounted true_len is a DataError."""
    _, rows = _read_table(path, ["id", "label", "true_len"], "token")
    table = np.array([_numbers(path, row, np.int64, row[2:])
                      for row in rows])
    matrix = table[:, 1:]
    for row, stated, counted in zip(rows, table[:, 0], true_lengths(matrix)):
        if stated != counted:
            raise DataError(f"{path}: record {row[0]!r}: true_len {stated} "
                            f"but {counted} non-pad ids")
    return [row[0] for row in rows], [row[1] for row in rows], matrix


def write_predictions_csv(path, ids, labels, proba, class_names) -> None:
    """Rows of id,true,predicted,p_<class>...; floats use repr round-trip."""
    pred = proba.argmax(axis=1)
    _write_table(path, ["id", "true", "predicted"]
                 + [f"p_{name}" for name in class_names],
                 ((rid, labels[i], class_names[pred[i]])
                  for i, rid in enumerate(ids)), proba)


def read_predictions_csv(path):
    """Returns (ids, true, predicted, class_names, proba); a row whose
    probabilities do not sum to 1 (within 1e-6) is a DataError."""
    header, rows = _read_table(path, ["id", "true", "predicted"],
                               "prediction")
    proba = np.array([_numbers(path, row, np.float64, row[3:])
                      for row in rows])
    sums = proba.sum(axis=1)
    bad = np.flatnonzero(~np.isclose(sums, 1.0, atol=1e-6))
    if bad.size:
        raise DataError(f"{path}: record {rows[bad[0]][0]!r}: probabilities "
                        f"sum to {float(sums[bad[0]])!r}, not 1")
    return ([row[0] for row in rows], [row[1] for row in rows],
            [row[2] for row in rows], tuple(h[2:] for h in header[3:]), proba)


def write_metrics_csv(path, report_dict) -> None:
    """Rows of scope,class,metric,value from a metrics report dict."""
    rows = [["per_class", name, metric, repr(value)]
            for name in report_dict["class_names"]
            for metric, value in sorted(
                report_dict["per_class"][name].items())]
    rows += [["overall", "", metric, repr(value)]
             for metric, value in sorted(report_dict["overall"].items())]
    _write_table(path, ["scope", "class", "metric", "value"], rows)


def write_pr_curves_csv(path, curves) -> None:
    """Rows of class,recall,precision: every point of each class's PR
    curve, from a dict of class name -> (recall, precision) points."""
    _write_table(path, ["class", "recall", "precision"],
                 ([name, repr(recall), repr(precision)]
                  for name, points in curves.items()
                  for recall, precision in points))


def write_token_frequencies_csv(path, frequencies, class_names, top) -> None:
    """Rows of class,token,count: each class's top tokens by count, ties
    by token."""
    rows = []
    for name in class_names:
        counter = frequencies.get(name, {})
        ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        rows += [[name, token, str(count)] for token, count in ranked[:top]]
    _write_table(path, ["class", "token", "count"], rows)


def save_checkpoint(path, kind: str, meta: dict, arrays: dict) -> None:
    entries = []
    blocks = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        dtype = "<i8" if np.issubdtype(arr.dtype, np.integer) else "<f8"
        arr = arr.astype(dtype)
        entries.append({"name": name, "dtype": dtype,
                        "shape": list(arr.shape)})
        blocks.append(np.ascontiguousarray(arr).tobytes())
    header = json.dumps({"kind": kind, "meta": meta, "arrays": entries},
                        sort_keys=True).encode("utf-8")
    out = b"".join([MAGIC, struct.pack("<IQ", VERSION, len(header)), header]
                   + blocks)
    atomic_write_bytes(path, out)


def load_checkpoint(path):
    """Returns (kind, meta, arrays)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12 or blob[:len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack_from("<IQ", blob, len(MAGIC))
    if version != VERSION:
        raise DataError(f"{path}: unsupported version {version} (this "
                        f"build reads {VERSION}; train the model again)")
    start = len(MAGIC) + 12
    try:
        header = json.loads(blob[start:start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt header") from exc
    if not isinstance(header, dict) or not isinstance(
            header.get("arrays"), list) or "kind" not in header \
            or not isinstance(header.get("meta"), dict):
        raise DataError(f"{path}: header lacks kind, meta or arrays")
    offset = start + header_len
    arrays = {}
    for entry in header["arrays"]:
        try:
            name, dtype = entry["name"], _DTYPES.get(entry["dtype"])
            shape = tuple(int(n) for n in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"{path}: malformed array entry {entry!r}") from exc
        if dtype is None:
            raise DataError(f"{path}: unknown dtype {entry['dtype']!r}")
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if offset + nbytes > len(blob):
            raise DataError(f"{path}: truncated array block")
        arrays[name] = np.frombuffer(
            blob, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)),
            offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} bytes more than "
                        f"its header describes")
    return header["kind"], header["meta"], arrays


def save_model(path, model, class_names) -> None:
    """Writes an estimator of a family in estimators.FAMILIES: the arrays
    of its to_checkpoint(), tagged with its FAMILY, under one meta layout
    for every family: its config, class count, the input width it learned
    at fit, family tag and class names. load_model rebuilds it as
    estimator(config, n_classes).load_arrays(arrays, n_features)."""
    if type(model) not in {kind.estimator for kind in FAMILIES.values()}:
        raise TypeError(
            f"cannot serialize model of type {type(model).__name__}")
    meta = {"config": asdict(model.config), "n_classes": model.n_classes,
            "n_features": model.n_features, "model": model.FAMILY,
            "class_names": list(class_names)}
    save_checkpoint(path, model.FAMILY, meta, model.to_checkpoint())


def load_model(path):
    """Returns (model, class_names), one class name per model class."""
    _, meta, arrays = load_checkpoint(path)
    family = FAMILIES.get(meta.get("model"))
    if family is None:
        raise DataError(f"{path}: unknown model family {meta.get('model')!r}")
    try:
        model = family.estimator(
            family.config(**meta["config"]), int(meta["n_classes"])
        ).load_arrays(arrays, int(meta["n_features"]))
        class_names = tuple(meta["class_names"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"{path}: arrays or header do not match: {exc}") from exc
    if len(class_names) != model.n_classes:
        raise DataError(f"{path}: {len(class_names)} class names for a "
                        f"model of {model.n_classes} classes")
    return model, class_names
