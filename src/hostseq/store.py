"""On-disk artifact formats: the feature table CSV, the token table
CSV, and the binary model checkpoint.

The checkpoint is a magic-tagged container: a JSON header describing
the model and its arrays, followed by the raw little-endian array
blocks in header order. One format serves both the neural nets and the
tree ensembles.
"""

from __future__ import annotations

import csv
import io
import json
import struct

import numpy as np

from .ensemble import Forest, RusBoostModel
from .models import NeuralClassifier
from .seqio import DataError
from .util import atomic_write_bytes, atomic_write_text


class CheckpointError(DataError):
    """Raised for unreadable or mismatched checkpoint files."""


MAGIC = b"HSEQCKPT"
VERSION = 1
_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def write_features_csv(path, ids, labels, scheme: str, matrix) -> None:
    """Rows of id,label,scheme,v0..v{d-1}; floats use repr round-trip."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or len(ids) != matrix.shape[0] \
            or len(labels) != matrix.shape[0]:
        raise ValueError("ids, labels and matrix rows must align")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "label", "scheme"]
                    + [f"v{i}" for i in range(matrix.shape[1])])
    for rid, label, row in zip(ids, labels, matrix):
        writer.writerow([rid, label, scheme] + [repr(float(v)) for v in row])
    atomic_write_text(path, buf.getvalue())


def read_features_csv(path):
    """Returns (ids, labels, scheme, matrix)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise DataError(f"{path}: no feature rows")
    header = rows[0]
    if header[:3] != ["id", "label", "scheme"]:
        raise DataError(f"{path}: unexpected header {header[:3]}")
    width = len(header) - 3
    ids, labels, values = [], [], []
    scheme = None
    for row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"{path}: row width mismatch for {row[0]!r}")
        ids.append(row[0])
        labels.append(row[1])
        if scheme is None:
            scheme = row[2]
        elif row[2] != scheme:
            raise DataError(f"{path}: mixed schemes {scheme!r} and {row[2]!r}")
        values.append([float(v) for v in row[3:]])
    return ids, labels, scheme, np.asarray(values, dtype=np.float64).reshape(
        len(ids), width)


def write_tokens_csv(path, ids, labels, matrix, true_lens) -> None:
    """Rows of id,label,true_len,t0..t{max_len-1} (left-padded ids)."""
    matrix = np.asarray(matrix)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "label", "true_len"]
                    + [f"t{i}" for i in range(matrix.shape[1])])
    for rid, label, n, row in zip(ids, labels, true_lens, matrix):
        writer.writerow([rid, label, int(n)] + [int(v) for v in row])
    atomic_write_text(path, buf.getvalue())


def read_tokens_csv(path):
    """Returns (ids, labels, matrix, true_lens)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise DataError(f"{path}: no token rows")
    header = rows[0]
    if header[:3] != ["id", "label", "true_len"]:
        raise DataError(f"{path}: unexpected header {header[:3]}")
    ids, labels, lens, values = [], [], [], []
    for row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"{path}: row width mismatch for {row[0]!r}")
        ids.append(row[0])
        labels.append(row[1])
        lens.append(int(row[2]))
        values.append([int(v) for v in row[3:]])
    return (ids, labels, np.asarray(values, dtype=np.int64),
            np.asarray(lens, dtype=np.int64))


def save_checkpoint(path, kind: str, meta: dict, arrays: dict) -> None:
    entries = []
    blocks = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if np.issubdtype(arr.dtype, np.integer):
            arr = arr.astype("<i8")
            dtype = "<i8"
        else:
            arr = arr.astype("<f8")
            dtype = "<f8"
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
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack_from("<IQ", blob, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    start = len(MAGIC) + 12
    try:
        header = json.loads(blob[start:start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header") from exc
    if not isinstance(header, dict) or not isinstance(
            header.get("arrays"), list) or "kind" not in header \
            or not isinstance(header.get("meta"), dict):
        raise CheckpointError(f"{path}: header lacks kind, meta or arrays")
    offset = start + header_len
    arrays = {}
    for entry in header["arrays"]:
        try:
            name, dtype = entry["name"], _DTYPES.get(entry["dtype"])
            shape = tuple(int(n) for n in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{path}: malformed array entry {entry!r}") from exc
        if dtype is None:
            raise CheckpointError(f"{path}: unknown dtype {entry['dtype']!r}")
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if offset + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated array block")
        arrays[name] = np.frombuffer(
            blob, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)),
            offset=offset).reshape(shape).copy()
        offset += nbytes
    return header["kind"], header["meta"], arrays


# Checkpoint "model" tag -> estimator class. Each class writes itself
# with to_checkpoint() and reads itself back with from_checkpoint().
_FAMILIES = {cls.FAMILY: cls
             for cls in (NeuralClassifier, Forest, RusBoostModel)}


def save_model(path, model, class_names) -> None:
    if type(model) not in _FAMILIES.values():
        raise TypeError(
            f"cannot serialize model of type {type(model).__name__}")
    kind, meta, arrays = model.to_checkpoint()
    meta = {**meta, "model": model.FAMILY, "class_names": list(class_names)}
    save_checkpoint(path, kind, meta, arrays)


def load_model(path):
    """Returns (model, class_names)."""
    _, meta, arrays = load_checkpoint(path)
    cls = _FAMILIES.get(meta.get("model"))
    if cls is None:
        raise CheckpointError(
            f"{path}: unknown model family {meta.get('model')!r}")
    try:
        return cls.from_checkpoint(meta, arrays), tuple(meta["class_names"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: arrays or header do not match: {exc}") from exc
