"""Every artifact file: its name under a command's --out directory, and
its format but for seqio's dataset.json and FASTA text. JSON documents
go through util.write_json, with sorted keys.

Every CSV table goes through one row writer, _write_table: its quoting
is `csv.writer`'s minimal one plus `\\r`, so a table reads back through
`csv.reader` whatever its ids, labels and class names hold, and its
numbers are written with `repr`, so floats round-trip exactly.

The checkpoint is a magic-tagged container: a JSON header describing
the model and its arrays, followed by the raw little-endian array
blocks in header order. One format serves both the neural nets and the
tree ensembles.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import json
import math
import os
import re
import struct
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .estimators import FAMILIES
from .ngram import OOV_ID, PAD_ID, Vocabulary, true_lengths
from .pssm import parse_psiblast_pssm, render_psiblast_pssm
from .seqio import open_text, read_json, read_text, write_fasta
from .util import (DataError, atomic_write_bytes, atomic_write_text, located,
                   write_json)

# The file name of each artifact a command writes (see OutDir.file); a
# profile directory holds one PSSM_FILE per record id.
DATASET_FILE = "dataset.json"
FASTA_FILE = "corpus.fasta"
PSSM_DIR = "pssms/"
PSSM_FILE = "{}.pssm"
FILTER_REPORT_FILE = "filter_report.json"
FEATURES_FILE = "features.csv"
VOCAB_FILE = "vocab.json"
TOKENS_FILE = "tokens.csv"
MODEL_FILE = "model.bin"
PREDICTIONS_FILE = "predictions.csv"
PLAN_FILE = "cv_plan.json"
METRICS_FILE = "metrics.json"
PR_CURVES_FILE = "pr_curves.csv"
METRICS_CSV_FILE = "metrics.csv"
DISAGREEMENT_FILE = "disagreement.json"
TOKEN_FREQUENCIES_FILE = "token_frequencies.csv"
MANIFEST_FILE = "manifest.json"
LOG_FILE = "run.log"

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
    """Returns (ids, labels, scheme, matrix); a nan or infinite value,
    which encode never writes, is a DataError naming the record."""
    header, rows = _read_table(path, ["id", "label", "scheme"], "feature")
    scheme = rows[0][2]
    for row in rows:
        if row[2] != scheme:
            raise DataError(f"{path}: mixed schemes {scheme!r} and {row[2]!r}")
    matrix = np.asarray([_numbers(path, row, np.float64, row[3:])
                         for row in rows]).reshape(len(rows), len(header) - 3)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}: record {rows[finite.argmin()][0]!r}: a "
                        f"value that is not finite")
    return [row[0] for row in rows], [row[1] for row in rows], scheme, matrix


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
            if not all(0 <= n <= len(blob) for n in shape):
                raise ValueError("a dimension below 0 or past the file")
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"{path}: malformed array entry {entry!r}") from exc
        if dtype is None:
            raise DataError(f"{path}: unknown dtype {entry['dtype']!r}")
        count = math.prod(shape)  # a Python int: no overflow
        if offset + count * dtype.itemsize > len(blob):
            raise DataError(f"{path}: truncated array block")
        arrays[name] = np.frombuffer(blob, dtype=dtype, count=count,
                                     offset=offset).reshape(shape).copy()
        offset += count * dtype.itemsize
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


def save_vocab(vocab: Vocabulary, max_len: int, path) -> None:
    write_json(path, {"n": vocab.n, "max_len": max_len, "pad_id": PAD_ID,
                      "oov_id": OOV_ID, "tokens": list(vocab.token_to_id)},
               indent=1)


def load_vocab(path):
    """Returns (Vocabulary, max_len). A malformed file, a repeated token
    or a token whose length is not n is a DataError."""
    doc = read_json(path)
    try:
        n, tokens = doc["n"], doc["tokens"]
        token_to_id = {tok: i + 2 for i, tok in enumerate(tokens)}
        if len(token_to_id) != len(tokens) or any(len(t) != n for t in tokens):
            raise ValueError(f"tokens must be distinct and of length {n}")
        return Vocabulary(n=n, token_to_id=token_to_id), doc["max_len"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed vocabulary: {exc!r}") from exc


def read_table(features_path, tokens_path, vocab_path):
    """Returns (ids, labels, matrix, vocab) of a features.csv, with vocab
    None, or else of a tokens.csv and the vocab.json it was encoded
    with. A width other than the vocabulary's max_len, or an id outside
    its ids, is a DataError."""
    if features_path:
        ids, labels, _, matrix = read_features_csv(features_path)
        return ids, labels, matrix, None
    vocab, max_len = load_vocab(vocab_path)
    ids, labels, matrix = read_tokens_csv(tokens_path)
    if matrix.shape[1] != max_len:
        raise DataError(f"{tokens_path}: width {matrix.shape[1]} does not "
                        f"match vocab max_len {max_len}")
    if matrix.size and not 0 <= matrix.min() <= matrix.max() < vocab.size:
        raise DataError(f"{tokens_path}: token ids outside [0, {vocab.size}),"
                        f" the ids of {vocab_path}")
    return ids, labels, matrix, vocab


def save_plan(plan, path) -> None:
    """cv_plan.json of an evaluation.CvPlan."""
    write_json(path, {**plan._asdict(), "outer": plan.outer.tolist(),
                      "inner": plan.inner.tolist()})


def read_pssms(directory, ids) -> dict:
    """Profile per record id, parsed from <id>.pssm in directory; a parse
    error names its file."""
    profiles = {}
    for rid in ids:
        path = os.path.join(directory, PSSM_FILE.format(rid))
        text = read_text(path)  # a read error names the path itself
        with located(path, DataError):
            profiles[rid] = parse_psiblast_pssm(text)
    return profiles


class OutDir:
    """A command's --out directory, created if missing. file and the
    write methods list each artifact they name; finish writes the
    manifest of that list."""

    def __init__(self, path):
        os.makedirs(path, exist_ok=True)
        self.path = path
        self.artifacts = []

    def file(self, name) -> str:
        """The path of artifact name, which the manifest will list."""
        self.artifacts.append(name)
        return os.path.join(self.path, name)

    def write_corpus(self, records) -> None:
        """corpus.fasta of records."""
        atomic_write_text(self.file(FASTA_FILE), write_fasta(records))

    def write_pssms(self, profiles) -> None:
        """pssms/, holding each profile in PSI-BLAST layout."""
        directory = self.file(PSSM_DIR)
        os.makedirs(directory, exist_ok=True)
        for rid, raw in profiles.items():
            atomic_write_text(os.path.join(directory, PSSM_FILE.format(rid)),
                              render_psiblast_pssm(raw))

    def write_scores(self, doc, curves) -> None:
        """metrics.json holding doc, and pr_curves.csv holding curves."""
        write_json(self.file(METRICS_FILE), doc)
        write_pr_curves_csv(self.file(PR_CURVES_FILE), curves)

    def finish(self, command, config) -> None:
        """Writes the manifest and appends a run.log line."""
        canonical = json.dumps(config, sort_keys=True)
        write_json(os.path.join(self.path, MANIFEST_FILE), {
            "command": command,
            "config": config,
            "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
            "seed": config.get("seed"),
            "versions": {"hostseq": __version__,
                         "python": ".".join(map(str, sys.version_info[:3])),
                         "numpy": np.__version__},
            "artifacts": sorted(self.artifacts),
        })
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with open(os.path.join(self.path, LOG_FILE), "a",
                  encoding="utf-8") as fh:
            fh.write(f"{stamp} {command}\n")
