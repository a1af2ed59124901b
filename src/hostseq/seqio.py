"""Protein sequence corpus ingestion: FASTA parsing, residue validation,
deduplication, host labeling at two taxonomic levels."""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .util import DataError, write_json

# Canonical 20-letter amino-acid alphabet. Sequences containing anything
# else (X, B, Z, gaps, ...) are rejected during validation.
AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"
VALID_RESIDUES = frozenset(AMINO_ACIDS)


COARSE_HOSTS = ("human", "avian", "swine")


# Avian sub-hosts recognised at the fine taxonomic level. The generic
# "avian" tag itself also maps to the coarse avian class.
AVIAN_HOSTS = frozenset({
    "avian", "chicken", "duck", "mallard", "goose", "turkey", "swan",
    "gull", "quail", "pheasant", "partridge", "ostrich", "pigeon",
    "teal", "wigeon", "pintail", "sparrow", "crow", "falcon", "eagle",
    "shearwater", "guineafowl", "peacock", "emu", "heron", "sanderling",
})


@dataclass(frozen=True)
class ProteinRecord:
    """One labeled amino-acid sequence.

    residues is uppercase; validation against the canonical alphabet is a
    separate step of prepare_corpus so that rejects can be counted.
    coarse_label is one of COARSE_HOSTS.
    """
    id: str
    residues: str
    coarse_label: Optional[str] = None
    fine_label: Optional[str] = None
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LabeledDataset:
    records: tuple
    level: str  # "coarse" | "fine"
    class_names: tuple

    def __post_init__(self):
        names = set(self.class_names)
        for r, label in zip(self.records, self.labels):
            if label not in names:
                raise DataError(f"record {r.id} has label outside class_names")

    @property
    def labels(self) -> list:
        return [_label_at(r, self.level) for r in self.records]

    def __len__(self):
        return len(self.records)


def parse_fasta(text: str) -> list:
    """Parse FASTA text with `id|k=v|k=v` headers into ProteinRecords.

    Sequence lines are concatenated with whitespace stripped and
    uppercased. Record ids must be unique.

    Raises:
        DataError: an empty header id, a header field that is
            not key=value, sequence data before any header, an empty
            sequence body, or a duplicate id.
    """
    records = []
    seen_ids = set()
    rec_id = None
    metadata = {}
    chunks = []
    header_line = 0

    def flush():
        if rec_id is None:
            return
        residues = "".join(chunks)
        if not residues:
            raise DataError(
                f"record {rec_id!r} (line {header_line}) has an empty sequence body")
        if rec_id in seen_ids:
            raise DataError(f"duplicate record id {rec_id!r}")
        seen_ids.add(rec_id)
        records.append(ProteinRecord(id=rec_id, residues=residues,
                                     metadata=metadata))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            rec_id, *fields = line[1:].split("|")
            rec_id = rec_id.strip()
            if not rec_id:
                raise DataError(f"line {line_no}: header has empty id")
            metadata = {}
            for part in fields:
                if "=" not in part:
                    raise DataError(
                        f"line {line_no}: header field {part!r} is not key=value")
                k, v = part.split("=", 1)
                metadata[k.strip()] = v.strip()
            header_line = line_no
            chunks = []
        else:
            if rec_id is None:
                raise DataError(
                    f"line {line_no}: sequence data before any header")
            chunks.append("".join(line.split()).upper())
    flush()
    return records


def write_fasta(records) -> str:
    """Serialize records back to FASTA with the `id|k=v` header grammar."""
    lines = []
    for r in records:
        header = r.id
        for k, v in r.metadata.items():
            header += f"|{k}={v}"
        lines.append(">" + header)
        lines.append(r.residues)
    return "\n".join(lines) + ("\n" if lines else "")


def coarse_host(host: str) -> str:
    """The coarse class, one of COARSE_HOSTS, of a host name."""
    h = host.strip().lower()
    if h in ("human", "swine", "pig"):
        return "swine" if h == "pig" else h
    if h in AVIAN_HOSTS:
        return "avian"
    raise DataError(f"unknown host {host!r}")


def assign_host_labels(records, key: str = "host") -> list:
    """Fill coarse and fine labels from a metadata field.

    The fine label is the metadata value lowercased; the coarse label is
    its mapping into {human, avian, swine}.
    """
    out = []
    for r in records:
        if key not in r.metadata:
            raise DataError(f"record {r.id} has no {key!r} metadata")
        fine = r.metadata[key].strip().lower()
        out.append(ProteinRecord(id=r.id, residues=r.residues,
                                 coarse_label=coarse_host(fine),
                                 fine_label=fine, metadata=r.metadata))
    return out


def _label_at(r: ProteinRecord, level: str) -> str:
    if level == "coarse":
        if r.coarse_label is None:
            raise DataError(f"record {r.id} has no coarse label")
        return r.coarse_label
    if level == "fine":
        if r.fine_label is None:
            raise DataError(f"record {r.id} has no fine label")
        return r.fine_label
    raise DataError(f"level must be 'coarse' or 'fine', got {level!r}")


def class_order(labels) -> tuple:
    """The class names of a label sequence: its distinct labels, sorted.
    Every dataset and model input orders its classes this way."""
    return tuple(sorted(set(labels)))


def dedup_and_resolve(records, level: str):
    """Collapse identical residue strings and drop label conflicts.

    Duplicates sharing one label keep a single representative (first by
    input order). Groups whose labels disagree are removed entirely: an
    ambiguous isolated host is useless as ground truth.

    Returns:
        (LabeledDataset, counts) where counts maps dropped_duplicate,
        dropped_multilabel and kept to record counts.
    """
    groups: dict = {}  # residues -> records, in first-appearance order
    for r in records:
        groups.setdefault(r.residues, []).append(r)

    kept = []
    counts = {"dropped_duplicate": 0, "dropped_multilabel": 0}
    for group in groups.values():
        labels = {_label_at(r, level) for r in group}
        if len(labels) > 1:
            counts["dropped_multilabel"] += len(group)
            continue
        kept.append(group[0])
        counts["dropped_duplicate"] += len(group) - 1
    counts["kept"] = len(kept)

    ds = LabeledDataset(records=tuple(kept), level=level,
                        class_names=class_order(_label_at(r, level)
                                                for r in kept))
    return ds, counts


def prepare_corpus(text: str, level: str, host_key: str = "host",
                   drop_incomplete: bool = False):
    """Full ingestion pipeline: parse, validate, label, dedup.

    Returns the LabeledDataset and the filter_report.json document: the
    records parsed, rejected by the alphabet filter, dropped as
    incomplete (a key present only under drop_incomplete), dropped as
    duplicates or as label conflicts, and kept.
    """
    records = parse_fasta(text)
    valid = [r for r in records if VALID_RESIDUES.issuperset(r.residues)]
    report = {"parsed": len(records),
              "rejected_alphabet": len(records) - len(valid)}
    if drop_incomplete:
        # The partial-sequence flag is carried in metadata rather than
        # inferred from length.
        complete = [r for r in valid if r.metadata.get("incomplete", "")
                    .lower() not in {"1", "true", "yes"}]
        report["dropped_incomplete"] = len(valid) - len(complete)
        valid = complete

    ds, counts = dedup_and_resolve(assign_host_labels(valid, key=host_key),
                                   level)
    report.update(counts)
    return ds, report


# ---------------------------------------------------------------------------
# Dataset persistence

@contextlib.contextmanager
def open_text(path, newline=None):
    """Opens a UTF-8 text file; bytes read from it that do not decode
    raise a DataError naming the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from exc


def read_text(path) -> str:
    with open_text(path) as fh:
        return fh.read()


def read_json(path):
    """The JSON document in a file; malformed JSON is a DataError."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not JSON ({exc})") from exc


def save_dataset(ds: LabeledDataset, path) -> None:
    write_json(path, {
        "level": ds.level,
        "class_names": list(ds.class_names),
        "records": [
            {
                "id": r.id,
                "residues": r.residues,
                "coarse": r.coarse_label,
                "fine": r.fine_label,
                "metadata": r.metadata,
            }
            for r in ds.records
        ],
    }, indent=1)


def load_dataset(path) -> LabeledDataset:
    """The dataset a save_dataset file holds; a malformed one, or a coarse
    label outside COARSE_HOSTS, is a DataError."""
    doc = read_json(path)
    try:
        records = []
        for rec in doc["records"]:
            coarse = rec.get("coarse") or None
            if coarse is not None and coarse not in COARSE_HOSTS:
                raise ValueError(f"{coarse!r} is not a coarse host")
            records.append(ProteinRecord(
                id=rec["id"], residues=rec["residues"], coarse_label=coarse,
                fine_label=rec.get("fine"), metadata=rec.get("metadata", {})))
        return LabeledDataset(records=tuple(records), level=doc["level"],
                              class_names=tuple(doc["class_names"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed dataset: {exc!r}") from exc
