"""Protein sequence corpus ingestion: FASTA parsing, residue validation,
deduplication, host labeling at two taxonomic levels."""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .util import atomic_write_text

# Canonical 20-letter amino-acid alphabet. Sequences containing anything
# else (X, B, Z, gaps, ...) are rejected during validation.
AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"
VALID_RESIDUES = frozenset(AMINO_ACIDS)


class DataError(ValueError):
    """Base class for malformed or inconsistent input data."""


class MalformedFastaError(DataError):
    pass


class SequenceTooShortError(DataError):
    """A sequence is shorter than an encoder's window or gap needs."""


class UnknownHostError(DataError):
    pass


class HostCoarse(str, Enum):
    HUMAN = "human"
    AVIAN = "avian"
    SWINE = "swine"


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
    separate step (see validate_record) so that rejects can be counted.
    """
    id: str
    residues: str
    coarse_label: Optional[HostCoarse] = None
    fine_label: Optional[str] = None
    metadata: dict = field(default_factory=dict)

    def is_incomplete(self) -> bool:
        """Partial-sequence flag, carried in metadata rather than inferred
        from length."""
        return self.metadata.get("incomplete", "").lower() in {"1", "true", "yes"}


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


@dataclass
class FilterReport:
    """Counts emitted by the prepare pipeline."""
    parsed: int = 0
    rejected_alphabet: int = 0
    dropped_duplicate: int = 0
    dropped_multilabel: int = 0
    kept: int = 0
    dropped_incomplete: Optional[int] = None

    def to_dict(self) -> dict:
        d = {
            "parsed": self.parsed,
            "rejected_alphabet": self.rejected_alphabet,
            "dropped_duplicate": self.dropped_duplicate,
            "dropped_multilabel": self.dropped_multilabel,
            "kept": self.kept,
        }
        if self.dropped_incomplete is not None:
            d["dropped_incomplete"] = self.dropped_incomplete
        return d


def default_header_parser(header: str, line_no: int):
    """Parse an `id|k=v|k=v` header into (id, metadata).

    Other corpora use different header schemas; pass a custom parser to
    parse_fasta to adapt them.
    """
    parts = header.split("|")
    rec_id = parts[0].strip()
    if not rec_id:
        raise MalformedFastaError(f"line {line_no}: header has empty id")
    metadata = {}
    for part in parts[1:]:
        if "=" not in part:
            raise MalformedFastaError(
                f"line {line_no}: header field {part!r} is not key=value")
        k, v = part.split("=", 1)
        metadata[k.strip()] = v.strip()
    return rec_id, metadata


def parse_fasta(text: str,
                header_parser: Callable = default_header_parser) -> list:
    """Parse FASTA text into ProteinRecords.

    Sequence lines are concatenated with whitespace stripped and
    uppercased. Record ids must be unique.

    Raises:
        MalformedFastaError: sequence data before any header, an empty
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
            raise MalformedFastaError(
                f"record {rec_id!r} (line {header_line}) has an empty sequence body")
        if rec_id in seen_ids:
            raise MalformedFastaError(f"duplicate record id {rec_id!r}")
        seen_ids.add(rec_id)
        records.append(ProteinRecord(id=rec_id, residues=residues,
                                     metadata=metadata))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            rec_id, metadata = header_parser(line[1:], line_no)
            header_line = line_no
            chunks = []
        else:
            if rec_id is None:
                raise MalformedFastaError(
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


def validate_record(r: ProteinRecord) -> Optional[str]:
    """Return None if the record passes the alphabet filter, else a reason
    naming the first offending character and its 1-based position."""
    for i, ch in enumerate(r.residues, start=1):
        if ch not in VALID_RESIDUES:
            return f"{ch} at position {i}"
    return None


def coarse_host(host: str) -> HostCoarse:
    h = host.strip().lower()
    if h == "human":
        return HostCoarse.HUMAN
    if h in ("swine", "pig"):
        return HostCoarse.SWINE
    if h in AVIAN_HOSTS:
        return HostCoarse.AVIAN
    raise UnknownHostError(f"unknown host {host!r}")


def assign_host_labels(records, key: str = "host") -> list:
    """Fill coarse and fine labels from a metadata field.

    The fine label is the metadata value lowercased; the coarse label is
    its mapping into {human, avian, swine}.
    """
    out = []
    for r in records:
        if key not in r.metadata:
            raise UnknownHostError(f"record {r.id} has no {key!r} metadata")
        fine = r.metadata[key].strip().lower()
        out.append(ProteinRecord(id=r.id, residues=r.residues,
                                 coarse_label=coarse_host(fine),
                                 fine_label=fine, metadata=r.metadata))
    return out


def _label_at(r: ProteinRecord, level: str) -> str:
    if level == "coarse":
        if r.coarse_label is None:
            raise DataError(f"record {r.id} has no coarse label")
        return r.coarse_label.value
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
        (LabeledDataset, FilterReport) with duplicate/multilabel counts
        filled in.
    """
    groups: dict = {}
    order = []
    for r in records:
        if r.residues not in groups:
            groups[r.residues] = []
            order.append(r.residues)
        groups[r.residues].append(r)

    kept = []
    report = FilterReport(parsed=len(records))
    for residues in order:
        group = groups[residues]
        labels = {_label_at(r, level) for r in group}
        if len(labels) > 1:
            report.dropped_multilabel += len(group)
            continue
        kept.append(group[0])
        report.dropped_duplicate += len(group) - 1
    report.kept = len(kept)

    ds = LabeledDataset(records=tuple(kept), level=level,
                        class_names=class_order(_label_at(r, level)
                                                for r in kept))
    return ds, report


def prepare_corpus(text: str, level: str, host_key: str = "host",
                   drop_incomplete: bool = False,
                   header_parser: Callable = default_header_parser):
    """Full ingestion pipeline: parse, validate, label, dedup.

    Returns (LabeledDataset, FilterReport).
    """
    records = parse_fasta(text, header_parser=header_parser)
    n_parsed = len(records)

    valid = []
    n_rejected = 0
    for r in records:
        if validate_record(r) is None:
            valid.append(r)
        else:
            n_rejected += 1

    n_incomplete = None
    if drop_incomplete:
        complete = [r for r in valid if not r.is_incomplete()]
        n_incomplete = len(valid) - len(complete)
        valid = complete

    labeled = assign_host_labels(valid, key=host_key)
    ds, report = dedup_and_resolve(labeled, level)
    report.parsed = n_parsed
    report.rejected_alphabet = n_rejected
    report.dropped_incomplete = n_incomplete
    return ds, report


# ---------------------------------------------------------------------------
# Dataset persistence

def dataset_to_dict(ds: LabeledDataset) -> dict:
    return {
        "level": ds.level,
        "class_names": list(ds.class_names),
        "records": [
            {
                "id": r.id,
                "residues": r.residues,
                "coarse": r.coarse_label.value if r.coarse_label else None,
                "fine": r.fine_label,
                "metadata": r.metadata,
            }
            for r in ds.records
        ],
    }


def dataset_from_dict(d: dict) -> LabeledDataset:
    records = tuple(
        ProteinRecord(
            id=rec["id"], residues=rec["residues"],
            coarse_label=HostCoarse(rec["coarse"]) if rec.get("coarse") else None,
            fine_label=rec.get("fine"),
            metadata=rec.get("metadata", {}),
        )
        for rec in d["records"]
    )
    return LabeledDataset(records=records, level=d["level"],
                          class_names=tuple(d["class_names"]))


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
    atomic_write_text(path, json.dumps(dataset_to_dict(ds), indent=1,
                                       sort_keys=True) + "\n")


def load_dataset(path) -> LabeledDataset:
    doc = read_json(path)
    try:
        return dataset_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed dataset: {exc!r}") from exc
