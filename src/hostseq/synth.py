"""Deterministic synthetic corpus generator.

Each class is defined by a short motif implanted once into otherwise
uniform-random residues. The signal is knowable by construction, so any
competent sequence classifier must find it; that makes end-to-end tests
meaningful without real data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pssm
from .seqio import (AMINO_ACIDS, VALID_RESIDUES, LabeledDataset, ProteinRecord,
                    class_order)
from .util import derive_seed


@dataclass(frozen=True)
class ClassDef:
    name: str
    motif: str
    proportion: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("class name must be non-empty")
        if not self.motif or any(ch not in VALID_RESIDUES for ch in self.motif):
            raise ValueError(f"motif for {self.name!r} must be canonical residues")
        if not 0 < self.proportion <= 1:
            raise ValueError(f"proportion for {self.name!r} must be in (0, 1]")


@dataclass(frozen=True)
class SynthSpec:
    classes: tuple          # ClassDef per class
    records: int
    min_len: int
    max_len: int
    seed: int

    def __post_init__(self):
        if self.records < 1:
            raise ValueError("records must be positive")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        if len(self.classes) < 2:
            raise ValueError("need at least 2 classes")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")
        total = sum(c.proportion for c in self.classes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"proportions sum to {total}, expected 1")
        longest = max(len(c.motif) for c in self.classes)
        if longest > self.min_len:
            raise ValueError(
                f"motif length {longest} exceeds min_len {self.min_len}")


# Motif alphabets drawn from disjoint residue groups, so class signal
# survives both token and grouped-profile featurization.
_MOTIF_GROUPS = ("FYW", "QED", "RK", "ML", "ATS", "NH", "IV", "C", "G", "P")
_MOTIF_LEN = 8


def default_classes(n_classes: int) -> tuple:
    if not 2 <= n_classes <= len(_MOTIF_GROUPS):
        raise ValueError(f"n_classes must lie in [2, {len(_MOTIF_GROUPS)}]")
    base, extra = divmod(100, n_classes)
    defs = []
    for c in range(n_classes):
        group = _MOTIF_GROUPS[c]
        motif = (group * _MOTIF_LEN)[:_MOTIF_LEN]
        pct = base + (1 if c < extra else 0)
        defs.append(ClassDef(name=f"class{c}", motif=motif,
                             proportion=pct / 100.0))
    return tuple(defs)


def class_counts(spec: SynthSpec) -> list:
    """Largest-remainder apportionment of spec.records by proportion."""
    exact = [c.proportion * spec.records for c in spec.classes]
    counts = [int(np.floor(v)) for v in exact]
    short = spec.records - sum(counts)
    order = sorted(range(len(counts)),
                   key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def _draw_record(class_def: ClassDef, min_len: int, max_len: int,
                 seed: int, index: int) -> str:
    """Uniform residues with the motif implanted exactly once.

    Backgrounds that happen to contain a second motif copy are redrawn
    with a fresh derived seed.
    """
    motif = class_def.motif
    for attempt in range(100):
        rng = np.random.default_rng(
            derive_seed(seed, "record", index, "attempt", attempt))
        length = int(rng.integers(min_len, max_len + 1))
        residues = rng.integers(0, len(AMINO_ACIDS), size=length)
        chars = [AMINO_ACIDS[i] for i in residues]
        pos = int(rng.integers(0, length - len(motif) + 1))
        chars[pos:pos + len(motif)] = motif
        text = "".join(chars)
        # the copy at pos is the only one, overlapping copies included
        if text.find(motif) == pos and text.find(motif, pos + 1) < 0:
            return text
    raise RuntimeError(
        f"could not draw a single-occurrence background for {class_def.name}")


def generate(spec: SynthSpec) -> LabeledDataset:
    """Build the labeled corpus; identical spec -> identical corpus."""
    counts = class_counts(spec)
    width = len(str(spec.records - 1))
    records = []
    index = 0
    for class_def, count in zip(spec.classes, counts):
        for _ in range(count):
            residues = _draw_record(class_def, spec.min_len, spec.max_len,
                                    spec.seed, index)
            records.append(ProteinRecord(
                id=f"synth-{index:0{width}d}",
                residues=residues,
                fine_label=class_def.name,
                metadata={"host": class_def.name}))
            index += 1
    return LabeledDataset(records=tuple(records), level="fine",
                          class_names=class_order(c.name for c in spec.classes))


def generate_pssms(ds: LabeledDataset, seed: int) -> dict:
    """Synthetic profile per record, keyed by record id."""
    return {r.id: pssm.synth_pssm(r.residues, seed) for r in ds.records}
