"""Position-specific scoring matrices: PSI-BLAST ASCII parsing, sigmoid
normalization, physicochemical residue grouping and the three fixed-length
encoders (grouped row means, grouped dipeptide composition, gapped
squared-difference pseudo-composition)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqio import DataError, SequenceTooShortError, VALID_RESIDUES
from .util import derive_seed

# Standard PSI-BLAST log-odds column order.
PSIBLAST_COLUMNS = "ARNDCQEGHILKMFPSTWYV"

# Ten physicochemical residue groups; together they partition the alphabet.
RESIDUE_GROUPS = ("FYW", "ML", "IV", "ATS", "NH", "QED", "RK", "C", "G", "P")

SCHEME_DIMS = {"eg": 100, "gdpc": 100, "er": 910}

_COL_INDEX = {aa: i for i, aa in enumerate(PSIBLAST_COLUMNS)}
_GROUP_OF = {aa: gi for gi, members in enumerate(RESIDUE_GROUPS)
             for aa in members}


class PssmFormatError(DataError):
    pass


@dataclass(frozen=True)
class RawPssm:
    """Log-odds substitution scores, one row per query position."""
    residues: str
    scores: np.ndarray  # (L, 20) int

    def __post_init__(self):
        if self.scores.shape != (len(self.residues), 20):
            raise ValueError(
                f"score shape {self.scores.shape} does not match "
                f"{len(self.residues)} residues x 20 columns")


def parse_psiblast_pssm(text: str) -> RawPssm:
    """Parse PSI-BLAST `-out_ascii_pssm` output.

    Matrix rows carry: position index, residue letter, 20 log-odds
    integers, 20 weighted percentages, and 2 trailing reals. Only the
    residue and the log-odds block are kept.

    Raises:
        PssmFormatError: no matrix rows, a row with the wrong field
            count, or a residue outside the canonical alphabet.
    """
    residues = []
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if len(tokens) < 2 or not tokens[0].isdigit() or len(tokens[1]) != 1 \
                or not tokens[1].isalpha():
            continue  # header, separator or footer line
        if len(tokens) != 44:
            raise PssmFormatError(
                f"line {line_no}: expected 42 data fields after position "
                f"and residue, got {len(tokens) - 2}")
        aa = tokens[1].upper()
        if aa not in VALID_RESIDUES:
            raise PssmFormatError(
                f"line {line_no}: residue {tokens[1]!r} outside the "
                f"20-letter alphabet")
        try:
            scores = [int(t) for t in tokens[2:22]]
        except ValueError as e:
            raise PssmFormatError(f"line {line_no}: non-integer score ({e})")
        residues.append(aa)
        rows.append(scores)
    if not rows:
        raise PssmFormatError("no matrix rows found")
    return RawPssm(residues="".join(residues),
                   scores=np.array(rows, dtype=np.int64))


def render_psiblast_pssm(m: RawPssm) -> str:
    """Render a RawPssm back into PSI-BLAST ASCII layout (used to build
    parser fixtures and synthetic profile files)."""
    header = (
        "\nLast position-specific scoring matrix computed, weighted "
        "observed percentages rounded down, information per position, "
        "and relative weight of gapless real matches to pseudocounts\n")
    cols = "           " + "".join(f"{aa:>4}" for aa in PSIBLAST_COLUMNS) * 2
    lines = [header, cols]
    for i, aa in enumerate(m.residues):
        row = m.scores[i]
        # Percentages derived from the scores; readers ignore them.
        w = np.exp(row / 2.0)
        pct = np.floor(100.0 * w / w.sum()).astype(int)
        cells = "".join(f"{v:4d}" for v in row) + "".join(f"{v:4d}" for v in pct)
        info = float(np.abs(row).mean()) / 10.0
        lines.append(f"{i + 1:5d} {aa} {cells}  {info:4.2f} {0.10:4.2f}")
    lines.append("")
    lines.append("                      K         Lambda")
    lines.append("Standard Ungapped    0.1377     0.3183")
    lines.append("Standard Gapped      0.0410     0.2670")
    lines.append("PSI Ungapped         0.1550     0.3179")
    lines.append("PSI Gapped           0.0410     0.2670")
    return "\n".join(lines) + "\n"


def sigmoid_normalize(scores: np.ndarray) -> np.ndarray:
    """Map each log-odds score s to 1 / (1 + e^-s): (L, 20) floats."""
    x = scores.astype(np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def group_columns(values: np.ndarray) -> np.ndarray:
    """Average the 20 substitution columns into the 10 residue groups.

    Column j of the (L, 10) output is the mean of the input columns whose
    letters belong to group j.
    """
    vals = np.empty((values.shape[0], len(RESIDUE_GROUPS)), dtype=np.float64)
    for j, members in enumerate(RESIDUE_GROUPS):
        idx = [_COL_INDEX[aa] for aa in members]
        vals[:, j] = values[:, idx].mean(axis=1)
    return vals


def encode_eg(residues: str, g: np.ndarray) -> np.ndarray:
    """Grouped row means: E[i][j] averages column j of g over the
    positions whose residue lies in group i. Groups absent from the
    sequence give zero rows. Flattened row by row, left to right."""
    if len(residues) < 1:
        raise SequenceTooShortError("grouped row means need at least 1 position")
    n_groups = len(RESIDUE_GROUPS)
    e = np.zeros((n_groups, n_groups), dtype=np.float64)
    row_groups = np.array([_GROUP_OF[aa] for aa in residues])
    for i in range(n_groups):
        mask = row_groups == i
        if mask.any():
            e[i] = g[mask].mean(axis=0)
    return e.ravel()


def encode_gdpc(g: np.ndarray) -> np.ndarray:
    """Grouped dipeptide composition:
    D[i][j] = (1/(L-1)) * sum_k g[k,i] * g[k+1,j], flattened row-major."""
    n = g.shape[0]
    if n < 2:
        raise SequenceTooShortError(
            f"dipeptide composition needs at least 2 positions, got {n}")
    d = g[:-1].T @ g[1:] / (n - 1)
    return d.ravel()


ER_MAX_GAP = 9


def encode_er(g: np.ndarray) -> np.ndarray:
    """Gapped squared-difference pseudo-composition plus column variances.

    M[i][j][t] = (1/(L-t)) * sum_k (g[k,i] - g[k+t,j])^2 / 2 for gaps
    t = 1..9, laid out (i, j, t) row-major with t innermost, followed by
    the per-column variances T[1..10].
    """
    n, n_groups = g.shape
    if n < ER_MAX_GAP + 1:
        raise SequenceTooShortError(
            f"gapped pseudo-composition needs at least {ER_MAX_GAP + 1} "
            f"positions, got {n}")
    m = np.empty((n_groups, n_groups, ER_MAX_GAP), dtype=np.float64)
    for t in range(1, ER_MAX_GAP + 1):
        head = g[:n - t]             # (L-t, 10), index i
        tail = g[t:]                 # (L-t, 10), index j
        diff = head[:, :, None] - tail[:, None, :]
        m[:, :, t - 1] = 0.5 * (diff ** 2).mean(axis=0)
    t_var = ((g - g.mean(axis=0)) ** 2).mean(axis=0)
    return np.concatenate([m.ravel(), t_var])


def encode_record_features(residues: str, raw: RawPssm, scheme: str) -> np.ndarray:
    """Normalize, group, then encode a raw profile for one sequence; the
    vector has SCHEME_DIMS[scheme] entries."""
    if raw.residues != residues:
        raise DataError("profile residues do not match the record")
    if scheme not in SCHEME_DIMS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of "
                         f"{sorted(SCHEME_DIMS)}")
    g = group_columns(sigmoid_normalize(raw.scores))
    if scheme == "eg":
        return encode_eg(residues, g)
    return encode_gdpc(g) if scheme == "gdpc" else encode_er(g)


def synth_pssm(residues: str, seed: int) -> RawPssm:
    """Deterministic stand-in profile for a validated sequence.

    Scores are small integers; the column matching each position's own
    residue always carries the strictly largest score in its row, so the
    profile encodes the sequence content the way a real search profile
    concentrates mass on the query residue.
    """
    for i, aa in enumerate(residues, start=1):
        if aa not in VALID_RESIDUES:
            raise DataError(f"cannot synthesize profile: invalid residue "
                            f"{aa!r} at position {i}")
    rng = np.random.default_rng(derive_seed(seed, residues))
    # Background scores sit well below zero and the own column well above,
    # so the normalized profile concentrates near one-hot rows instead of
    # saturating randomly; grouped statistics then reflect the residues.
    scores = rng.integers(-7, -3, size=(len(residues), 20))
    boosts = rng.integers(9, 12, size=len(residues))
    for i, aa in enumerate(residues):
        scores[i, _COL_INDEX[aa]] = scores[i].max() + boosts[i]
    return RawPssm(residues=residues, scores=scores.astype(np.int64))
