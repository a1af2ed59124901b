"""Position-specific scoring matrices: PSI-BLAST ASCII parsing, sigmoid
normalization, physicochemical residue grouping and the three fixed-length
encoders (grouped row means, grouped dipeptide composition, gapped
squared-difference pseudo-composition)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqio import VALID_RESIDUES
from .util import DataError, derive_seed

# Standard PSI-BLAST log-odds column order.
PSIBLAST_COLUMNS = "ARNDCQEGHILKMFPSTWYV"

# Ten physicochemical residue groups; together they partition the alphabet.
RESIDUE_GROUPS = ("FYW", "ML", "IV", "ATS", "NH", "QED", "RK", "C", "G", "P")

SCHEME_DIMS = {"eg": 100, "gdpc": 100, "er": 910}

_COL_INDEX = {aa: i for i, aa in enumerate(PSIBLAST_COLUMNS)}
_GROUP_OF = {aa: gi for gi, members in enumerate(RESIDUE_GROUPS)
             for aa in members}
# Each group's columns, padded to three with column 20 (see group_columns).
_MEMBERS = np.array([[_COL_INDEX.get(aa, 20) for aa in members.ljust(3)]
                     for members in RESIDUE_GROUPS])
_SIZES = np.array([len(members) for members in RESIDUE_GROUPS], dtype=float)
# The "%4d" text of every cell value -99..999, its 4 ASCII bytes as one <u4.
_CELL_TEXT = np.array([b"%4d" % v for v in range(-99, 1000)]).view("<u4")


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
        DataError: no matrix rows, a row with the wrong field
            count, a residue outside the canonical alphabet, or a score
            that is not an integer or lies outside the int64 range.
    """
    residues = []
    fields = []  # 20 scores per row, row after row
    line_nos = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if len(tokens) < 2 or not tokens[0].isdigit() or len(tokens[1]) != 1 \
                or not tokens[1].isalpha():
            continue  # header, separator or footer line
        if len(tokens) != 44:
            raise DataError(
                f"line {line_no}: expected 42 data fields after position "
                f"and residue, got {len(tokens) - 2}")
        aa = tokens[1].upper()
        if aa not in VALID_RESIDUES:
            raise DataError(
                f"line {line_no}: residue {tokens[1]!r} outside the "
                f"20-letter alphabet")
        residues.append(aa)
        fields += tokens[2:22]
        line_nos.append(line_no)
    if not residues:
        raise DataError("no matrix rows found")
    try:
        # numpy parses each field with int(), so it accepts and rejects
        # the same texts as int(), in one call per file
        scores = np.array(fields, dtype=np.int64).reshape(len(residues), 20)
    except (ValueError, OverflowError):
        for i, line_no in enumerate(line_nos):
            try:
                np.array(fields[20 * i:20 * i + 20], dtype=np.int64)
            except ValueError as e:
                raise DataError(
                    f"line {line_no}: non-integer score ({e})") from None
            except OverflowError:
                raise DataError(
                    f"line {line_no}: score outside the int64 range") from None
        raise
    return RawPssm(residues="".join(residues), scores=scores)


def render_psiblast_pssm(m: RawPssm) -> str:
    """Render a RawPssm back into PSI-BLAST ASCII layout (used to build
    parser fixtures and synthetic profile files).

    Raises:
        ValueError: a score outside -99..999, the range a %4d cell keeps
            apart from the cell before it; it names the first such
            position and score.
    """
    outside = (m.scores < -99) | (m.scores > 999)
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise ValueError(f"position {i + 1}: score {m.scores[i, j]} lies "
                         f"outside -99..999 and would fuse with its cell")
    header = (
        "\nLast position-specific scoring matrix computed, weighted "
        "observed percentages rounded down, information per position, "
        "and relative weight of gapless real matches to pseudocounts\n")
    cols = "           " + "".join(f"{aa:>4}" for aa in PSIBLAST_COLUMNS) * 2
    # Percentages derived from the scores; readers ignore them. The one
    # float temporary is updated in place and freed before the cells are
    # built. The cells of all rows then take one pass through _CELL_TEXT:
    # (L, 40) int64 indexes, their (L, 40) cell texts and one decoded
    # string of 160 characters per row, next to the lines themselves.
    w = np.exp(m.scores / 2.0)
    total = w.sum(axis=1, keepdims=True)
    w *= 100.0
    w /= total
    pct = np.floor(w, out=w).astype(int)
    del w
    cells = np.hstack((m.scores, pct)).astype(np.int64) + 99
    body = _CELL_TEXT[cells].tobytes().decode("ascii")
    values, row_info = np.unique(np.abs(m.scores).mean(axis=1) / 10.0,
                                 return_inverse=True)
    info = ["%4.2f" % v for v in values.tolist()]
    lines = [header, cols]
    lines += ["%5d %s %s  %s 0.10" % (i + 1, aa, body[160 * i:160 * i + 160],
                                      info[k])
              for i, (aa, k) in enumerate(zip(m.residues, row_info.tolist()))]
    lines.append("")
    lines.append("                      K         Lambda")
    lines.append("Standard Ungapped    0.1377     0.3183")
    lines.append("Standard Gapped      0.0410     0.2670")
    lines.append("PSI Ungapped         0.1550     0.3179")
    lines.append("PSI Gapped           0.0410     0.2670")
    return "\n".join(lines) + "\n"


def sigmoid_normalize(scores: np.ndarray) -> np.ndarray:
    """Map each log-odds score s to 1 / (1 + e^-s): (L, 20) floats. With
    e = e^-|s| <= 1, that is 1 / (1 + e), or e / (1 + e) for s < 0."""
    e = np.exp(-np.abs(scores, dtype=np.float64))
    return np.where(scores >= 0, 1.0, e) / (1.0 + e)


def group_columns(values: np.ndarray) -> np.ndarray:
    """Average the 20 substitution columns into the 10 residue groups:
    column j of the C-ordered (L, 10) output is the mean of the columns of
    group j, which an appended column 20 of -0.0 pads to three members;
    x + (-0.0) == x for every x, signed zeros included, so no sum changes."""
    padded = np.concatenate([values, np.full((len(values), 1), -0.0)], 1)
    return padded.take(_MEMBERS, axis=1).sum(axis=2) / _SIZES


def encode_eg(residues: str, g: np.ndarray) -> np.ndarray:
    """Grouped row means: E[i][j] averages column j of g over the
    positions whose residue lies in group i. Groups absent from the
    sequence give zero rows. Flattened row by row, left to right."""
    if len(residues) < 1:
        raise DataError("grouped row means need at least 1 position")
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
    g = np.ascontiguousarray(g)  # so sums run down the rows in order
    n = g.shape[0]
    if n < 2:
        raise DataError(
            f"dipeptide composition needs at least 2 positions, got {n}")
    d = g[:-1].T @ g[1:] / (n - 1)
    return d.ravel()


ER_MAX_GAP = 9


def encode_er(g: np.ndarray) -> np.ndarray:
    """Gapped squared-difference pseudo-composition plus column variances.

    M[i][j][t] = (1/(L-t)) * sum_k (g[k,i] - g[k+t,j])^2 / 2 for gaps
    t = 1..9, laid out (i, j, t) row-major with t innermost, followed by
    the per-column variances T[1..10]. Column 10*i+j of heads and tails
    holds the pair (i, j); each sum runs down C-ordered rows in order.
    """
    g = np.ascontiguousarray(g)
    n, n_groups = g.shape
    if n < ER_MAX_GAP + 1:
        raise DataError(
            f"gapped pseudo-composition needs at least {ER_MAX_GAP + 1} "
            f"positions, got {n}")
    heads = np.repeat(g, n_groups, axis=1)
    tails = np.tile(g, n_groups)
    diff = np.empty((n - 1, n_groups * n_groups))
    m = np.empty((ER_MAX_GAP, n_groups * n_groups))
    for t in range(1, ER_MAX_GAP + 1):
        d = np.subtract(heads[:n - t], tails[t:], out=diff[:n - t])
        m[t - 1] = 0.5 * (np.square(d, out=d).sum(axis=0) / (n - t))
    t_var = ((g - g.mean(axis=0)) ** 2).mean(axis=0)
    return np.concatenate([m.T.ravel(), t_var])


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
    own = [_COL_INDEX[aa] for aa in residues]
    scores[np.arange(len(residues)), own] = scores.max(axis=1) + boosts
    return RawPssm(residues=residues, scores=scores.astype(np.int64))
