"""PSSM pipeline: parser fixtures, normalization, grouping, and the three
encoders checked against independently coded brute-force oracles."""

import math

import numpy as np
import pytest

from hostseq import pssm

from conftest import random_gpssm


GROUPS = ("FYW", "ML", "IV", "ATS", "NH", "QED", "RK", "C", "G", "P")
COLS = "ARNDCQEGHILKMFPSTWYV"


def group_index(aa):
    for gi, members in enumerate(GROUPS):
        if aa in members:
            return gi
    raise AssertionError(aa)


# --- brute-force oracles written straight from the defining equations ---

def oracle_sigmoid(scores):
    out = [[1.0 / (1.0 + math.exp(-float(v))) for v in row] for row in scores]
    return np.array(out)


def oracle_group(values):
    out = []
    for row in values:
        grouped = []
        for members in GROUPS:
            vals = [row[COLS.index(aa)] for aa in members]
            grouped.append(sum(vals) / len(vals))
        out.append(grouped)
    return np.array(out)


def oracle_eg(residues, g):
    L = len(residues)
    out = np.zeros((10, 10))
    for gi in range(10):
        rows = [k for k in range(L) if group_index(residues[k]) == gi]
        if not rows:
            continue
        for gj in range(10):
            out[gi, gj] = sum(g[k, gj] for k in rows) / len(rows)
    return out.reshape(-1)


def oracle_gdpc(g):
    L = g.shape[0]
    out = np.zeros((10, 10))
    for i in range(10):
        for j in range(10):
            total = 0.0
            for k in range(L - 1):
                total += g[k, i] * g[k + 1, j]
            out[i, j] = total / (L - 1)
    return out.reshape(-1)


def oracle_er(g):
    L = g.shape[0]
    parts = []
    for i in range(10):
        for j in range(10):
            for t in range(1, 10):
                total = 0.0
                for k in range(L - t):
                    total += (g[k, i] - g[k + t, j]) ** 2 / 2.0
                parts.append(total / (L - t))
    for i in range(10):
        mean_i = sum(g[k, i] for k in range(L)) / L
        parts.append(sum((g[k, i] - mean_i) ** 2 for k in range(L)) / L)
    return np.array(parts)


def rel_err(got, want):
    scale = np.maximum(np.abs(want), 1.0)
    return np.max(np.abs(got - want) / scale)


# --- parser ---

def make_raw(rng, length):
    letters = "".join(rng.choice(list(COLS), size=length))
    scores = rng.integers(-10, 11, size=(length, 20))
    return pssm.RawPssm(residues=letters, scores=scores)


def test_parse_render_roundtrip(rng):
    raw = make_raw(rng, 9)
    text = pssm.render_psiblast_pssm(raw)
    back = pssm.parse_psiblast_pssm(text)
    assert back.residues == raw.residues
    assert np.array_equal(back.scores, raw.scores)


def test_parse_fixture_dimensions(rng):
    raw = make_raw(rng, 9)
    parsed = pssm.parse_psiblast_pssm(pssm.render_psiblast_pssm(raw))
    assert parsed.scores.shape == (9, 20)
    assert len(parsed.residues) == 9


def test_parse_empty_text_errors():
    with pytest.raises(pssm.PssmFormatError, match="no matrix rows"):
        pssm.parse_psiblast_pssm("")
    with pytest.raises(pssm.PssmFormatError, match="no matrix rows"):
        pssm.parse_psiblast_pssm("Last position-specific scoring matrix\n\n")


def test_parse_truncated_row_names_line(rng):
    raw = make_raw(rng, 3)
    lines = pssm.render_psiblast_pssm(raw).splitlines()
    # find the second matrix row and truncate it to 30 fields
    row_idx = [i for i, l in enumerate(lines)
               if l.split() and l.split()[0].isdigit()][1]
    lines[row_idx] = " ".join(lines[row_idx].split()[:30])
    with pytest.raises(pssm.PssmFormatError,
                       match=f"line {row_idx + 1}"):
        pssm.parse_psiblast_pssm("\n".join(lines))


def test_parse_bad_residue_errors(rng):
    raw = make_raw(rng, 2)
    lines = pssm.render_psiblast_pssm(raw).splitlines()
    row_idx = next(i for i, l in enumerate(lines)
                   if l.split() and l.split()[0].isdigit())
    tokens = lines[row_idx].split()
    tokens[1] = "X"
    lines[row_idx] = " ".join(tokens)
    with pytest.raises(pssm.PssmFormatError, match="outside"):
        pssm.parse_psiblast_pssm("\n".join(lines))


# --- normalization and grouping ---

def test_sigmoid_fixed_points():
    norm = pssm.sigmoid_normalize(np.array([[0] * 20, [20] * 20]))
    assert np.all(norm[0] == 0.5)
    assert np.all(np.abs(norm[1] - 1.0) < 1e-8)


def test_sigmoid_matches_oracle(rng):
    raw = make_raw(rng, 2)
    norm = pssm.sigmoid_normalize(raw.scores)
    assert rel_err(norm, oracle_sigmoid(raw.scores)) < 1e-15


def test_group_columns_constant():
    g = pssm.group_columns(np.full((4, 20), 0.37))
    assert g.shape == (4, 10)
    assert np.allclose(g, 0.37, atol=0)


def test_group_columns_hand_case():
    row = np.zeros(20)
    row[COLS.index("F")] = 0.9
    row[COLS.index("Y")] = 0.6
    row[COLS.index("W")] = 0.3
    g = pssm.group_columns(row[None, :])
    assert g[0, 0] == pytest.approx(0.6, abs=1e-15)
    assert np.all(g[0, 7:] == 0.0)


def test_group_single_member_is_identity(rng):
    raw = make_raw(rng, 5)
    norm = pssm.sigmoid_normalize(raw.scores)
    g = pssm.group_columns(norm)
    assert np.array_equal(g[:, 7], norm[:, COLS.index("C")])
    assert np.array_equal(g[:, 9], norm[:, COLS.index("P")])


def test_group_matches_oracle(rng):
    raw = make_raw(rng, 6)
    norm = pssm.sigmoid_normalize(raw.scores)
    g = pssm.group_columns(norm)
    assert rel_err(g, oracle_group(norm)) < 1e-15


# --- encoders ---

def test_eg_dimensions_and_absent_groups(rng):
    g = rng.random((2, 10))
    vec = pssm.encode_eg("GG", g)
    assert vec.shape == (100,)
    block = vec.reshape(10, 10)
    assert np.allclose(block[8], g.mean(axis=0))
    occupied = {8}
    for gi in range(10):
        if gi not in occupied:
            assert np.all(block[gi] == 0.0)


def test_eg_single_row():
    vals = np.arange(10, dtype=float)[None, :] / 10
    block = pssm.encode_eg("C", vals).reshape(10, 10)
    assert np.array_equal(block[7], vals[0])


def test_gdpc_constant_closed_form():
    vec = pssm.encode_gdpc(np.full((5, 10), 0.3))
    assert np.allclose(vec, 0.09, atol=1e-15)


def test_gdpc_requires_two_rows():
    with pytest.raises(pssm.SequenceTooShortError):
        pssm.encode_gdpc(np.zeros((1, 10)))


def test_er_constant_closed_form():
    # difference terms cancel exactly; the variance block only to within
    # the square of one rounding error in the column mean
    vec = pssm.encode_er(np.full((10, 10), 0.42))
    assert np.all(vec[:900] == 0.0)
    assert np.all(np.abs(vec[900:]) < 1e-30)


def test_er_constant_columns_closed_form():
    cols = np.linspace(0.1, 0.9, 10)
    vec = pssm.encode_er(np.tile(cols, (11, 1)))
    m = vec[:900].reshape(10, 10, 9)
    for i in range(10):
        for j in range(10):
            want = (cols[i] - cols[j]) ** 2 / 2.0
            assert np.allclose(m[i, j], want, atol=1e-15)
    assert np.all(np.abs(vec[900:]) < 1e-30)


def test_er_requires_ten_rows(rng):
    with pytest.raises(pssm.SequenceTooShortError, match="10"):
        pssm.encode_er(rng.random((9, 10)))


def test_encoders_match_oracles(rng):
    for _ in range(20):
        length = int(rng.integers(10, 41))
        residues, g = random_gpssm(rng, length)
        assert rel_err(pssm.encode_eg(residues, g),
                       oracle_eg(residues, g)) < 1e-12
        assert rel_err(pssm.encode_gdpc(g), oracle_gdpc(g)) < 1e-12
        assert rel_err(pssm.encode_er(g), oracle_er(g)) < 1e-12


def test_encode_record_features_dispatch(rng):
    raw = make_raw(rng, 12)
    for scheme, dim in (("eg", 100), ("gdpc", 100), ("er", 910)):
        vec = pssm.encode_record_features(raw.residues, raw, scheme)
        assert vec.shape == (dim,)
    with pytest.raises(ValueError, match="scheme"):
        pssm.encode_record_features(raw.residues, raw, "pca")


def test_encode_record_features_pipeline(rng):
    raw = make_raw(rng, 15)
    vec = pssm.encode_record_features(raw.residues, raw, "er")
    norm = oracle_sigmoid(raw.scores)
    g = oracle_group(norm)
    assert rel_err(vec, oracle_er(g)) < 1e-12


def test_encode_record_features_residue_mismatch(rng):
    raw = make_raw(rng, 12)
    with pytest.raises(pssm.DataError, match="match"):
        pssm.encode_record_features("A" * 12, raw, "eg")


# --- synthetic profiles ---

def test_synth_pssm_deterministic_and_peaked():
    residues = "MKTIIALSYILCLVFA"
    a = pssm.synth_pssm(residues, seed=5)
    b = pssm.synth_pssm(residues, seed=5)
    c = pssm.synth_pssm(residues, seed=6)
    assert np.array_equal(a.scores, b.scores)
    assert not np.array_equal(a.scores, c.scores)
    # the column matching each position's own residue is the row argmax
    for k, aa in enumerate(residues):
        own = COLS.index(aa)
        assert a.scores[k].argmax() == own
        row = np.delete(a.scores[k], own)
        assert a.scores[k, own] > row.max()
