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


HEADER = [
    "", "Last position-specific scoring matrix computed, weighted observed "
    "percentages rounded down, information per position, and relative "
    "weight of gapless real matches to pseudocounts", "",
    " " * 11 + "".join(f"{aa:>4}" for aa in COLS * 2)]
FOOTER = [
    "", "                      K         Lambda",
    "Standard Ungapped    0.1377     0.3183",
    "Standard Gapped      0.0410     0.2670",
    "PSI Ungapped         0.1550     0.3179",
    "PSI Gapped           0.0410     0.2670"]


def oracle_render_rows(m):
    """The matrix lines, rendered row by row and cell by cell."""
    lines = []
    for i, aa in enumerate(m.residues):
        row = m.scores[i]
        w = np.exp(row / 2.0)
        pct = np.floor(100.0 * w / w.sum()).astype(int)
        cells = ("".join(f"{v:4d}" for v in row)
                 + "".join(f"{v:4d}" for v in pct))
        info = float(np.abs(row).mean()) / 10.0
        lines.append(f"{i + 1:5d} {aa} {cells}  {info:4.2f} {0.10:4.2f}")
    return lines


@pytest.mark.parametrize("low, high", [(-10, 11), (-99, 999),
                                       (7, 7), (-3, -3), (0, 0)])
def test_render_rows_match_per_cell_oracle(rng, low, high):
    length = 23
    letters = "".join(rng.choice(list(COLS), size=length))
    scores = rng.integers(low, high, size=(length, 20), endpoint=True)
    scores[0] = [low, high] * 10   # widest cells side by side
    raw = pssm.RawPssm(residues=letters, scores=scores)
    want = oracle_render_rows(raw)
    text = pssm.render_psiblast_pssm(raw)
    assert np.array_equal(pssm.parse_psiblast_pssm(text).scores, scores)
    lines = text.splitlines()
    assert lines[-6 - length:-6] == want
    assert lines[-6:] == FOOTER


def every_cell_value(rng):
    """55 rows whose 1,100 scores hold every value -99..999, shuffled."""
    return rng.permutation(np.append(np.arange(-99, 1000), 0)).reshape(55, 20)


@pytest.mark.parametrize("length", [55, 1, 0])
def test_render_text_matches_oracle_for_every_cell_value(rng, length):
    # every entry of the renderer's cell table, and the shortest profiles:
    # one row, and no row at all (header, column line and footer only)
    scores = (every_cell_value(rng) if length == 55 else
              rng.integers(-99, 999, size=(length, 20), endpoint=True))
    letters = "".join(rng.choice(list(COLS), size=length))
    raw = pssm.RawPssm(residues=letters, scores=scores)
    text = pssm.render_psiblast_pssm(raw)
    assert text == "\n".join(HEADER + oracle_render_rows(raw) + FOOTER) + "\n"
    if length:
        assert np.array_equal(pssm.parse_psiblast_pssm(text).scores, scores)


@pytest.mark.parametrize("score", [-100, 1000, 1500])
def test_render_rejects_scores_that_fuse_cells(score):
    # a fifth character joins the cell to the one before it, and 1500
    # would also overflow exp (warnings are errors here); the error names
    # the first position outside the range
    scores = np.zeros((3, 20), dtype=np.int64)
    scores[1, 5] = score
    scores[2, 0] = 5000
    raw = pssm.RawPssm(residues="ACD", scores=scores)
    with pytest.raises(ValueError, match=f"^position 2: score {score} "):
        pssm.render_psiblast_pssm(raw)


def test_parse_empty_text_errors():
    with pytest.raises(pssm.DataError, match="no matrix rows"):
        pssm.parse_psiblast_pssm("")
    with pytest.raises(pssm.DataError, match="no matrix rows"):
        pssm.parse_psiblast_pssm("Last position-specific scoring matrix\n\n")


def test_parse_truncated_row_names_line(rng):
    raw = make_raw(rng, 3)
    lines = pssm.render_psiblast_pssm(raw).splitlines()
    # find the second matrix row and truncate it to 30 fields
    row_idx = [i for i, l in enumerate(lines)
               if l.split() and l.split()[0].isdigit()][1]
    lines[row_idx] = " ".join(lines[row_idx].split()[:30])
    with pytest.raises(pssm.DataError,
                       match=f"line {row_idx + 1}"):
        pssm.parse_psiblast_pssm("\n".join(lines))


@pytest.mark.parametrize("score, message", [
    ("1.5", "non-integer score"),
    ("99999999999999999999", "score outside the int64 range"),
    ("-99999999999999999999", "score outside the int64 range")])
def test_parse_bad_score_names_line(rng, score, message):
    raw = make_raw(rng, 3)
    lines = pssm.render_psiblast_pssm(raw).splitlines()
    row_idx = [i for i, l in enumerate(lines)
               if l.split() and l.split()[0].isdigit()][2]
    tokens = lines[row_idx].split()
    tokens[7] = score
    lines[row_idx] = " ".join(tokens)
    with pytest.raises(pssm.DataError,
                       match=f"line {row_idx + 1}: {message}"):
        pssm.parse_psiblast_pssm("\n".join(lines))


@pytest.mark.parametrize("score, message", [
    ("1.5", "non-integer score"),
    ("99999999999999999999", "score outside the int64 range")])
@pytest.mark.parametrize("which", ["first", "middle", "last"])
def test_parse_bad_score_names_its_line_between_other_lines(
        rng, score, message, which):
    lines = pssm.render_psiblast_pssm(make_raw(rng, 11)).splitlines()
    # a blank line and a header line after every third matrix row
    spaced = []
    for line in lines:
        spaced.append(line)
        tokens = line.split()
        if tokens and tokens[0].isdigit() and int(tokens[0]) % 3 == 0:
            spaced += ["", "Last position-specific scoring matrix"]
    rows = [i for i, l in enumerate(spaced)
            if l.split() and l.split()[0].isdigit()]
    assert len(rows) == 11
    row_idx = {"first": rows[0], "middle": rows[5], "last": rows[-1]}[which]
    tokens = spaced[row_idx].split()
    tokens[2 + rows.index(row_idx)] = score  # score column 1, 6 or 11
    spaced[row_idx] = " ".join(tokens)
    with pytest.raises(pssm.DataError,
                       match=f"^line {row_idx + 1}: {message}"):
        pssm.parse_psiblast_pssm("\n".join(spaced))


def test_parse_bad_residue_errors(rng):
    raw = make_raw(rng, 2)
    lines = pssm.render_psiblast_pssm(raw).splitlines()
    row_idx = next(i for i, l in enumerate(lines)
                   if l.split() and l.split()[0].isdigit())
    tokens = lines[row_idx].split()
    tokens[1] = "X"
    lines[row_idx] = " ".join(tokens)
    with pytest.raises(pssm.DataError, match="outside"):
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
    with pytest.raises(pssm.DataError,
                       match="needs at least 2 positions, got 1"):
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
    with pytest.raises(pssm.DataError, match="10"):
        pssm.encode_er(rng.random((9, 10)))


def test_encoders_match_oracles(rng):
    for _ in range(20):
        length = int(rng.integers(10, 41))
        residues, g = random_gpssm(rng, length)
        assert rel_err(pssm.encode_eg(residues, g),
                       oracle_eg(residues, g)) < 1e-12
        assert rel_err(pssm.encode_gdpc(g), oracle_gdpc(g)) < 1e-12
        assert rel_err(pssm.encode_er(g), oracle_er(g)) < 1e-12


def test_encoders_ignore_memory_order(rng):
    residues, g = random_gpssm(rng, 560)
    views = [np.asfortranarray(g), np.repeat(g, 2, axis=1)[:, ::2],
             np.repeat(g, 2, axis=0)[::2], g[::-1].copy()[::-1]]
    for view in views:
        assert np.array_equal(view, g)
        assert pssm.encode_eg(residues, view).tobytes() \
            == pssm.encode_eg(residues, g).tobytes()
        assert pssm.encode_gdpc(view).tobytes() == pssm.encode_gdpc(g).tobytes()
        assert pssm.encode_er(view).tobytes() == pssm.encode_er(g).tobytes()


def test_group_columns_returns_c_order(rng):
    assert pssm.group_columns(rng.random((30, 20))).flags.c_contiguous


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


# --- byte oracle: the per-group and per-gap code of the whole-array
# passes in pssm, kept verbatim; the two must agree bit for bit ---

_COL_INDEX = {aa: i for i, aa in enumerate(pssm.PSIBLAST_COLUMNS)}


def loop_sigmoid_normalize(scores):
    x = scores.astype(np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def loop_group_columns(values):
    vals = np.empty((values.shape[0], len(pssm.RESIDUE_GROUPS)),
                    dtype=np.float64)
    for j, members in enumerate(pssm.RESIDUE_GROUPS):
        idx = [_COL_INDEX[aa] for aa in members]
        vals[:, j] = values[:, idx].mean(axis=1)
    return vals


def loop_encode_er(g):
    n, n_groups = g.shape
    m = np.empty((n_groups, n_groups, pssm.ER_MAX_GAP), dtype=np.float64)
    for t in range(1, pssm.ER_MAX_GAP + 1):
        head = g[:n - t]             # (L-t, 10), index i
        tail = g[t:]                 # (L-t, 10), index j
        diff = head[:, :, None] - tail[:, None, :]
        m[:, :, t - 1] = 0.5 * (diff ** 2).mean(axis=0)
    t_var = ((g - g.mean(axis=0)) ** 2).mean(axis=0)
    return np.concatenate([m.ravel(), t_var])


def test_whole_array_passes_match_the_loops_byte_for_byte(rng):
    lengths = [10, 11, 600] + rng.integers(10, 601, size=57).tolist()
    for length in lengths:
        scores = rng.integers(-99, 1000, size=(length, 20))
        # exp(-800) underflows to 0
        scores[rng.random(scores.shape) < 0.05] = 800
        scores[rng.random(scores.shape) < 0.05] = -800
        norm = pssm.sigmoid_normalize(scores)
        assert norm.tobytes() == loop_sigmoid_normalize(scores).tobytes()
        signed = norm.copy()
        signed[rng.random(signed.shape) < 0.1] = -0.0
        signed[rng.random(signed.shape) < 0.05] = 0.0
        for values in (norm, signed):
            g = pssm.group_columns(values)
            assert g.tobytes() == loop_group_columns(values).tobytes()
        g = pssm.group_columns(norm)
        g_signed = g.copy()
        g_signed[rng.random(g.shape) < 0.1] = -0.0
        for grouped in (g, g_signed, rng.random((length, 10))):
            assert pssm.encode_er(grouped).tobytes() \
                == loop_encode_er(grouped).tobytes()
        raw = pssm.RawPssm(residues="A" * length, scores=scores)
        assert pssm.encode_record_features(raw.residues, raw, "er").tobytes() \
            == loop_encode_er(loop_group_columns(
                loop_sigmoid_normalize(scores))).tobytes()


# --- synthetic profiles ---

def test_synth_pssm_deterministic_and_peaked():
    residues = "MKTIIALSYILCLVFA"
    a = pssm.synth_pssm(residues, seed=5)
    b = pssm.synth_pssm(residues, seed=5)
    c = pssm.synth_pssm(residues, seed=6)
    assert np.array_equal(a.scores, b.scores)
    assert not np.array_equal(a.scores, c.scores)
    # the own-residue scores equal a per-row loop over the same draws
    rng = np.random.default_rng(pssm.derive_seed(6, residues))
    loop = rng.integers(-7, -3, size=(len(residues), 20))
    boosts = rng.integers(9, 12, size=len(residues))
    for k, aa in enumerate(residues):
        loop[k, COLS.index(aa)] = loop[k].max() + boosts[k]
    assert np.array_equal(c.scores, loop)
    # the column matching each position's own residue is the row argmax
    for k, aa in enumerate(residues):
        own = COLS.index(aa)
        assert a.scores[k].argmax() == own
        row = np.delete(a.scores[k], own)
        assert a.scores[k, own] > row.max()
