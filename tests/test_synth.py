"""Motif-implant corpus generator: counts, determinism, learnability."""

import numpy as np
import pytest

from hostseq import ngram, pssm, synth


def count_overlapping(text, sub):
    count = 0
    start = 0
    while True:
        pos = text.find(sub, start)
        if pos < 0:
            return count
        count += 1
        start = pos + 1


def test_default_classes_shape():
    classes = synth.default_classes(3)
    assert len(classes) == 3
    assert abs(sum(c.proportion for c in classes) - 1.0) < 1e-9
    assert len({c.name for c in classes}) == 3
    assert all(len(c.motif) == 8 for c in classes)


def test_class_counts_even_split():
    spec = synth.SynthSpec(classes=synth.default_classes(2), records=100,
                           min_len=20, max_len=30, seed=0)
    assert synth.class_counts(spec) == [50, 50]


def test_class_counts_largest_remainder():
    classes = (
        synth.ClassDef("a", "WWWWWWWW", 1 / 3),
        synth.ClassDef("b", "HHHHHHHH", 1 / 3),
        synth.ClassDef("c", "PPPPPPPP", 1 / 3),
    )
    spec = synth.SynthSpec(classes=classes, records=100, min_len=20,
                           max_len=30, seed=0)
    counts = synth.class_counts(spec)
    assert sum(counts) == 100
    assert sorted(counts) == [33, 33, 34]


def test_spec_validation():
    good = synth.default_classes(2)
    with pytest.raises(ValueError, match="proportion"):
        synth.SynthSpec(classes=(synth.ClassDef("a", "WWWWWWWW", 0.6),
                                 synth.ClassDef("b", "HHHHHHHH", 0.6)),
                        records=10, min_len=20, max_len=30, seed=0)
    with pytest.raises(ValueError, match="motif"):
        synth.SynthSpec(classes=good, records=10, min_len=4, max_len=30,
                        seed=0)
    with pytest.raises(ValueError):
        synth.SynthSpec(classes=good, records=10, min_len=30, max_len=20,
                        seed=0)
    with pytest.raises(ValueError):
        synth.SynthSpec(classes=(good[0],), records=10, min_len=20,
                        max_len=30, seed=0)


def test_generate_deterministic():
    spec = synth.SynthSpec(classes=synth.default_classes(3), records=60,
                           min_len=30, max_len=40, seed=5)
    a = synth.generate(spec)
    b = synth.generate(spec)
    assert a == b
    c = synth.generate(synth.SynthSpec(classes=synth.default_classes(3),
                                       records=60, min_len=30, max_len=40,
                                       seed=6))
    assert a != c


def test_generate_lengths_and_counts():
    spec = synth.SynthSpec(classes=synth.default_classes(3), records=90,
                           min_len=25, max_len=35, seed=2)
    ds = synth.generate(spec)
    assert len(ds) == 90
    for rec in ds.records:
        assert 25 <= len(rec.residues) <= 35
    counts = {name: ds.labels.count(name) for name in ds.class_names}
    assert sum(counts.values()) == 90
    assert max(counts.values()) - min(counts.values()) <= 1


def test_motif_implanted_exactly_once():
    classes = (
        synth.ClassDef("a", "WWWHHH", 0.5),
        synth.ClassDef("b", "PPPCCC", 0.5),
    )
    spec = synth.SynthSpec(classes=classes, records=40, min_len=20,
                           max_len=30, seed=3)
    ds = synth.generate(spec)
    motif_of = {c.name: c.motif for c in classes}
    for rec, label in zip(ds.records, ds.labels):
        motif = motif_of[label]
        assert count_overlapping(rec.residues, motif) == 1


def test_motif_position_varies():
    spec = synth.SynthSpec(classes=synth.default_classes(2), records=40,
                           min_len=30, max_len=30, seed=4)
    ds = synth.generate(spec)
    motif = synth.default_classes(2)[0].motif
    positions = {rec.residues.find(motif)
                 for rec, label in zip(ds.records, ds.labels)
                 if label == ds.class_names[0]}
    assert len(positions) > 3


def test_trigram_centroid_baseline():
    spec = synth.SynthSpec(classes=synth.default_classes(3), records=300,
                           min_len=40, max_len=60, seed=21)
    ds = synth.generate(spec)
    names = ds.class_names
    vocab = ngram.build_vocab(
        [ngram.tokenize(r.residues, 3) for r in ds.records], 3)

    def bag(residues):
        v = np.zeros(vocab.size)
        for tok in ngram.tokenize(residues, 3):
            v[vocab.id_of(tok)] += 1
        return v / len(v)

    X = np.stack([bag(r.residues) for r in ds.records])
    y = np.array([names.index(l) for l in ds.labels])
    perm = np.random.default_rng(0).permutation(len(y))
    tr, te = perm[:150], perm[150:]
    centers = np.stack([X[tr][y[tr] == c].mean(axis=0) for c in range(3)])
    d = ((X[te][:, None, :] - centers[None]) ** 2).sum(axis=2)
    assert (d.argmin(axis=1) == y[te]).mean() > 0.95


def test_generate_pssms_deterministic():
    spec = synth.SynthSpec(classes=synth.default_classes(2), records=10,
                           min_len=20, max_len=25, seed=8)
    ds = synth.generate(spec)
    a = synth.generate_pssms(ds, seed=1)
    b = synth.generate_pssms(ds, seed=1)
    assert set(a) == {rec.id for rec in ds.records}
    for rec in ds.records:
        assert a[rec.id].residues == rec.residues
        assert np.array_equal(a[rec.id].scores, b[rec.id].scores)
        assert isinstance(a[rec.id], pssm.RawPssm)
