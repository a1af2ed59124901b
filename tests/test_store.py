"""Artifact persistence: CSV tables, binary checkpoints, model files."""

import json
import struct

import numpy as np
import pytest

from hostseq import store
from hostseq.ensemble import (
    Forest,
    ForestConfig,
    RusBoostConfig,
    RusBoostModel,
    fit_forest,
    fit_rusboost,
)
from hostseq.models import ModelSpec, NeuralClassifier, TrainConfig
from hostseq.seqio import DataError


def test_features_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "features.csv"
    ids = ["r1", "r2", "r3"]
    labels = ["a", "b", "a"]
    matrix = rng.random((3, 5))
    store.write_features_csv(path, ids, labels, "eg", matrix)
    got_ids, got_labels, scheme, got = store.read_features_csv(path)
    assert got_ids == ids
    assert got_labels == labels
    assert scheme == "eg"
    assert np.array_equal(got, matrix)  # repr roundtrip is exact


def test_features_csv_alignment_error(tmp_path):
    with pytest.raises(ValueError, match="align"):
        store.write_features_csv(tmp_path / "f.csv", ["a"], ["x", "y"],
                                 "eg", np.zeros((1, 2)))


def test_features_csv_rejects_mixed_schemes(tmp_path):
    path = tmp_path / "features.csv"
    store.write_features_csv(path, ["a", "b"], ["x", "y"], "eg",
                             np.zeros((2, 2)))
    text = path.read_text().replace("b,y,eg", "b,y,er")
    path.write_text(text)
    with pytest.raises(DataError, match="mixed schemes"):
        store.read_features_csv(path)


def test_features_csv_empty_errors(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("id,label,scheme,v0\n")
    with pytest.raises(DataError, match="no feature rows"):
        store.read_features_csv(path)


def test_tokens_csv_roundtrip(tmp_path):
    path = tmp_path / "tokens.csv"
    ids = ["r1", "r2"]
    labels = ["a", "b"]
    matrix = np.array([[0, 0, 5, 3], [0, 2, 2, 4]], dtype=np.int64)
    store.write_tokens_csv(path, ids, labels, matrix)
    assert path.read_text().splitlines()[1:] == ["r1,a,2,0,0,5,3",
                                                 "r2,b,3,0,2,2,4"]
    got_ids, got_labels, got = store.read_tokens_csv(path)
    assert got_ids == ids
    assert got_labels == labels
    assert np.array_equal(got, matrix)


def test_tokens_csv_true_len_disagreeing_with_ids_errors(tmp_path):
    path = tmp_path / "tokens.csv"
    path.write_text("id,label,true_len,t0,t1,t2\n"
                    "r1,a,2,0,5,3\n"
                    "r2,b,3,0,2,4\n")
    with pytest.raises(DataError, match="'r2': true_len 3 but 2 non-pad"):
        store.read_tokens_csv(path)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "model.bin"
    arrays = {
        "weights": rng.normal(size=(4, 3)),
        "ids": rng.integers(0, 9, size=(2, 5)),
        "empty": np.zeros((0, 3)),
    }
    meta = {"model": "test", "nested": {"k": 1}}
    store.save_checkpoint(path, "unit", meta, arrays)
    kind, got_meta, got = store.load_checkpoint(path)
    assert kind == "unit"
    assert got_meta == meta
    assert set(got) == set(arrays)
    for name in arrays:
        assert np.array_equal(got[name], arrays[name])
        assert got[name].dtype == arrays[name].dtype


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(store.CheckpointError, match="not a checkpoint"):
        store.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.bin"
    store.save_checkpoint(path, "unit", {}, {"w": np.ones((8, 8))})
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(store.CheckpointError, match="truncated"):
        store.load_checkpoint(path)


def test_neural_model_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 2, size=30)
    spec = ModelSpec(kind="mlp", n_classes=2, in_dim=4, hidden=(8,))
    clf = NeuralClassifier(spec, TrainConfig(epochs=3, seed=1)).fit(X, y)
    path = tmp_path / "model.bin"
    store.save_model(path, clf, ("neg", "pos"))
    loaded, class_names = store.load_model(path)
    assert class_names == ("neg", "pos")
    assert loaded.spec == spec
    assert np.array_equal(loaded.predict_proba(X), clf.predict_proba(X))


def test_forest_model_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.random((40, 3))
    y = rng.integers(0, 3, size=40)
    forest = fit_forest(X, y, ForestConfig(n_estimators=4, max_depth=3,
                                           seed=2), n_classes=3)
    path = tmp_path / "model.bin"
    store.save_model(path, forest, ("a", "b", "c"))
    loaded, class_names = store.load_model(path)
    assert class_names == ("a", "b", "c")
    assert np.array_equal(loaded.predict_proba(X), forest.predict_proba(X))


def test_rusboost_model_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.random((50, 3))
    y = (X[:, 0] > 0.6).astype(int)
    boost = fit_rusboost(X, y, RusBoostConfig(n_estimators=5, seed=3))
    path = tmp_path / "model.bin"
    store.save_model(path, boost, ("neg", "pos"))
    loaded, _ = store.load_model(path)
    assert np.allclose(loaded.predict_proba(X), boost.predict_proba(X),
                       atol=0)
    assert loaded.alphas == boost.alphas


def test_save_model_rejects_unknown(tmp_path):
    with pytest.raises(TypeError, match="serialize"):
        store.save_model(tmp_path / "m.bin", object(), ("a",))


@pytest.mark.parametrize("make", [
    lambda: Forest(ForestConfig(n_estimators=3, max_depth=2, seed=1), 2),
    lambda: RusBoostModel(RusBoostConfig(n_estimators=3, seed=1), 2),
    lambda: NeuralClassifier(ModelSpec(kind="mlp", n_classes=2, in_dim=3,
                                       hidden=(4,)),
                             TrainConfig(epochs=2, seed=1)),
], ids=["forest", "rusboost", "neural"])
def test_estimator_protocol_checkpoint_roundtrip(make):
    rng = np.random.default_rng(5)
    X = rng.random((40, 3))
    y = (X[:, 0] > 0.5).astype(int)
    estimator = make()
    assert estimator.fit(X, y) is estimator
    kind, meta, arrays = estimator.to_checkpoint()
    meta = json.loads(json.dumps(meta))  # headers are plain JSON
    restored = type(estimator).from_checkpoint(meta, arrays)
    assert np.array_equal(restored.predict_proba(X), estimator.predict_proba(X))


def _rewrite_without(path, array_name):
    kind, meta, arrays = store.load_checkpoint(path)
    del arrays[array_name]
    store.save_checkpoint(path, kind, meta, arrays)


def test_load_model_missing_tree_block_is_checkpoint_error(tmp_path):
    rng = np.random.default_rng(6)
    X = rng.random((30, 3))
    y = rng.integers(0, 2, size=30)
    path = tmp_path / "model.bin"
    forest = fit_forest(X, y, ForestConfig(n_estimators=3, max_depth=2))
    store.save_model(path, forest, ("a", "b"))
    _rewrite_without(path, "t2.counts")
    with pytest.raises(store.CheckpointError, match="t2.counts"):
        store.load_model(path)


def _rewrite_header(path, edit):
    """Apply edit(header dict) to a checkpoint's JSON header in place."""
    blob = path.read_bytes()
    start = len(store.MAGIC) + 12
    version, size = struct.unpack_from("<IQ", blob, len(store.MAGIC))
    header = json.loads(blob[start:start + size])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(store.MAGIC + struct.pack("<IQ", version, len(text))
                     + text + blob[start + size:])


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("arrays"),
    lambda h: h.pop("kind"),
    lambda h: h.pop("meta"),
    lambda h: h["arrays"][1].pop("shape"),
    lambda h: h["arrays"][0].pop("name"),
    lambda h: h["arrays"][2].pop("dtype"),
    lambda h: h["arrays"][2].update(dtype=["<f8"]),
    lambda h: h["arrays"][3].update(shape=["three"]),
], ids=["no-arrays", "no-kind", "no-meta", "entry-no-shape", "entry-no-name",
        "entry-no-dtype", "entry-list-dtype", "entry-text-shape"])
def test_load_model_malformed_header_is_checkpoint_error(tmp_path, edit):
    rng = np.random.default_rng(6)
    X = rng.random((30, 3))
    y = rng.integers(0, 2, size=30)
    path = tmp_path / "model.bin"
    store.save_model(path, fit_forest(X, y, ForestConfig(n_estimators=2,
                                                         max_depth=2)),
                     ("a", "b"))
    _rewrite_header(path, edit)
    with pytest.raises(store.CheckpointError):
        store.load_model(path)


def test_load_model_parameter_mismatch_is_checkpoint_error(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 3))
    y = rng.integers(0, 2, size=20)
    spec = ModelSpec(kind="mlp", n_classes=2, in_dim=3, hidden=(4,))
    clf = NeuralClassifier(spec, TrainConfig(epochs=1)).fit(X, y)
    path = tmp_path / "model.bin"
    store.save_model(path, clf, ("a", "b"))
    _rewrite_without(path, "out.b")
    with pytest.raises(store.CheckpointError, match="parameter mismatch"):
        store.load_model(path)


def test_neural_checkpoint_save_load_save_identical(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(20, 3))
    y = rng.integers(0, 3, size=20)
    spec = ModelSpec(kind="mlp", n_classes=3, in_dim=3, hidden=(5, 4))
    clf = NeuralClassifier(spec, TrainConfig(epochs=2, alpha=0.01,
                                             seed=4)).fit(X, y)
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    store.save_model(first, clf, ("x", "y", "z"))
    store.save_model(second, *store.load_model(first))
    assert first.read_bytes() == second.read_bytes()
