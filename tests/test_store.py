"""Artifact persistence: CSV tables, binary checkpoints, model files."""

import csv
import io
import json
import re
import struct

import numpy as np
import pytest

from hostseq import store
from hostseq.ensemble import (
    Forest,
    ForestConfig,
    RusBoostConfig,
    RusBoostModel,
)
from hostseq.estimators import KINDS, ModelFactory
from hostseq.models import NetConfig, NeuralClassifier
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


# Ids and labels that stress the quoting rule; "\r" was written unquoted
# by csv.writer, which left a table that csv.reader splits mid-row.
AWKWARD = ["a,b", 'say "hi"', "two\nlines", "bad\rid", "cr\r\nlf",
           " lead", "", "h\u00f4te-\u732b", '",\n\r"']


def test_tables_round_trip_awkward_text(tmp_path):
    ids = AWKWARD
    labels = list(reversed(AWKWARD))
    n = len(ids)
    matrix = np.arange(n * 3, dtype=np.float64).reshape(n, 3) / 7
    store.write_features_csv(tmp_path / "f.csv", ids, labels, "eg", matrix)
    got_ids, got_labels, _, got = store.read_features_csv(tmp_path / "f.csv")
    assert (got_ids, got_labels) == (ids, labels)
    assert np.array_equal(got, matrix)

    tokens = np.tile(np.array([0, 4, 2], dtype=np.int64), (n, 1))
    store.write_tokens_csv(tmp_path / "t.csv", ids, labels, tokens)
    got_ids, got_labels, got = store.read_tokens_csv(tmp_path / "t.csv")
    assert (got_ids, got_labels) == (ids, labels)
    assert np.array_equal(got, tokens)

    names = ("x\ry", "p,q", 'r"s')
    proba = np.full((n, 3), 0.25)
    proba[:, 1] = 0.5
    store.write_predictions_csv(tmp_path / "p.csv", ids, labels, proba,
                                names)
    got_ids, got_true, got_pred, got_names, got = \
        store.read_predictions_csv(tmp_path / "p.csv")
    assert (got_ids, got_true, got_names) == (ids, labels, names)
    assert got_pred == ["p,q"] * n
    assert np.array_equal(got, proba)


def _csv_writer_bytes(header, rows) -> bytes:
    """The table bytes csv.writer wrote before the one row writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


# every quoting character csv.writer handles the same way: all but "\r"
QUOTABLE = ["a,b", 'say "hi"', "two\nlines", " lead", "", "h\u00f4te",
            '"', ",", "\n", 'x",\n"y', "plain"]
EDGE_FLOATS = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
               1e16, 1.0, 0.1 + 0.2]


def test_feature_rows_match_csv_writer_bytes(tmp_path):
    matrix = np.array([EDGE_FLOATS[i:] + EDGE_FLOATS[:i]
                       for i in range(len(QUOTABLE))])
    labels = list(reversed(QUOTABLE))
    path = tmp_path / "f.csv"
    store.write_features_csv(path, QUOTABLE, labels, "e,g", matrix)
    want = _csv_writer_bytes(
        ["id", "label", "scheme"] + [f"v{i}" for i in range(len(EDGE_FLOATS))],
        ([rid, label, "e,g"] + [repr(float(v)) for v in row]
         for rid, label, row in zip(QUOTABLE, labels, matrix)))
    assert path.read_bytes() == want


def test_token_rows_match_csv_writer_bytes(tmp_path):
    info = np.iinfo(np.int64)
    matrix = np.array([[0, info.max, info.min, 1, -1]] * len(QUOTABLE),
                      dtype=np.int64)
    path = tmp_path / "t.csv"
    store.write_tokens_csv(path, QUOTABLE, QUOTABLE, matrix)
    want = _csv_writer_bytes(
        ["id", "label", "true_len"] + [f"t{i}" for i in range(5)],
        ([rid, rid, 4] + [int(v) for v in row]
         for rid, row in zip(QUOTABLE, matrix)))
    assert path.read_bytes() == want


def test_prediction_and_report_rows_match_csv_writer_bytes(tmp_path):
    names = ("h,1", 'a"2', "s\n3")
    proba = np.array([[1 / 3, 1 / 3, 1 / 3], [0.1 + 0.2, 0.7, 0.0],
                      [5e-324, -0.0, 1.0]] * 4)[:len(QUOTABLE)]
    store.write_predictions_csv(tmp_path / "p.csv", QUOTABLE, QUOTABLE,
                                proba, names)
    want = _csv_writer_bytes(
        ["id", "true", "predicted"] + [f"p_{name}" for name in names],
        ([rid, rid, names[int(np.argmax(p))]] + [repr(float(v)) for v in p]
         for rid, p in zip(QUOTABLE, proba)))
    assert (tmp_path / "p.csv").read_bytes() == want

    curves = {name: [(0.0, 1.0), (0.1 + 0.2, 5e-324)] for name in QUOTABLE}
    store.write_pr_curves_csv(tmp_path / "c.csv", curves)
    assert (tmp_path / "c.csv").read_bytes() == _csv_writer_bytes(
        ["class", "recall", "precision"],
        ([name, repr(r), repr(p)] for name, points in curves.items()
         for r, p in points))

    report = {"class_names": list(names),
              "per_class": {name: {"f1": 0.1 + 0.2, "recall": -0.0}
                            for name in names},
              "overall": {"accuracy": 5e-324, "mcc": float("nan")}}
    store.write_metrics_csv(tmp_path / "m.csv", report)
    assert (tmp_path / "m.csv").read_bytes() == _csv_writer_bytes(
        ["scope", "class", "metric", "value"],
        [["per_class", name, metric, repr(value)] for name in names
         for metric, value in sorted(report["per_class"][name].items())]
        + [["overall", "", metric, repr(value)]
           for metric, value in sorted(report["overall"].items())])

    frequencies = {"h,1": {token: i for i, token in enumerate(QUOTABLE)}}
    store.write_token_frequencies_csv(tmp_path / "k.csv", frequencies,
                                      names, 4)
    ranked = sorted(frequencies["h,1"].items(), key=lambda kv: -kv[1])[:4]
    assert (tmp_path / "k.csv").read_bytes() == _csv_writer_bytes(
        ["class", "token", "count"],
        (["h,1", token, count] for token, count in ranked))


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
    with pytest.raises(store.DataError, match="not a checkpoint"):
        store.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.bin"
    store.save_checkpoint(path, "unit", {}, {"w": np.ones((8, 8))})
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(store.DataError, match="truncated"):
        store.load_checkpoint(path)


def test_neural_model_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 2, size=30)
    config = NetConfig(kind="mlp", hidden=8, epochs=3, seed=1)
    clf = NeuralClassifier(config, 2).fit(X, y)
    path = tmp_path / "model.bin"
    store.save_model(path, clf, ("neg", "pos"))
    loaded, class_names = store.load_model(path)
    assert class_names == ("neg", "pos")
    assert loaded.config == config
    assert np.array_equal(loaded.predict_proba(X), clf.predict_proba(X))


def test_forest_model_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.random((40, 3))
    y = rng.integers(0, 3, size=40)
    forest = Forest(ForestConfig(n_estimators=4, max_depth=3, seed=2),
                    3).fit(X, y)
    path = tmp_path / "model.bin"
    store.save_model(path, forest, ("a", "b", "c"))
    loaded, class_names = store.load_model(path)
    assert class_names == ("a", "b", "c")
    assert np.array_equal(loaded.predict_proba(X), forest.predict_proba(X))


def test_rusboost_model_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.random((50, 3))
    y = (X[:, 0] > 0.6).astype(int)
    boost = RusBoostModel(RusBoostConfig(n_estimators=5, seed=3), 2).fit(X, y)
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
    lambda: NeuralClassifier(NetConfig(kind="mlp", hidden=4, epochs=2,
                                       seed=1), 2),
], ids=["forest", "rusboost", "neural"])
def test_estimator_protocol_checkpoint_roundtrip(make):
    rng = np.random.default_rng(5)
    X = rng.random((40, 3))
    y = (X[:, 0] > 0.5).astype(int)
    estimator = make()
    assert estimator.fit(X, y) is estimator
    arrays = estimator.to_checkpoint()
    restored = type(estimator)(estimator.config, estimator.n_classes
                               ).load_arrays(arrays, X.shape[1])
    assert np.array_equal(restored.predict_proba(X), estimator.predict_proba(X))


@pytest.mark.parametrize("model", sorted(KINDS))
def test_every_kind_roundtrips_through_save_model(tmp_path, model):
    rng = np.random.default_rng(9)
    tokens = KINDS[model].input == "tokens"
    X = (rng.integers(0, 12, size=(30, 30)) if tokens
         else rng.random((30, 4)))
    y = np.arange(30) % 3
    shape = {"vocab_size": 12} if tokens else {}
    defaults = {"n_estimators": 3, "base_depth": 2, "max_depth": 3,
                "epochs": 2, "batch_size": 8, "embed_dim": 4, "filters": 4}
    estimator = ModelFactory(model, 3, defaults, **shape)({}, 5).fit(X, y)
    # predict_proba is the stage {}, and every stage {} is the fitted model
    proba = estimator.predict_proba(X)
    assert proba.tobytes() \
        == estimator.staged_predict_proba(X, [{}])[0].tobytes()
    first, second = estimator.staged_predict_proba(X, [{}, {}])
    assert first.tobytes() == second.tobytes() == proba.tobytes()
    path = tmp_path / "model.bin"
    store.save_model(path, estimator, ("a", "b", "c"))
    _, meta, _ = store.load_checkpoint(path)
    assert sorted(meta) == ["class_names", "config", "model", "n_classes",
                            "n_features"]
    assert meta["n_features"] == X.shape[1]
    loaded, class_names = store.load_model(path)
    assert class_names == ("a", "b", "c")
    assert type(loaded) is type(estimator)
    assert loaded.config == estimator.config
    assert loaded.predict_proba(X).tobytes() == proba.tobytes()


@pytest.mark.parametrize("model", sorted(KINDS))
def test_every_kind_learns_its_width_at_fit(tmp_path, model):
    # one factory fits tables of two widths; n_features is the width of
    # the rows of the fit, and save_model/load_model keep it
    rng = np.random.default_rng(4)
    tokens = KINDS[model].input == "tokens"
    defaults = {"n_estimators": 2, "base_depth": 2, "max_depth": 3,
                "epochs": 1, "batch_size": 8, "embed_dim": 4, "filters": 4}
    factory = ModelFactory(model, 2, defaults,
                           **({"vocab_size": 12} if tokens else {}))
    y = np.arange(30) % 2
    for width in (24, 31):
        X = (rng.integers(0, 12, size=(30, width)) if tokens
             else rng.random((30, width)))
        estimator = factory({}, 5)
        assert estimator.fit(X, y).n_features == width
        path = tmp_path / f"{width}.bin"
        store.save_model(path, estimator, ("a", "b"))
        loaded, _ = store.load_model(path)
        assert loaded.n_features == width
        assert loaded.predict_proba(X).tobytes() \
            == estimator.predict_proba(X).tobytes()


def test_checkpoint_tag_is_the_family(tmp_path):
    # save_model tags a checkpoint with its estimator's FAMILY, which for
    # the trees is the tag they always had
    rng = np.random.default_rng(6)
    X, y = rng.random((20, 3)), np.arange(20) % 2
    for model, family in (("rf", "forest"), ("rusboost", "rusboost"),
                          ("mlp", "neural")):
        estimator = ModelFactory(model, 2, {"n_estimators": 2, "epochs": 1}
                                 )({}, 1).fit(X, y)
        store.save_model(tmp_path / "m.bin", estimator, ("a", "b"))
        kind, meta, _ = store.load_checkpoint(tmp_path / "m.bin")
        assert kind == meta["model"] == estimator.FAMILY == family


@pytest.mark.parametrize("read, header", [
    (store.read_features_csv, "id,label,scheme\nr0,a,eg\n"),
    (store.read_tokens_csv, "id,label,true_len\nr0,a,0\n"),
    (store.read_predictions_csv, "id,true,predicted\nr0,a,a\n"),
], ids=["features", "tokens", "predictions"])
def test_table_without_value_columns_names_its_file(tmp_path, read, header):
    path = tmp_path / "table.csv"
    path.write_text(header)
    columns = header.split("\n")[0].split(",")
    with pytest.raises(DataError, match=re.escape(
            f"{path}: no value columns after {columns}")):
        read(path)


def _rewrite_without(path, array_name):
    kind, meta, arrays = store.load_checkpoint(path)
    del arrays[array_name]
    store.save_checkpoint(path, kind, meta, arrays)


def test_load_model_missing_tree_block_is_checkpoint_error(tmp_path):
    rng = np.random.default_rng(6)
    X = rng.random((30, 3))
    y = rng.integers(0, 2, size=30)
    path = tmp_path / "model.bin"
    forest = Forest(ForestConfig(n_estimators=3, max_depth=2), 2).fit(X, y)
    store.save_model(path, forest, ("a", "b"))
    _rewrite_without(path, "t2.counts")
    with pytest.raises(store.DataError, match="t2.counts"):
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
    store.save_model(path, Forest(ForestConfig(n_estimators=2, max_depth=2),
                                  2).fit(X, y),
                     ("a", "b"))
    _rewrite_header(path, edit)
    with pytest.raises(store.DataError, match="^" + re.escape(f"{path}: ")):
        store.load_model(path)


def test_load_model_zero_width_is_checkpoint_error(tmp_path):
    # trees fit on a constant column are single leaves and split on no
    # feature, so only the width rule rejects a width of 0, which would
    # load the forest as unfitted
    path = tmp_path / "model.bin"
    store.save_model(path, Forest(ForestConfig(n_estimators=2), 2).fit(
        np.ones((6, 1)), np.arange(6) % 2), ("a", "b"))
    _rewrite_header(path, lambda h: h["meta"].update(n_features=0))
    with pytest.raises(store.DataError,
                       match="a fitted width is positive, not 0"):
        store.load_model(path)


def test_load_model_parameter_mismatch_is_checkpoint_error(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 3))
    y = rng.integers(0, 2, size=20)
    config = NetConfig(kind="mlp", hidden=4, epochs=1)
    clf = NeuralClassifier(config, 2).fit(X, y)
    path = tmp_path / "model.bin"
    store.save_model(path, clf, ("a", "b"))
    _rewrite_without(path, "out.b")
    with pytest.raises(store.DataError, match="parameter mismatch"):
        store.load_model(path)


def test_neural_checkpoint_save_load_save_identical(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(20, 3))
    y = rng.integers(0, 3, size=20)
    config = NetConfig(kind="mlp", hidden=5, epochs=2, alpha=0.01,
                       seed=4)
    clf = NeuralClassifier(config, 3).fit(X, y)
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    store.save_model(first, clf, ("x", "y", "z"))
    store.save_model(second, *store.load_model(first))
    assert first.read_bytes() == second.read_bytes()
