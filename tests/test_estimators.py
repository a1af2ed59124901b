"""Estimator registry: the input each kind reads, grid aliases and
precedence, the default grids, and a factory that survives pickling."""

import pickle
import re

import numpy as np
import pytest

from hostseq import cli, store
from hostseq.estimators import (DEFAULT_GRIDS, KINDS, ModelFactory,
                                UsageError, grid_points)
from hostseq.models import build_net
from hostseq.util import DataError

FEATURES = {}
TOKENS = {"vocab_size": 12}


def test_cli_usage_error_is_the_registry_class():
    assert cli.UsageError is UsageError


@pytest.mark.parametrize("model,shape,message", [
    ("cnn", FEATURES, "cnn requires token input (--tokens with --vocab)"),
    ("transformer", FEATURES, "transformer requires token input"),
    ("rf", TOKENS, "rf requires feature input (--features)"),
    ("rusboost", TOKENS, "rusboost requires feature input"),
    ("svm", FEATURES, "unknown --model 'svm'"),
])
def test_factory_rejects_input_the_kind_does_not_read(model, shape, message):
    with pytest.raises(UsageError, match=re.escape(message)):
        ModelFactory(model, 2, {}, **shape)


def test_mlp_on_tokens_is_a_usage_error():
    assert ModelFactory("mlp", 2, {}, **FEATURES)({}, 0).config.kind == "mlp"
    with pytest.raises(UsageError,
                       match=re.escape("mlp requires feature input "
                                       "(--features)")):
        ModelFactory("mlp", 2, {}, **TOKENS)


def test_grid_aliases_and_flag_precedence():
    boost = ModelFactory("rusboost", 2, {"base_depth": 4, "max_depth": 7})
    assert boost({}, 0).config.max_depth == 4
    assert boost({"max_depth": 2}, 0).config.max_depth == 2
    assert boost({"max_depth": 2, "base_depth": 1}, 0).config.max_depth == 1
    mlp = ModelFactory("mlp", 2, {"epochs": 9, "learning_rate": 0.5})
    clf = mlp({"max_iter": 3, "epochs": 5, "learning_rate_init": 0.1}, 0)
    assert (clf.config.epochs, clf.config.learning_rate) == (3, 0.1)
    clf = mlp({}, 0)
    assert (clf.config.epochs, clf.config.learning_rate) == (9, 0.5)
    assert clf.config.batch_size == 128  # NetConfig default
    cnn = ModelFactory("cnn", 2, {"filters": 5}, **TOKENS)
    clf = cnn({"num_filters": 8.0}, 0)
    assert clf.config.filters == 8 and isinstance(clf.config.filters, int)
    assert cnn({}, 0).config.filters == 5
    with pytest.raises(UsageError, match="'num_filters'"):
        mlp({"num_filters": 8}, 0)
    rf = ModelFactory("rf", 2, {"base_depth": 4})
    assert rf({}, 0).config.max_depth == 10  # ForestConfig default
    with pytest.raises(UsageError, match="base_depth"):
        rf({"base_depth": 4}, 0)


def test_scalar_hidden_is_one_layer():
    mlp = ModelFactory("mlp", 2, {})
    net = build_net(mlp({"hidden": 8}, 0).config, 2, 3)
    assert [(name, p.data.shape) for name, p in net.params.items()] == [
        ("h0.w", (3, 8)), ("h0.b", (8,)), ("out.w", (8, 2)), ("out.b", (2,))]
    with pytest.raises(UsageError, match="'hidden'"):
        mlp({"hidden": [8, 4]}, 0)


def test_default_grids_build_through_registry():
    shapes = {"mlp": {}, "rf": {}, "rusboost": {},
              "cnn": {"vocab_size": 50}, "transformer": {"vocab_size": 50}}
    assert set(shapes) == set(DEFAULT_GRIDS)
    for model, shape in shapes.items():
        factory = ModelFactory(model, 3, {}, **shape)
        for params in grid_points(DEFAULT_GRIDS[model]):
            factory(params, 0)
    assert set(KINDS) == set(shapes)


def test_grid_points_expand_objects_and_keep_lists():
    assert grid_points({"a": [1, 2], "b": 3}) == [{"a": 1, "b": 3},
                                                  {"a": 2, "b": 3}]
    assert grid_points([{"a": 1}]) == [{"a": 1}]
    with pytest.raises(UsageError, match="grid must be"):
        grid_points([1, 2])


@pytest.mark.parametrize("model,params", [
    ("rf", {"max_depth": 3}),
    ("rusboost", {"learning_rate": 0.5}),
    ("mlp", {"hidden": 4}),
    ("cnn", {"num_filters": 4, "embed_dim": 4}),
    ("transformer", {"embed_dim": 8, "num_heads": 2}),
])
def test_factory_pickle_roundtrip_builds_identical_estimators(model, params):
    rng = np.random.default_rng(8)
    tokens = KINDS[model].input == "tokens"
    X = (rng.integers(1, TOKENS["vocab_size"], size=(30, 30))
         if tokens else rng.random((30, 5)))
    y = np.arange(30) % 2
    defaults = {"n_estimators": 3, "base_depth": 2, "epochs": 2,
                "batch_size": 8}
    factory = ModelFactory(model, 2, defaults, **(TOKENS if tokens
                                                  else FEATURES))
    restored = pickle.loads(pickle.dumps(factory))
    assert restored == factory
    first, second = factory(params, 5), restored(params, 5)
    assert (second.config, second.n_classes) == (first.config,
                                                  first.n_classes)
    arrays = first.fit(X, y).to_checkpoint()
    arrays2 = second.fit(X, y).to_checkpoint()
    assert list(arrays2) == list(arrays)
    for name, arr in arrays.items():
        got = np.asarray(arrays2[name])
        arr = np.asarray(arr)
        assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes(), name


def _tiny_fit(model, rows=12):
    """An unfitted estimator of model for 3 classes, and rows rows of
    its input (4 features, or 30 token ids) with labels 0, 1, 2, 0, ..."""
    rng = np.random.default_rng(3)
    tokens = KINDS[model].input == "tokens"
    X = (rng.integers(2, TOKENS["vocab_size"], size=(rows, 30)) if tokens
         else rng.random((rows, 4)))
    defaults = {"n_estimators": 2, "base_depth": 2, "epochs": 1,
                "batch_size": 4, "embed_dim": 4, "filters": 4}
    factory = ModelFactory(model, 3, defaults,
                           **(TOKENS if tokens else FEATURES))
    return factory({}, 1), X, np.arange(rows) % 3


def _relabel(y, value):
    y = y.copy()
    y[0] = value
    return y


@pytest.mark.parametrize("model", sorted(KINDS))
@pytest.mark.parametrize("bad", [
    lambda X, y: (X, _relabel(y, -1)),
    lambda X, y: (X, _relabel(y, 3)),
    lambda X, y: (X, y.astype(float)),
    lambda X, y: (X, y[:-1]),
    lambda X, y: (X[:0], y[:0]),
    lambda X, y: (X[:, :0], y),
    lambda X, y: (X[:, 0], y),
], ids=["label-1", "label-n_classes", "float-labels", "labels-one-short",
        "no-rows", "no-columns", "1-D"])
def test_bad_fit_input_fails_alike_for_every_kind(model, bad):
    estimator, X, y = _tiny_fit(model)
    with pytest.raises(ValueError, match="^" + re.escape(
            "X must be a non-empty 2-D array, and y one class index in "
            "[0, 3) per row") + "$"):
        estimator.fit(*bad(X, y))
    assert estimator.n_features == 0


@pytest.mark.parametrize("model", sorted(KINDS))
def test_an_unfitted_estimator_refuses_to_score_or_save(tmp_path, model):
    estimator, X, _ = _tiny_fit(model)
    name = type(estimator).__name__
    for call in (lambda: estimator.predict_proba(X),
                 lambda: estimator.staged_predict_proba(X, [{}]),
                 lambda: store.save_model(tmp_path / "model.bin", estimator,
                                          ("a", "b", "c"))):
        with pytest.raises(RuntimeError, match=f"^{name} is not fitted$"):
            call()
    assert not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("model", sorted(KINDS))
def test_a_fitted_estimator_scores_no_rows(model):
    estimator, X, y = _tiny_fit(model)
    estimator.fit(X, y)
    got = [estimator.predict_proba(X[:0]),
           *estimator.staged_predict_proba(X[:0], [{}, {}])]
    assert len(got) == 3
    for proba in got:
        assert proba.shape == (0, 3) and proba.dtype == np.float64


@pytest.mark.parametrize("model", sorted(KINDS))
def test_score_input_is_checked_alike_for_every_kind(model):
    # one rule in the estimator base: rows of the fitted width, and zero
    # rows of it score as (0, n_classes) float64 matrices per stage
    estimator, X, y = _tiny_fit(model)
    estimator.fit(X, y)
    word = KINDS[model].input[:-1]
    for bad in (np.column_stack([X, X[:, :1]]), X[:, 1:], X[0], X[None],
                X[:0, 1:]):
        with pytest.raises(DataError, match="^" + re.escape(
                f"{word} input must be (n, {X.shape[1]}), not "
                f"{bad.shape}") + "$"):
            estimator.staged_predict_proba(bad, [{}])
    got = estimator.staged_predict_proba(X[:0], [{}, {}])
    assert [(p.shape, p.dtype) for p in got] == [((0, 3), np.float64)] * 2
    if word == "token":
        for call in (lambda: estimator.predict_proba(X.astype(float)),
                     lambda: _tiny_fit(model)[0].fit(X.astype(float), y)):
            with pytest.raises(DataError,
                               match="^token input must be integer ids$"):
                call()
