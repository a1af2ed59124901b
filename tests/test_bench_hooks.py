"""The names the benchmark's tracer (perfbench/tracer.py) patches by name
must exist, and installing and removing it must succeed. A refactor that
moves or renames one of them breaks the benchmark without failing any
other test."""

import importlib
import inspect
import os
import sys

import numpy as np
import pytest

from hostseq import autograd, cli, evaluation
from hostseq.estimators import KINDS, ModelFactory

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, BENCH_DIR)
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(BENCH_DIR)


def _resolve(module, qualname):
    target = module
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def test_traced_names_resolve(tracer):
    for module_name, qualnames in tracer.TRACED.items():
        module = importlib.import_module(f"hostseq.{module_name}")
        for qualname in qualnames:
            assert callable(_resolve(module, qualname)), \
                f"{module_name}.{qualname}"
    for op in tracer.AUTOGRAD_OPS:
        assert callable(getattr(autograd, op)), op
    assert {"model_factory", "plan"} <= set(
        inspect.signature(evaluation.nested_cv).parameters)


def test_traced_commands_exist(tracer):
    assert set(tracer.CLI_COMMANDS) <= set(cli._COMMANDS)


def test_install_and_restore(tracer):
    commands = dict(cli._COMMANDS)
    nested_cv = evaluation.nested_cv
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert evaluation.nested_cv is not nested_cv
    finally:
        t.restore()
    assert evaluation.nested_cv is nested_cv
    assert cli._COMMANDS == commands


def test_tracer_sees_every_pooled_fit(tracer):
    rng = np.random.default_rng(3)
    y = rng.integers(0, 3, size=36)
    X = y[:, None] + rng.normal(size=(36, 4))
    k, m = 3, 2
    grid = [{"max_depth": 2}, {"max_depth": 3}]
    plan = evaluation.make_cv_plan(y, k_outer=k, k_inner=m, seed=4)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        evaluation.nested_cv(X, y, ModelFactory("rf", 3, {"n_estimators": 2}),
                             grid, plan, ("a", "b", "c"), workers=2,
                             stages=KINDS["rf"].stages)
    finally:
        t.restore()
    spans = t.take()
    # the two depths share one inner fit per (outer, inner) fold
    assert tracer.layer_metrics(spans)["evaluation.fits"] == k * m + k
    assert sum(s.name == "evaluation.refit" for s in spans) == k
    parents = {s.id: s.parent for s in spans}
    (root,) = [s.id for s in spans if s.name == "evaluation.nested_cv"]
    for s in spans:
        if s.name in ("evaluation.inner_fit", "evaluation.refit"):
            node = s.id
            while node not in (root, None):
                node = parents.get(node)
            assert node == root, s.name


def test_tracer_sees_every_rusboost_attempt(tracer, monkeypatch):
    # boosting stops after 6 of 30 rounds here, so rounds are drawn again
    # and the last one exhausts its retries; every attempt is one traced
    # fit_tree span, presort keyword and all, with its tree's node count
    from hostseq import ensemble
    rng = np.random.default_rng(18)
    X = rng.random((60, 3))
    y = rng.integers(0, 2, 60)
    cfg = ensemble.RusBoostConfig(n_estimators=30, learning_rate=1.0,
                                  max_depth=1, seed=18)
    fit_tree, fitted = ensemble.fit_tree, []

    def recorded(*args, **kwargs):
        assert kwargs["presort"].shape == (3, 60)
        fitted.append(fit_tree(*args, **kwargs))
        return fitted[-1]

    monkeypatch.setattr(ensemble, "fit_tree", recorded)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        model = ensemble.RusBoostModel(cfg, 2).fit(X, y)
    finally:
        t.restore()
    spans = t.take()
    kept = len(model.trees)
    assert kept == 6 and len(fitted) >= kept + 10
    trees = [s for s in spans if s.name == "ensemble.fit_tree"]
    assert [s.attrs["nodes"] for s in trees] \
        == [tree.feature.size for tree in fitted]
    metrics = tracer.layer_metrics(spans)
    assert metrics["ensemble.fit_tree.calls"] == len(fitted)
    assert metrics["ensemble.fit_tree.nodes"] \
        == sum(tree.feature.size for tree in fitted)
    assert metrics["ensemble.fit_rusboost.trees_per_round"] \
        == len(fitted) / kept


def test_tracer_sees_the_artifact_calls_of_a_cli_run(tracer, tmp_path):
    # each name is patched where it is a module global; a call that a
    # module made through a name bound before the patch would go unseen,
    # as would a family's fit that bound fit_forest, fit_rusboost or
    # models.train as a class attribute
    syn, er, tri, model, boost, mlp = (
        str(tmp_path / name)
        for name in ("syn", "er", "tri", "model", "boost", "mlp"))
    t = tracer.Tracer()
    try:
        tracer.install(t)
        for argv in (
                ["synth", "--records", "9", "--seed", "2", "--min-len", "20",
                 "--max-len", "24", "--with-pssms", "--out", syn],
                ["encode", "--dataset", f"{syn}/dataset.json", "--scheme",
                 "er", "--pssm-dir", f"{syn}/pssms", "--out", er],
                ["encode", "--dataset", f"{syn}/dataset.json", "--ngrams",
                 "3", "--out", tri],
                ["train", "--model", "rf", "--n-estimators", "2", "--seed",
                 "2", "--features", f"{er}/features.csv", "--out", model],
                ["predict", "--model-file", f"{model}/model.bin",
                 "--features", f"{er}/features.csv", "--out", model],
                ["train", "--model", "rusboost", "--n-estimators", "3",
                 "--seed", "2", "--features", f"{er}/features.csv",
                 "--out", boost],
                ["train", "--model", "mlp", "--epochs", "2", "--seed", "2",
                 "--features", f"{er}/features.csv", "--out", mlp]):
            assert cli.main(argv) == 0, argv
    finally:
        t.restore()
    spans = t.take()
    seen = {s.name for s in spans}
    assert {"pssm.parse_psiblast_pssm", "pssm.render_psiblast_pssm",
            "store.write_features_csv", "store.read_features_csv",
            "store.write_tokens_csv", "store.save_model", "store.load_model",
            "seqio.load_dataset", "ensemble.fit_forest", "ensemble.fit_tree",
            "ensemble.fit_rusboost", "models.train"} <= seen
    (boosted,) = [s for s in spans if s.name == "ensemble.fit_rusboost"]
    assert boosted.attrs["requested"] == 3
    assert 1 <= boosted.attrs["kept"] <= 3
    (trained,) = [s for s in spans if s.name == "models.train"]
    assert trained.attrs == {"epochs": 2}
