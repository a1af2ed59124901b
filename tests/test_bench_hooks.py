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
        evaluation.nested_cv(X, y, ModelFactory("rf", 3, {"n_estimators": 2},
                                                in_dim=4),
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
