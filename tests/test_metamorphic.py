"""Metamorphic relations: how a result must change, or not, when its
input changes in a known way (Xie et al., "Testing and validating
machine learning classifiers by metamorphic testing", JSS 2011). The
learners have no oracle for a single output, so these pin what a rerun
cannot show.

- R1, batch independence: a record's probabilities do not depend on the
  other rows scored with it.
- R2, exact rescaling: multiplying every feature by 4 leaves the tree
  ensembles' probabilities unchanged, since a power of two commutes with
  the midpoint thresholds.
- R3, class renaming: names that keep their sorted order leave the
  overall scores unchanged.
- R4, one scoring path: evaluate writes the bytes that predict followed
  by report --predictions writes.
- R5, worker count: nested CV gives the same document for any number of
  workers; tests/test_evaluation.py::test_nested_cv_workers_equivalent
  pins it.
- R6, grid order: swapping two grid points leaves each point's inner
  mean scores unchanged, because inner fit seeds do not depend on a
  point's position.
- Staging: nested CV that scores a group of grid points from one fit
  writes the bytes of a search that fits every point on its own.
- R8, unseen tokens: a token that only a test fold holds scores as the
  out-of-vocabulary id, since no fit may learn from the test fold
  (Kaufman et al., "Leakage in data mining", TKDD 2012).
"""

import json

import numpy as np
import pytest

from hostseq import cli, evaluation, ngram, pssm, store, synth
from hostseq.estimators import KINDS, ModelFactory
from hostseq.seqio import class_order
from hostseq.util import derive_seed

# small settings of each kind the relations fit
SETTINGS = {"rf": {"n_estimators": 5, "max_depth": 4},
            "rusboost": {"n_estimators": 5, "base_depth": 2},
            "mlp": {"hidden": 8, "epochs": 3, "batch_size": 16},
            "transformer": {"embed_dim": 8, "num_heads": 2, "epochs": 2,
                            "batch_size": 16}}


@pytest.fixture(scope="module")
def corpus():
    """(EG feature matrix, trigram id matrix, vocabulary size, labels) of
    45 synthetic records over three classes."""
    spec = synth.SynthSpec(classes=synth.default_classes(3), records=45,
                           min_len=40, max_len=50, seed=11)
    ds = synth.generate(spec)
    profiles = synth.generate_pssms(ds, 11)
    features = np.array([pssm.encode_record_features(
        r.residues, profiles[r.id], "eg") for r in ds.records])
    rows = [ngram.tokenize(r.residues, 3) for r in ds.records]
    vocab = ngram.build_vocab(rows, 3)
    tokens = ngram.encode_corpus(rows, vocab, max(map(len, rows)))
    return features, tokens, vocab.size, list(ds.labels)


def fitted(model, corpus, scale=1.0):
    """model fitted on two of every three records (features times scale),
    and the inputs of every record."""
    features, tokens, vocab_size, labels = corpus
    y = evaluation.label_indices(labels, class_order(labels))
    if KINDS[model].input == "tokens":
        inputs, shape = tokens, {"vocab_size": vocab_size}
    else:
        inputs, shape = features * scale, {}
    train = np.arange(len(y)) % 3 != 0
    estimator = ModelFactory(model, 3, SETTINGS[model], **shape)({}, 7)
    return estimator.fit(inputs[train], y[train]), inputs


@pytest.mark.parametrize("model", sorted(SETTINGS))
def test_r1_batch_independence(corpus, model):
    estimator, inputs = fitted(model, corpus)
    whole = estimator.predict_proba(inputs)
    for size in (1, 7, 13):
        parts = np.concatenate([estimator.predict_proba(inputs[i:i + size])
                                for i in range(0, len(inputs), size)])
        if KINDS[model].estimator.FAMILY == "neural":
            assert np.abs(parts - whole).max() <= 1e-12, size
        else:
            assert parts.tobytes() == whole.tobytes(), size


@pytest.mark.parametrize("model", ["rf", "rusboost"])
def test_r2_rescaling_by_four(corpus, model):
    estimator, inputs = fitted(model, corpus)
    scaled, scaled_inputs = fitted(model, corpus, scale=4.0)
    assert scaled.predict_proba(scaled_inputs).tobytes() == \
        estimator.predict_proba(inputs).tobytes()


def test_r3_class_renaming_keeps_overall(corpus):
    features, _, _, labels = corpus
    renamed = {"class0": "avian", "class1": "human", "class2": "swine"}
    overall = []
    for names in (labels, [renamed[name] for name in labels]):
        classes = class_order(names)
        y = evaluation.label_indices(names, classes)
        estimator = ModelFactory("rf", 3, SETTINGS["rf"])({}, 7)
        proba = estimator.fit(features, y).predict_proba(features[::2])
        doc, _ = evaluation.compute_report(y[::2], proba, classes)
        overall.append(doc["overall"])
    assert overall[0] == overall[1]


def test_r4_evaluate_equals_predict_then_report(tmp_path, corpus):
    features, _, _, labels = corpus
    data = tmp_path / "features.csv"
    store.write_features_csv(data, [f"r{i}" for i in range(len(labels))],
                             labels, "eg", features)

    def run(*argv, out):
        assert cli.main([*argv, "--out", str(tmp_path / out)]) == 0
        return tmp_path / out

    model = run("train", "--model", "rf", "--seed", "1", "--n-estimators",
                "5", "--features", str(data), out="model") / "model.bin"
    evaluate = run("evaluate", "--model-file", str(model),
                   "--features", str(data), out="ev")
    predictions = run("predict", "--model-file", str(model),
                      "--features", str(data), out="pred")
    report = run("report", "--predictions",
                 str(predictions / "predictions.csv"), out="rep")
    for name in ("metrics.json", "pr_curves.csv"):
        assert (report / name).read_bytes() == (evaluate / name).read_bytes()


def tree_data(tmp_path, corpus, model):
    """(features, labels, features.csv) of the corpus; for rusboost two
    of every three class2 records are dropped, because on balanced
    classes its undersample is every row, whatever the seed."""
    features, _, _, labels = corpus
    keep = [i for i, label in enumerate(labels)
            if model != "rusboost" or label != "class2" or i % 3 == 0]
    features, labels = features[keep], [labels[i] for i in keep]
    data = tmp_path / "features.csv"
    store.write_features_csv(data, [f"r{i}" for i in range(len(labels))],
                             labels, "eg", features)
    return features, labels, data


def nested_cv_argv(model, data, grid, out):
    flags = {"rf": [], "rusboost": ["--base-depth", "2"]}[model]
    return ["nested-cv", "--model", model, "--features", str(data), "--grid",
            json.dumps(grid), "--k-outer", "3", "--k-inner", "2", "--seed",
            "5", *flags, "--out", str(out)]


@pytest.mark.parametrize("model, grid", [
    ("rf", [{"n_estimators": 3, "max_depth": 2},
            {"n_estimators": 5, "max_depth": 4}]),
    ("rusboost", [{"n_estimators": 2, "learning_rate": 0.5},
                  {"n_estimators": 5, "learning_rate": 1.0}]),
])
def test_r6_grid_order_keeps_each_points_scores(tmp_path, corpus, model,
                                                grid):
    _, _, data = tree_data(tmp_path, corpus, model)
    scores = []
    for name, points in (("given", grid), ("swapped", grid[::-1])):
        assert cli.main(nested_cv_argv(model, data, points,
                                       tmp_path / name)) == 0
        doc = json.loads((tmp_path / name / "metrics.json").read_text())
        scores.append([fold["inner_mean_scores"] for fold in doc["outer"]])
    assert scores[0] == [fold[::-1] for fold in scores[1]]


def unstaged_nested_cv(X, y, factory, grid, plan, class_names):
    """nested_cv's result built point by point: each grid point's inner
    fits through factory on their own, seeded by outer and inner fold."""
    scores = np.zeros((plan.k_outer, len(grid), plan.k_inner))
    for f, a in enumerate(plan.inner):
        for j, params in enumerate(grid):
            for m in range(plan.k_inner):
                train = np.flatnonzero((a != -1) & (a != m))
                scored = np.flatnonzero(a == m)
                model = factory(params, derive_seed(plan.seed, "outer", f,
                                                    "inner", m))
                proba = model.fit(X[train], y[train]).predict_proba(X[scored])
                scores[f, j, m] = evaluation.compute_report(
                    y[scored], proba, class_names)[0]["overall"]["mean_score"]
    pooled = np.zeros((len(y), len(class_names)))
    outer = []
    for f, row in enumerate(scores.mean(axis=2)):
        best = int(np.argmax(row))
        train, test = (np.flatnonzero(plan.outer != f),
                       np.flatnonzero(plan.outer == f))
        model = factory(grid[best], derive_seed(plan.seed, "outer", f,
                                                "refit"))
        pooled[test] = model.fit(X[train], y[train]).predict_proba(X[test])
        outer.append({"fold": f, "chosen_index": best,
                      "chosen_params": dict(grid[best]),
                      "inner_mean_scores": [float(s) for s in row],
                      "report": evaluation.compute_report(
                          y[test], pooled[test], class_names)[0]})
    pooled_doc, curves = evaluation.compute_report(y, pooled, class_names)
    return {"k_outer": plan.k_outer, "k_inner": plan.k_inner,
            "seed": plan.seed, "outer": outer, "pooled": pooled_doc}, curves


def score_files(out):
    return {name: (out / name).read_bytes()
            for name in ("metrics.json", "pr_curves.csv")}


@pytest.mark.parametrize("model, grid", [
    ("rf", {"n_estimators": [2, 3, 5], "max_depth": [2, 4]}),
    ("rusboost", {"n_estimators": [1, 3, 6], "learning_rate": [0.5, 1.0]}),
])
def test_staged_nested_cv_writes_the_unstaged_bytes(tmp_path, corpus, model,
                                                    grid):
    features, labels, data = tree_data(tmp_path, corpus, model)
    classes = class_order(labels)
    y = evaluation.label_indices(labels, classes)
    points = [dict(zip(grid, values))
              for values in zip(*[v.ravel() for v in np.meshgrid(
                  *grid.values(), indexing="ij")])]
    points = [{k: v.item() for k, v in p.items()} for p in points]
    flags = {"rf": {}, "rusboost": {"base_depth": 2}}[model]
    factory = ModelFactory(model, 3, flags)
    plan = evaluation.make_cv_plan(y, 3, 2, 5)
    store.OutDir(tmp_path).write_scores(*unstaged_nested_cv(
        features, y, factory, points, plan, classes))
    reference = score_files(tmp_path)
    for workers in (1, 2):
        out = tmp_path / f"cli{workers}"
        argv = nested_cv_argv(model, data, grid, out)
        assert cli.main(argv + ["--workers", str(workers)]) == 0
        assert score_files(out) == reference, workers
        # the CLI fits trees on one thread, so run the pool here too
        inproc = tmp_path / f"pool{workers}"
        inproc.mkdir()
        store.OutDir(inproc).write_scores(*evaluation.nested_cv(
            features, y, factory, points, plan, classes, workers=workers,
            stages=KINDS[model].stages))
        assert score_files(inproc) == reference, workers


@pytest.mark.parametrize("model, flags", [
    ("cnn", ["--filters", "8", "--embed-dim", "8"]),
    ("transformer", ["--embed-dim", "8", "--num-heads", "2"]),
])
def test_r8_a_token_only_a_test_fold_holds_scores_as_oov(tmp_path, corpus,
                                                         model, flags):
    # The records of outer fold 0 end in four copies of a token that no
    # other record holds, or in OOV_ID itself. Fold 0's refit trains on
    # the same rows either way, so it must report the same scores.
    _, tokens, vocab_size, labels = corpus
    y = evaluation.label_indices(labels, class_order(labels))
    held_out = evaluation.make_cv_plan(y, 3, 2, 5).outer == 0
    # one token more than the corpus holds: id vocab_size is new
    store.save_vocab(ngram.Vocabulary(3, {f"{i:03x}": i + 2
                                          for i in range(vocab_size - 1)}),
                     tokens.shape[1], tmp_path / "vocab.json")
    folds = []
    for name, token in (("unseen", vocab_size), ("oov", ngram.OOV_ID)):
        data = tokens.copy()
        data[held_out, -4:] = token
        store.write_tokens_csv(tmp_path / f"{name}.csv",
                               [f"r{i}" for i in range(len(labels))], labels,
                               data)
        assert cli.main([
            "nested-cv", "--model", model, "--tokens",
            str(tmp_path / f"{name}.csv"), "--vocab",
            str(tmp_path / "vocab.json"), "--grid", '{"epochs": [2]}',
            "--batch-size", "16", "--k-outer", "3", "--k-inner", "2",
            "--seed", "5", *flags, "--out", str(tmp_path / name)]) == 0
        doc = json.loads((tmp_path / name / "metrics.json").read_text())
        folds.append(doc["outer"][0])
    assert folds[0] == folds[1]
