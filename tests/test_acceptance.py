"""Acceptance criteria: one test per numbered criterion. The conftest hook
prints one pass/fail line per criterion after the run."""

import json
import time

import numpy as np
import pytest

from hostseq import cli, evaluation as ev, ngram, pssm, store, synth
from hostseq.ensemble import (
    Forest,
    ForestConfig,
    RusBoostConfig,
    RusBoostModel,
    fit_tree,
)
from hostseq.models import NetConfig, NeuralClassifier

from conftest import random_gpssm
from test_autograd import check_gradients
from test_evaluation import (
    oracle_average_precision,
    oracle_binary_mcc,
    oracle_f1,
    oracle_overall_mcc,
)
from test_pssm import oracle_eg, oracle_er, oracle_gdpc, rel_err


@pytest.mark.acceptance(1, "encoders match brute-force oracles on 100 "
                           "random inputs within 1e-12")
def test_c1_encoder_oracles():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(100):
        residues, g = random_gpssm(rng, int(rng.integers(10, 41)))
        eg = pssm.encode_eg(residues, g)
        gdpc = pssm.encode_gdpc(g)
        er = pssm.encode_er(g)
        assert eg.shape == (100,)
        assert gdpc.shape == (100,)
        assert er.shape == (910,)
        assert rel_err(eg, oracle_eg(residues, g)) <= 1e-12
        assert rel_err(gdpc, oracle_gdpc(g)) <= 1e-12
        assert rel_err(er, oracle_er(g)) <= 1e-12
    assert time.perf_counter() - start < 10.0


@pytest.mark.acceptance(2, "closed forms: constant GPSSM, sigmoid(0), "
                           "reference trigrams")
def test_c2_closed_forms():
    # constant 0.5 is dyadic, so both identities hold bit-exactly
    g = np.full((12, 10), 0.5)
    assert np.all(pssm.encode_gdpc(g) == 0.25)
    assert np.all(pssm.encode_er(g) == 0.0)
    # non-dyadic constant: identical up to the square of one rounding error
    g2 = np.full((12, 10), 0.37)
    assert np.allclose(pssm.encode_gdpc(g2), 0.37 ** 2, atol=1e-15)
    assert np.all(np.abs(pssm.encode_er(g2)) < 1e-30)

    zero = np.zeros((1, 20), dtype=int)
    assert np.all(pssm.sigmoid_normalize(zero) == 0.5)

    assert ngram.tokenize("MLSITILFL", 3) == [
        "MLS", "LSI", "SIT", "ITI", "TIL", "ILF", "LFL"]


@pytest.mark.acceptance(3, "all nn ops pass finite-difference gradient "
                           "checks over 10 seeds")
def test_c3_gradient_suite():
    import hostseq.autograd as ag

    def multi_head(xt, wq, wk, wv, wo):
        batch, length, dim, heads = 2, 3, 4, 2

        def split(t):
            t = ag.reshape(t, (batch, length, heads, dim // heads))
            return ag.transpose(t, (0, 2, 1, 3))

        q, k, v = split(ag.matmul(xt, wq)), split(ag.matmul(xt, wk)), \
            split(ag.matmul(xt, wv))
        mixed, _ = ag.scaled_dot_product_attention(q, k, v)
        joined = ag.reshape(ag.transpose(mixed, (0, 2, 1, 3)),
                            (batch, length, dim))
        return ag.matmul(joined, wo)

    def cases(rng):
        yield "dense", ag.dense, [rng.normal(size=(4, 5)),
                                  rng.normal(size=(5, 3)),
                                  rng.normal(size=(3,))]
        yield "conv1d", ag.conv1d, [rng.normal(size=(2, 7, 3)),
                                    rng.normal(size=(3, 3, 4)),
                                    rng.normal(size=(4,))]
        yield "maxpool", lambda t: ag.maxpool1d(t, width=2), [
            rng.permutation(2 * 6 * 3).reshape(2, 6, 3) * 0.1]
        emb_ids = rng.integers(0, 7, size=(2, 5))
        yield "embedding", lambda t, i=emb_ids: ag.embedding(t, i), [
            rng.normal(size=(7, 3))]
        yield "attention", lambda a, b, c: ag.scaled_dot_product_attention(
            a, b, c)[0], [rng.normal(size=(2, 4, 3)) for _ in range(3)]
        yield "multi_head", multi_head, [rng.normal(size=(2, 3, 4))] + [
            rng.normal(size=(4, 4)) * 0.5 for _ in range(4)]
        yield "layer_norm", ag.layer_norm, [rng.normal(size=(3, 4, 5)),
                                            rng.normal(size=(5,)) + 1.5,
                                            rng.normal(size=(5,))]
        sce_labels = rng.integers(0, 4, size=6)
        yield "softmax_cross_entropy", lambda t, l=sce_labels: \
            ag.cross_entropy(t, l), [rng.normal(size=(6, 4))]

    start = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for name, build, arrays in cases(rng):
            worst = check_gradients(build, arrays, rtol=1e-4)
            assert worst < 1e-4, f"{name} seed {seed}: {worst:.3e}"
    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(4, "metrics match brute-force oracles on 100 "
                           "random cases within 1e-12")
def test_c4_metric_oracles():
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        cm_arr = rng.integers(0, 10, size=(n, n))
        if cm_arr.sum() == 0:
            cm_arr[0, 0] = 1
        metrics = ev.per_class_metrics(cm_arr)
        for i in range(n):
            assert abs(metrics["f1"][0][i] - oracle_f1(cm_arr, i)) <= 1e-12
            assert abs(metrics["mcc"][0][i]
                       - oracle_binary_mcc(cm_arr, i)) <= 1e-12
        assert abs(ev.overall_mcc(cm_arr)[0]
                   - oracle_overall_mcc(cm_arr)) <= 1e-12

        m = int(rng.integers(3, 30))
        scores = rng.integers(0, 8, size=m) / 7.0
        y = rng.integers(0, 2, size=m)
        if y.sum() == 0:
            y[0] = 1
        got = ev.average_precision(ev.pr_curve(scores, y))
        assert abs(got - oracle_average_precision(scores, y)) <= 1e-12

        c = int(rng.integers(2, 5))
        prob = rng.random((m, c)) + 1e-9
        prob /= prob.sum(axis=1, keepdims=True)
        y_multi = rng.integers(0, c, size=m)
        micro = ev.micro_metrics(prob, y_multi)
        assert micro["micro_f1"] == (prob.argmax(axis=1) == y_multi).mean()

    hand_cm = np.array([[2, 1], [1, 2]])
    assert ev.overall_mcc(hand_cm)[0] == pytest.approx(1 / 3, abs=1e-15)
    hand_ap = ev.average_precision(
        ev.pr_curve(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1])))
    assert hand_ap == pytest.approx(5 / 6, abs=1e-15)


@pytest.mark.acceptance(5, "5x4 CV plan on 500 records partitions exactly, "
                           "stratifies within 1, reruns byte-identical")
def test_c5_cv_integrity(tmp_path):
    spec = synth.SynthSpec(classes=synth.default_classes(3), records=500,
                           min_len=15, max_len=25, seed=55)
    ds = synth.generate(spec)
    labels = np.array([ds.class_names.index(l) for l in ds.labels])

    plan = ev.make_cv_plan(labels, k_outer=5, k_inner=4, seed=9)
    outer = plan.outer
    assert outer.shape == (500,)
    fold_sizes = np.bincount(outer, minlength=5)
    assert fold_sizes.sum() == 500  # partition: each record in one test fold
    for cls in range(3):
        per_fold = np.bincount(outer[labels == cls], minlength=5)
        assert per_fold.max() - per_fold.min() <= 1
    for f in range(5):
        inner = plan.inner[f]
        assert np.all((inner == -1) == (outer == f))
        train_labels = labels[outer != f]
        train_inner = inner[outer != f]
        for cls in range(3):
            per_inner = np.bincount(train_inner[train_labels == cls],
                                    minlength=4)
            assert per_inner.max() - per_inner.min() <= 1

    again = ev.make_cv_plan(labels, k_outer=5, k_inner=4, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(again, plan))
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    store.save_plan(plan, path_a)
    store.save_plan(ev.make_cv_plan(labels, 5, 4, 9), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def _c6_corpus():
    spec = synth.SynthSpec(classes=synth.default_classes(3), records=600,
                           min_len=40, max_len=60, seed=11)
    ds = synth.generate(spec)
    labels = np.array([ds.class_names.index(l) for l in ds.labels])
    return ds, labels


def _assert_learned(report):
    assert report["overall"]["mean_score"] >= 0.90
    for name, entry in report["per_class"].items():
        assert entry["aucpr"] > entry["prevalence"], name


@pytest.mark.slow
@pytest.mark.acceptance(6, "600-record corpus: trigram transformer and "
                           "forest on ER profiles reach mean score >= 0.90")
def test_c6_end_to_end_learnability():
    start = time.perf_counter()
    ds, labels = _c6_corpus()
    names = ds.class_names

    token_lists = [ngram.tokenize(r.residues, 3) for r in ds.records]
    vocab = ngram.build_vocab(token_lists, 3)
    max_len = max(len(t) for t in token_lists)
    X_tok = ngram.encode_corpus(token_lists, vocab, max_len)

    def transformer_factory(params, seed):
        config = NetConfig(kind="transformer", vocab_size=vocab.size,
                           embed_dim=32, num_heads=1,
                           learning_rate=0.001, batch_size=128, epochs=30,
                           seed=seed)
        return NeuralClassifier(config, 3)

    plan = ev.make_cv_plan(labels, k_outer=5, k_inner=4, seed=6)
    doc_t, _ = ev.nested_cv(X_tok, labels, transformer_factory,
                            [{}], plan, names)
    _assert_learned(doc_t["pooled"])

    profiles = synth.generate_pssms(ds, seed=11)
    X_er = np.stack([
        pssm.encode_record_features(r.residues, profiles[r.id], "er")
        for r in ds.records])

    forest_factory = lambda params, seed: Forest(
        ForestConfig(n_estimators=50, max_depth=10, seed=seed), 3)
    doc_f, _ = ev.nested_cv(X_er, labels, forest_factory, [{}], plan, names)
    _assert_learned(doc_f["pooled"])
    assert time.perf_counter() - start < 600.0


@pytest.mark.acceptance(7, "9:1 imbalance: boosted undersampling beats a "
                           "single depth-equal tree on minority recall")
def test_c7_imbalance_behavior():
    rng = np.random.default_rng(42)
    n_neg, n_pos = 450, 50
    X = np.vstack([rng.normal(0.0, 1.0, size=(n_neg, 4)),
                   rng.normal(0.9, 1.0, size=(n_pos, 4))])
    y = np.array([0] * n_neg + [1] * n_pos)

    depth = 3
    tree = fit_tree(np.ascontiguousarray(X.T), np.arange(y.size),
                    np.eye(2)[y], max_depth=depth)
    boost = RusBoostModel(RusBoostConfig(n_estimators=50, learning_rate=0.1,
                                         max_depth=depth, seed=7),
                          2).fit(X, y)
    minority = y == 1
    tree_recall = (tree.predict(X)[minority] == 1).mean()
    boost_recall = (boost.predict_proba(X).argmax(axis=1)[minority]
                    == 1).mean()
    assert boost_recall > tree_recall


@pytest.mark.acceptance(8, "two identical nested-cv CLI runs produce "
                           "identical metrics.json")
def test_c8_cli_determinism(tmp_path):
    grid = json.dumps({"n_estimators": [10], "max_depth": [5, 10]})

    def one_run(out):
        out = str(out)
        assert cli.main(["synth", "--out", out, "--records", "60",
                         "--classes", "3", "--seed", "31",
                         "--min-len", "40", "--max-len", "50"]) == 0
        assert cli.main(["encode", "--dataset", out + "/dataset.json",
                         "--scheme", "er", "--synth-pssms", "--seed", "8",
                         "--out", out]) == 0
        assert cli.main(["nested-cv", "--model", "rf", "--grid", grid,
                         "--features", out + "/features.csv",
                         "--k-outer", "3", "--k-inner", "2", "--seed", "17",
                         "--out", out]) == 0
        with open(out + "/metrics.json", "rb") as f:
            return f.read()

    assert one_run(tmp_path / "run_a") == one_run(tmp_path / "run_b")
