"""Metrics against brute-force oracles, PR curves, stratified and nested CV."""

import json
import math
import pickle
import threading

import numpy as np
import pytest

from hostseq import evaluation as ev
from hostseq import store
from hostseq.estimators import KINDS, ModelFactory
from hostseq.models import TrainingDivergedError
from hostseq.seqio import DataError
from hostseq.util import derive_seed


# --- oracles coded straight from the metric definitions ---

def oracle_confusion(y_true, y_pred, n):
    cm = np.zeros((n, n), dtype=int)
    for t, p in zip(y_true, y_pred):
        cm[t][p] += 1
    return cm


def oracle_one_vs_all(cm, i):
    total = cm.sum()
    tp = cm[i, i]
    fp = cm[:, i].sum() - tp
    fn = cm[i, :].sum() - tp
    tn = total - tp - fp - fn
    return tp, fp, fn, tn


def oracle_f1(cm, i):
    tp, fp, fn, _ = oracle_one_vs_all(cm, i)
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def oracle_precision(cm, i):
    tp, fp, _, _ = oracle_one_vs_all(cm, i)
    return tp / (tp + fp) if tp + fp else 0.0


def oracle_recall(cm, i):
    tp, _, fn, _ = oracle_one_vs_all(cm, i)
    return tp / (tp + fn) if tp + fn else 0.0


def oracle_binary_mcc(cm, i):
    tp, fp, fn, tn = oracle_one_vs_all(cm, i)
    denom = math.sqrt(float((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)))
    return (tp * tn - fp * fn) / denom if denom else 0.0


def oracle_overall_mcc(cm):
    s = cm.sum()
    c = np.trace(cm)
    p = cm.sum(axis=0)
    t = cm.sum(axis=1)
    num = c * s - int(p @ t)
    ra = s * s - int(p @ p)
    rb = s * s - int(t @ t)
    if ra <= 0 or rb <= 0:
        return 0.0
    return num / (math.sqrt(ra) * math.sqrt(rb))


def oracle_average_precision(scores, y):
    """Step-sum AP over descending distinct thresholds, ties grouped."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y, dtype=int)
    total_pos = int(y.sum())
    assert total_pos > 0
    ap = 0.0
    prev_recall = 0.0
    for thr in sorted(set(scores.tolist()), reverse=True):
        kept = scores >= thr
        tp = int(y[kept].sum())
        precision = tp / int(kept.sum())
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def random_cm(rng, n):
    return rng.integers(0, 12, size=(n, n))


# --- confusion and per-class metrics ---

def test_confusion_tally(rng):
    names = ("a", "b", "c")
    y_true = rng.integers(0, 3, size=50)
    y_pred = rng.integers(0, 3, size=50)
    cm = ev.confusion(y_true, y_pred, len(names))
    assert cm.dtype == np.int64 and cm.shape == (3, 3)
    assert np.array_equal(cm, oracle_confusion(y_true, y_pred, 3))
    assert cm.sum() == 50


def test_confusion_accepts_names():
    names = ("a", "b")
    cm = ev.confusion(ev.label_indices(["a", "b", "a"], names),
                      ev.label_indices(["a", "a", "a"], names), len(names))
    assert cm.tolist() == [[2, 0], [1, 0]]


def test_confusion_unknown_label():
    with pytest.raises(ValueError, match="unknown label 'z'"):
        ev.label_indices(["a", "z"], ("a", "b"))
    with pytest.raises(ValueError, match="labels must lie in"):
        ev.confusion([0, 2], [0, 0], 2)


def test_perfect_prediction_is_diagonal():
    y = np.array([0, 1, 2, 1, 0])
    cm = ev.confusion(y, y, 3)
    assert np.array_equal(cm, np.diag([2, 2, 1]))
    metrics = ev.per_class_metrics(cm)
    assert np.all(metrics["f1"][0] == 1.0)
    assert np.all(metrics["mcc"][0] == 1.0)
    assert ev.overall_mcc(cm) == (1.0, False)


def test_f1_hand_case():
    # one-vs-all with TP=2, FP=1, FN=1 for class a
    cm = np.array([[2, 1], [1, 6]])
    assert ev.per_class_metrics(cm)["f1"][0][0] == pytest.approx(
        2 / 3, abs=1e-15)


def test_overall_mcc_hand_case():
    cm = np.array([[2, 1], [1, 2]])
    assert ev.overall_mcc(cm)[0] == pytest.approx(1 / 3, abs=1e-15)


def test_degenerate_single_column_mcc_zero():
    cm = np.array([[3, 0], [2, 0]])
    assert ev.overall_mcc(cm) == (0.0, True)


def test_metrics_match_oracles_on_random_matrices(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        cm_arr = random_cm(rng, n)
        if cm_arr.sum() == 0:
            continue
        metrics = ev.per_class_metrics(cm_arr)
        oracles = {"precision": oracle_precision, "recall": oracle_recall,
                   "f1": oracle_f1, "mcc": oracle_binary_mcc}
        for i in range(n):
            for name, oracle in oracles.items():
                assert metrics[name][0][i] == pytest.approx(
                    oracle(cm_arr, i), abs=1e-12)
        assert ev.overall_mcc(cm_arr)[0] == pytest.approx(
            oracle_overall_mcc(cm_arr), abs=1e-12)


# --- PR curves and average precision ---

def test_ap_reference_case():
    curve = ev.pr_curve(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1]))
    assert ev.average_precision(curve) == pytest.approx(5 / 6, abs=1e-15)


def test_ap_perfect_ranking():
    curve = ev.pr_curve(np.array([0.9, 0.8, 0.2, 0.1]),
                        np.array([1, 1, 0, 0]))
    assert ev.average_precision(curve) == 1.0


def test_ap_constant_scores_equals_prevalence():
    curve = ev.pr_curve(np.full(8, 0.5), np.array([1, 0, 0, 1, 0, 0, 0, 0]))
    assert ev.average_precision(curve) == pytest.approx(0.25, abs=1e-15)


def test_pr_curve_requires_positive():
    with pytest.raises(ValueError, match="no positive"):
        ev.pr_curve(np.array([0.4, 0.2]), np.array([0, 0]))


def test_pr_curve_recall_monotone(rng):
    scores = rng.random(40)
    y = rng.integers(0, 2, size=40)
    y[0] = 1
    points = ev.pr_curve(scores, y)
    recalls = [r for r, _ in points]
    assert recalls == sorted(recalls)
    assert all(0.0 <= p <= 1.0 for _, p in points)


def test_ap_matches_oracle_on_random_sets(rng):
    for _ in range(100):
        n = int(rng.integers(3, 40))
        # coarse grid forces score ties into the tie-group path
        scores = rng.integers(0, 6, size=n) / 5.0
        y = rng.integers(0, 2, size=n)
        if y.sum() == 0:
            y[int(rng.integers(0, n))] = 1
        got = ev.average_precision(ev.pr_curve(scores, y))
        assert got == pytest.approx(oracle_average_precision(scores, y),
                                    abs=1e-12)


# --- micro metrics and reports ---

def random_prob_matrix(rng, n, c):
    raw = rng.random((n, c)) + 1e-6
    return raw / raw.sum(axis=1, keepdims=True)


def test_micro_f1_equals_accuracy(rng):
    for _ in range(20):
        prob = random_prob_matrix(rng, 30, 4)
        y = rng.integers(0, 4, size=30)
        micro = ev.micro_metrics(prob, y)
        acc = (prob.argmax(axis=1) == y).mean()
        assert micro["micro_f1"] == acc


def test_micro_aucpr_matches_pooled_oracle(rng):
    for _ in range(20):
        prob = random_prob_matrix(rng, 25, 3)
        y = rng.integers(0, 3, size=25)
        micro = ev.micro_metrics(prob, y)
        onehot = np.zeros_like(prob, dtype=int)
        onehot[np.arange(25), y] = 1
        want = oracle_average_precision(prob.ravel(), onehot.ravel())
        assert micro["micro_aucpr"] == pytest.approx(want, abs=1e-12)


def test_compute_report_validates_rows():
    with pytest.raises(ValueError, match="sum to 1"):
        ev.compute_report(np.array([0, 1]),
                          np.array([[0.9, 0.4], [0.5, 0.5]]), ("a", "b"))


def test_perfect_probabilities_micro_aucpr_one():
    y = np.array([0, 1, 2, 0])
    prob = np.zeros((4, 3))
    prob[np.arange(4), y] = 1.0
    micro = ev.micro_metrics(prob, y)
    assert micro["micro_f1"] == 1.0
    assert micro["micro_aucpr"] == 1.0


def test_compute_report_fields(rng):
    names = ("a", "b", "c")
    prob = random_prob_matrix(rng, 60, 3)
    y = rng.integers(0, 3, size=60)
    doc, _ = ev.compute_report(y, prob, names)
    assert set(doc["per_class"]) == set(names)
    for i, name in enumerate(names):
        entry = doc["per_class"][name]
        assert set(entry) == {"precision", "recall", "f1", "mcc", "aucpr",
                              "prevalence"}
        assert entry["prevalence"] == pytest.approx((y == i).mean())
        want_ap = oracle_average_precision(prob[:, i], (y == i).astype(int))
        assert entry["aucpr"] == pytest.approx(want_ap, abs=1e-12)
    overall = doc["overall"]
    mean = (overall["micro_f1"] + overall["micro_aucpr"]
            + overall["overall_mcc"]) / 3
    assert overall["mean_score"] == pytest.approx(mean, abs=1e-12)


def test_compute_report_degenerate_flags():
    # class c never true and never predicted
    names = ("a", "b", "c")
    y = np.array([0, 0, 1, 1])
    prob = np.array([[0.8, 0.1, 0.1],
                     [0.7, 0.2, 0.1],
                     [0.2, 0.7, 0.1],
                     [0.3, 0.6, 0.1]])
    doc, _ = ev.compute_report(y, prob, names)
    assert doc["per_class"]["c"]["f1"] == 0.0
    assert any(flag.startswith("aucpr") for flag in doc["degenerate"])
    assert doc["per_class"]["c"]["aucpr"] == 0.0


def oracle_degenerate(cm, names):
    """Degenerate flags from the oracle's zero denominators, in report
    order: per class precision, recall, f1, mcc, aucpr; then overall."""
    flags = []
    for i, name in enumerate(names):
        tp, fp, fn, tn = oracle_one_vs_all(cm, i)
        denominators = {"precision": tp + fp, "recall": tp + fn,
                        "f1": 2 * tp + fp + fn,
                        "mcc": (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn),
                        "aucpr": cm[i].sum()}
        flags += [f"{metric}:{name}"
                  for metric, den in denominators.items() if den == 0]
    s = cm.sum()
    p, t = cm.sum(axis=0), cm.sum(axis=1)
    if s * s - int(p @ p) <= 0 or s * s - int(t @ t) <= 0:
        flags.append("overall_mcc")
    return flags


def predictions_tallying_to(rng, cm):
    """Class indices and a probability matrix whose argmax tallies to cm."""
    c = cm.shape[0]
    pairs = [(i, j) for i in range(c) for j in range(c)
             for _ in range(cm[i, j])]
    y = np.array([i for i, _ in pairs])
    prob = rng.random((len(pairs), c)) * 0.5
    prob[np.arange(len(pairs)), [j for _, j in pairs]] = 1.0
    return y, prob / prob.sum(axis=1, keepdims=True)


def test_degenerate_flags_match_oracle(rng):
    cases = []
    for _ in range(100):
        n = int(rng.integers(2, 6))
        cases.append(rng.integers(0, 4, size=(n, n))
                     * (rng.random((n, n)) < 0.4))
    absent = random_cm(rng, 3)
    absent[1] = 0                       # class never true
    unpredicted = random_cm(rng, 3)
    unpredicted[:, 2] = 0               # class never predicted
    single = np.zeros((3, 3), dtype=int)
    single[:, 0] = [4, 2, 1]            # one predicted class
    one_cell = np.zeros((4, 4), dtype=int)
    one_cell[2, 2] = 5
    cases += [absent, unpredicted, single, one_cell]
    for cm in cases:
        if cm.sum() == 0:
            continue
        names = tuple(f"c{i}" for i in range(cm.shape[0]))
        y, prob = predictions_tallying_to(rng, cm)
        doc, _ = ev.compute_report(y, prob, names)
        assert doc["confusion"] == cm.tolist()
        assert doc["degenerate"] == oracle_degenerate(cm, names)


def test_report_doc_roundtrips_json(rng):
    # the document is plain JSON data: it reads back equal, every float
    # bit for bit
    prob = random_prob_matrix(rng, 20, 3)
    y = rng.integers(0, 3, size=20)
    doc, _ = ev.compute_report(y, prob, ("a", "b", "c"))
    assert set(doc) == {"class_names", "confusion", "per_class", "overall",
                        "degenerate"}
    assert json.loads(json.dumps(doc)) == doc
    assert doc["class_names"] == ["a", "b", "c"]
    assert sum(map(sum, doc["confusion"])) == 20


def test_per_class_pr_curves_and_csv(rng, tmp_path):
    prob = random_prob_matrix(rng, 20, 3)
    y = rng.integers(0, 2, size=20)  # class c has no positives
    _, curves = ev.compute_report(y, prob, ("a", "b", "c"))
    assert list(curves) == ["a", "b"]
    assert curves["a"] == ev.pr_curve(prob[:, 0], y == 0)
    path = tmp_path / "pr_curves.csv"
    store.write_pr_curves_csv(path, curves)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "class,recall,precision"
    assert all(line.split(",")[0] in ("a", "b") for line in lines[1:])
    assert len(lines) == 1 + len(curves["a"]) + len(curves["b"])


# --- stratified k-fold ---

def test_kfold_partition_and_stratification(rng):
    labels = np.array([0] * 230 + [1] * 180 + [2] * 90)
    rng.shuffle(labels)
    folds = ev.stratified_kfold(labels, k=5, seed=3)
    all_idx = np.sort(np.concatenate(folds))
    assert np.array_equal(all_idx, np.arange(len(labels)))
    for cls in (0, 1, 2):
        per_fold = [np.sum(labels[f] == cls) for f in folds]
        assert max(per_fold) - min(per_fold) <= 1


def test_kfold_deterministic():
    labels = np.array([0, 1] * 20)
    a = ev.stratified_kfold(labels, k=4, seed=9)
    b = ev.stratified_kfold(labels, k=4, seed=9)
    c = ev.stratified_kfold(labels, k=4, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_kfold_single_member_class():
    labels = np.array([0] * 9 + [1])
    folds = ev.stratified_kfold(labels, k=5, seed=0)
    holder = [i for i, f in enumerate(folds) if 9 in f.tolist()]
    assert len(holder) == 1


def test_kfold_errors():
    with pytest.raises(ValueError):
        ev.stratified_kfold(np.array([0, 1]), k=1, seed=0)
    with pytest.raises(ValueError):
        ev.stratified_kfold(np.array([0, 1]), k=3, seed=0)


def test_kfold_hand_sizes():
    labels = np.array([0] * 6 + [1] * 4)
    folds = ev.stratified_kfold(labels, k=2, seed=1)
    assert sorted(len(f) for f in folds) == [5, 5]
    for f in folds:
        assert np.sum(labels[f] == 0) == 3
        assert np.sum(labels[f] == 1) == 2


# --- CV plans ---

def test_make_cv_plan_invariants(rng):
    labels = rng.integers(0, 3, size=60)
    plan = ev.make_cv_plan(labels, k_outer=5, k_inner=4, seed=2)
    outer = plan.outer
    assert outer.shape == (60,) and plan.inner.shape == (5, 60)
    assert set(outer.tolist()) == set(range(5))
    for f in range(5):
        inner = plan.inner[f]
        held = outer == f
        assert np.all(inner[held] == -1)
        assert set(inner[~held].tolist()) == set(range(4))


def test_plan_roundtrip(tmp_path, rng):
    labels = rng.integers(0, 2, size=30)
    plan = ev.make_cv_plan(labels, k_outer=3, k_inner=2, seed=7)
    path = tmp_path / "cv_plan.json"
    store.save_plan(plan, path)
    assert json.loads(path.read_text()) == {
        "k_outer": 3, "k_inner": 2, "seed": 7,
        "outer": plan.outer.tolist(), "inner": plan.inner.tolist()}
    text_a = path.read_bytes()
    store.save_plan(plan, path)
    assert path.read_bytes() == text_a


# --- nested CV ---

class CentroidModel:
    """Deterministic stand-in classifier with a no-op hyperparameter."""

    def __init__(self, sharpness):
        self.sharpness = sharpness
        self.centers = None

    def fit(self, X, y):
        classes = np.unique(y)
        self.n_classes = int(classes.max()) + 1
        self.centers = np.stack([
            X[y == c].mean(axis=0) if np.any(y == c) else np.zeros(X.shape[1])
            for c in range(self.n_classes)])
        return self

    def predict_proba(self, X):
        d = ((X[:, None, :] - self.centers[None]) ** 2).sum(axis=2)
        best = d.argmin(axis=1)
        prob = np.full((len(X), self.n_classes),
                       0.1 / (self.n_classes - 1))
        prob[np.arange(len(X)), best] = 0.9
        return prob

    def staged_predict_proba(self, X, stages):
        return [self.predict_proba(X)] * len(stages)


def nested_fixture(rng, n=80):
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    y = rng.integers(0, 3, size=n)
    X = centers[y] + rng.normal(size=(n, 2)) * 0.5
    return X, y


def test_nested_cv_structure(rng):
    X, y = nested_fixture(rng)
    plan = ev.make_cv_plan(y, k_outer=4, k_inner=3, seed=1)
    grid = [{"sharpness": 1.0}, {"sharpness": 2.0}]
    factory = lambda params, seed: CentroidModel(**params)
    doc, curves = ev.nested_cv(X, y, factory, grid, plan, ("a", "b", "c"))
    assert len(doc["outer"]) == 4
    for fold in doc["outer"]:
        assert fold["chosen_params"] == grid[fold["chosen_index"]]
        assert len(fold["inner_mean_scores"]) == 2
    # every record scored by the fold that held it out
    assert sum(map(sum, doc["pooled"]["confusion"])) == len(y)
    assert doc["pooled"]["overall"]["mean_score"] > 0.8
    assert list(curves) == ["a", "b", "c"]


def test_nested_cv_tie_takes_first_grid_point(rng):
    X, y = nested_fixture(rng, n=40)
    plan = ev.make_cv_plan(y, k_outer=3, k_inner=2, seed=4)
    grid = [{"sharpness": 5.0}, {"sharpness": 5.0}]
    factory = lambda params, seed: CentroidModel(**params)
    doc, _ = ev.nested_cv(X, y, factory, grid, plan, ("a", "b", "c"))
    for fold in doc["outer"]:
        assert fold["chosen_index"] == 0


def test_nested_cv_workers_equivalent(rng):
    X, y = nested_fixture(rng, n=60)
    plan = ev.make_cv_plan(y, k_outer=3, k_inner=2, seed=5)
    grid = [{"sharpness": 1.0}, {"sharpness": 3.0}]
    factory = lambda params, seed: CentroidModel(**params)
    serial = ev.nested_cv(X, y, factory, grid, plan, ("a", "b", "c"),
                          workers=1)
    parallel = ev.nested_cv(X, y, factory, grid, plan, ("a", "b", "c"),
                            workers=4)
    assert serial == parallel


def test_one_point_grid_runs_only_the_refits(rng):
    X, y = nested_fixture(rng, n=48)
    plan = ev.make_cv_plan(y, k_outer=3, k_inner=2, seed=7)
    rf = ModelFactory("rf", 3, {"n_estimators": 3})
    point = {"max_depth": 2}
    calls = []

    def counting(params, seed):
        calls.append(seed)
        return rf(params, seed)

    one, one_curves = ev.nested_cv(X, y, counting, [point], plan,
                                   ("a", "b", "c"))
    assert calls == [derive_seed(plan.seed, "outer", f, "refit")
                     for f in range(plan.k_outer)]
    # [p, p] searches the inner folds, then refits p on the same seeds
    two, two_curves = ev.nested_cv(X, y, rf, [point, dict(point)], plan,
                                   ("a", "b", "c"))
    assert one["pooled"] == two["pooled"] and one_curves == two_curves
    for a, b in zip(one["outer"], two["outer"]):
        assert a["report"] == b["report"]
        assert a["chosen_params"] == b["chosen_params"] == point
        assert a["chosen_index"] == 0 and a["inner_mean_scores"] == []
        assert len(b["inner_mean_scores"]) == 2


def test_equal_models_tie_and_the_first_point_wins(rng):
    # two spellings of one model: they share every inner seed, so they
    # score alike, and the tie goes to the earlier point
    X, y = nested_fixture(rng, n=48)
    plan = ev.make_cv_plan(y, k_outer=3, k_inner=2, seed=7)
    rf = ModelFactory("rf", 3, {"n_estimators": 3})
    grid = [{"max_depth": 2, "n_estimators": 3}, {"max_depth": 2}]
    doc, _ = ev.nested_cv(X, y, rf, grid, plan, ("a", "b", "c"),
                          stages=KINDS["rf"].stages)
    for fold in doc["outer"]:
        first, second = fold["inner_mean_scores"]
        assert first == second and fold["chosen_index"] == 0


def test_stage_groups_share_a_fit_across_stage_fields_only():
    grid = [{"n_estimators": 5, "max_depth": 2, "lr": 0.1},
            {"n_estimators": 10, "max_depth": 2, "lr": 0.1},
            {"n_estimators": 5, "max_depth": 4, "lr": 0.2},
            {"n_estimators": True, "max_depth": 3, "lr": 0.1},
            {"max_depth": 7, "n_estimators": 3, "lr": 0.1},
            {"max_depth": 1, "lr": 0.1}]
    assert ev._stage_groups(grid, ("n_estimators", "max_depth")) == [
        ([0, 1, 4], {"lr": 0.1, "n_estimators": 10, "max_depth": 7},
         ({"n_estimators": 5, "max_depth": 2},
          {"n_estimators": 10, "max_depth": 2},
          {"max_depth": 7, "n_estimators": 3})),
        ([2], {"lr": 0.2, "n_estimators": 5, "max_depth": 4},
         ({"n_estimators": 5, "max_depth": 4},)),
        # a bool is no stage value: the point is fit as given
        ([3], {"n_estimators": True, "lr": 0.1, "max_depth": 3},
         ({"max_depth": 3},)),
        ([5], {"lr": 0.1, "max_depth": 1}, ({"max_depth": 1},)),
    ]
    # with no stage fields only equal points share a fit
    assert [points for points, _, _ in ev._stage_groups(
        grid[:2] + grid[:1], ())] == [[0, 2], [1]]


def test_one_worker_fits_on_the_calling_thread(rng):
    X, y = nested_fixture(rng, n=40)
    plan = ev.make_cv_plan(y, k_outer=3, k_inner=2, seed=3)
    threads = []

    def factory(params, seed):
        threads.append(threading.get_ident())
        return CentroidModel(**params)

    ev.nested_cv(X, y, factory, [{"sharpness": 1.0}, {"sharpness": 2.0}],
                 plan, ("a", "b", "c"), workers=1)
    assert threads == [threading.get_ident()] * (3 * 2 * 2 + 3)


def test_nested_cv_to_dict_shape(rng):
    X, y = nested_fixture(rng, n=40)
    plan = ev.make_cv_plan(y, k_outer=3, k_inner=2, seed=6)
    factory = lambda params, seed: CentroidModel(**params)
    doc, _ = ev.nested_cv(X, y, factory, [{"sharpness": 1.0}], plan,
                          ("a", "b", "c"))
    assert set(doc) == {"k_outer", "k_inner", "seed", "outer", "pooled"}
    assert (doc["k_outer"], doc["k_inner"], doc["seed"]) == (3, 2, 6)
    assert len(doc["outer"]) == 3
    for fold_doc in doc["outer"]:
        assert set(fold_doc) == {"fold", "chosen_index", "chosen_params",
                                 "inner_mean_scores", "report"}


class RecordingModel(CentroidModel):
    """CentroidModel on columns 1: that logs (seed, trained rows, scored
    rows); column 0 holds each row's index."""

    def __init__(self, log, seed):
        super().__init__(sharpness=1.0)
        self.log, self.seed = log, seed

    def fit(self, X, y):
        self.trained = frozenset(X[:, 0].astype(int).tolist())
        return super().fit(X[:, 1:], y)

    def predict_proba(self, X):
        self.log.append((self.seed, self.trained,
                         frozenset(X[:, 0].astype(int).tolist())))
        return super().predict_proba(X[:, 1:])


@pytest.mark.parametrize("workers", [1, 2])
def test_nested_cv_fits_get_their_rows_and_seeds(rng, workers):
    X, y = nested_fixture(rng, n=48)
    k, m = 3, 2
    grid = [{"sharpness": 1.0}, {"sharpness": 2.0}]
    plan = ev.make_cv_plan(y, k_outer=k, k_inner=m, seed=8)
    log = []
    ev.nested_cv(np.column_stack([np.arange(len(y)), X]), y,
                 lambda params, seed: RecordingModel(log, seed), grid, plan,
                 ("a", "b", "c"), workers=workers)
    # every grid point's inner fit (f, i) has the one seed of (f, i)
    fits = {}
    for seed, trained, scored in log:
        fits.setdefault(seed, []).append((trained, scored))
    assert len(log) == k * len(grid) * m + k
    assert len(fits) == k * m + k
    for f in range(k):
        test = frozenset(np.flatnonzero(plan.outer == f).tolist())
        inner = plan.inner[f]
        for i in range(m):
            points = fits.pop(derive_seed(plan.seed, "outer", f, "inner", i))
            assert len(points) == len(grid)
            for trained, scored in points:
                assert scored == frozenset(np.flatnonzero(inner == i).tolist())
                assert not trained & test and not trained & scored
        (trained, scored), = fits.pop(derive_seed(plan.seed, "outer", f,
                                                  "refit"))
        assert scored == test
        assert not trained & test
    assert not fits


def test_fit_task_pickles_to_the_same_probabilities(rng):
    X, y = nested_fixture(rng, n=40)
    factory = ModelFactory("rf", 3, {"n_estimators": 3, "max_depth": 3})
    task = ev.FitTask("outer fold 0, refit", {"max_depth": 2}, 11,
                      np.arange(30), np.arange(30, 40))
    copy = pickle.loads(pickle.dumps(task))
    assert copy.where == task.where and copy.seed == task.seed
    (proba,) = ev._fit_predict(X, y, factory, task)
    (again,) = ev._fit_predict(X, y, factory, copy)
    assert proba.tobytes() == again.tobytes()


class FailingModel(CentroidModel):
    """CentroidModel whose fit raises error, unless error is None."""

    def __init__(self, error):
        super().__init__(sharpness=1.0)
        self.error = error

    def fit(self, X, y):
        if self.error is not None:
            raise self.error
        return super().fit(X, y)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("keys, where", [
    # both grid points share this seed, and the first fails first
    (("outer", 1, "inner", 1), "outer fold 1, grid point 0, inner fold 1: "),
    (("outer", 2, "refit"), "outer fold 2, refit: "),
])
def test_nested_cv_divergence_names_its_fit(rng, workers, keys, where):
    X, y = nested_fixture(rng, n=48)
    plan = ev.make_cv_plan(y, k_outer=3, k_inner=2, seed=9)
    bad = derive_seed(plan.seed, *keys)
    with pytest.raises(TrainingDivergedError) as info:
        ev.nested_cv(X, y, lambda params, seed: FailingModel(
                         TrainingDivergedError("non-finite loss at epoch 1")
                         if seed == bad else None),
                     [{"sharpness": 1.0}, {"sharpness": 2.0}], plan,
                     ("a", "b", "c"), workers=workers)
    assert str(info.value) == where + "non-finite loss at epoch 1"


def test_shared_fit_divergence_names_every_point(rng):
    X, y = nested_fixture(rng, n=48)
    plan = ev.make_cv_plan(y, k_outer=3, k_inner=2, seed=9)
    with pytest.raises(TrainingDivergedError) as info:
        ev.nested_cv(X, y, lambda params, seed: FailingModel(
                         TrainingDivergedError("non-finite loss at epoch 1")),
                     [{"epochs": 2}, {"epochs": 4}], plan, ("a", "b", "c"),
                     stages=("epochs",))
    assert str(info.value) == ("outer fold 0, grid points [0, 1], inner "
                               "fold 0: non-finite loss at epoch 1")


def test_nested_cv_data_error_names_its_fit(rng):
    X, y = nested_fixture(rng, n=48)
    plan = ev.make_cv_plan(y, k_outer=3, k_inner=2, seed=9)
    bad = derive_seed(plan.seed, "outer", 1, "refit")
    with pytest.raises(DataError) as info:
        ev.nested_cv(X, y, lambda params, seed: FailingModel(
                         DataError("class 2 has no samples")
                         if seed == bad else None),
                     [{"sharpness": 1.0}], plan, ("a", "b", "c"))
    assert str(info.value) == "outer fold 1, refit: class 2 has no samples"


# --- ensemble disagreement ---

def test_disagreement_partition(rng):
    y = rng.integers(0, 3, size=30)
    preds = {
        "m1": y.copy(),
        "m2": y.copy(),
        "m3": y.copy(),
    }
    preds["m2"][5] = (y[5] + 1) % 3       # record 5 mixed
    for m in preds.values():
        m[7] = (y[7] + 1) % 3             # record 7 all wrong
    doc = ev.ensemble_disagreement(preds, y)
    assert 5 in doc["mixed"]
    assert 7 in doc["all_wrong"]
    assert 5 not in doc["all_correct"]
    partition = (set(doc["all_correct"]) | set(doc["mixed"])
                 | set(doc["all_wrong"]))
    assert partition == set(range(30))
    assert len(doc["all_correct"]) + len(doc["mixed"]) + \
        len(doc["all_wrong"]) == 30
    detail_ids = [d["index"] for d in doc["detail"]]
    assert detail_ids == doc["all_wrong"]
    assert doc["detail"][0]["true"] == y[7]


def test_disagreement_matches_brute_force(rng):
    y = rng.integers(0, 2, size=25)
    preds = {f"m{i}": rng.integers(0, 2, size=25) for i in range(3)}
    doc = ev.ensemble_disagreement(preds, y)
    for r in range(25):
        oks = [preds[m][r] == y[r] for m in preds]
        if all(oks):
            assert r in doc["all_correct"]
        elif not any(oks):
            assert r in doc["all_wrong"]
        else:
            assert r in doc["mixed"]
    assert doc["model_names"] == ["m0", "m1", "m2"]
