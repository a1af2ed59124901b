"""Multiclass metrics, precision-recall curves, stratified and nested
cross-validation, and model-disagreement reporting.

Per-class scores use one-vs-all binarization. Any metric whose
denominator vanishes is reported as 0 and named in the report's
degenerate list, so report shapes stay stable across folds.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models import TrainingDivergedError
from .seqio import DataError
from .util import atomic_write_text, derive_seed


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: tuple          # rows = true class, columns = predicted
    class_names: tuple

    def __post_init__(self):
        c = len(self.class_names)
        if len(self.counts) != c or any(len(r) != c for r in self.counts):
            raise ValueError("counts must be square over class_names")

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.array.sum())


def label_indices(values, class_names) -> np.ndarray:
    """Class index per label; a label may be a class name or an integer
    index. Raises DataError for a label outside class_names."""
    index = {name: i for i, name in enumerate(class_names)}
    c = len(class_names)
    out = np.empty(len(values), dtype=np.intp)
    for pos, v in enumerate(values):
        if v in index:
            out[pos] = index[v]
        elif isinstance(v, (int, np.integer)) and 0 <= v < c:
            out[pos] = int(v)
        else:
            raise DataError(f"unknown label {v!r}")
    return out


def confusion(y_true, y_pred, class_names) -> ConfusionMatrix:
    """Tally counts[i][j] = #(true=i, predicted=j). Labels may be class
    names or integer indices."""
    y_true = list(y_true)
    y_pred = list(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred lengths differ")
    class_names = tuple(class_names)
    ti = label_indices(y_true, class_names)
    pi = label_indices(y_pred, class_names)
    c = len(class_names)
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (ti, pi), 1)
    return ConfusionMatrix(counts=tuple(tuple(int(v) for v in row)
                                        for row in counts),
                           class_names=class_names)


def _binary_stats(cm: ConfusionMatrix):
    m = cm.array.astype(np.float64)
    s = m.sum()
    tp = np.diag(m)
    fp = m.sum(axis=0) - tp
    fn = m.sum(axis=1) - tp
    tn = s - tp - fp - fn
    return tp, fp, fn, tn


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    ok = den != 0
    out[ok] = num[ok] / den[ok]
    return out


def per_class_precision(cm: ConfusionMatrix) -> np.ndarray:
    tp, fp, _, _ = _binary_stats(cm)
    return _safe_div(tp, tp + fp)


def per_class_recall(cm: ConfusionMatrix) -> np.ndarray:
    tp, _, fn, _ = _binary_stats(cm)
    return _safe_div(tp, tp + fn)


def per_class_f1(cm: ConfusionMatrix) -> np.ndarray:
    """One-vs-all F1 per class; zero denominators yield 0."""
    tp, fp, fn, _ = _binary_stats(cm)
    return _safe_div(2 * tp, 2 * tp + fp + fn)


def per_class_mcc(cm: ConfusionMatrix) -> np.ndarray:
    """One-vs-all Matthews correlation per class; zero denominators
    yield 0."""
    tp, fp, fn, tn = _binary_stats(cm)
    den = np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return _safe_div(tp * tn - fp * fn, den)


def overall_mcc(cm: ConfusionMatrix) -> float:
    """Multiclass Matthews correlation computed on the whole matrix."""
    m = cm.array.astype(np.float64)
    s = m.sum()
    if s < 1:
        raise ValueError("confusion matrix is empty")
    c = np.trace(m)
    p = m.sum(axis=0)
    t = m.sum(axis=1)
    num = c * s - (p * t).sum()
    r1 = s * s - (p * p).sum()
    r2 = s * s - (t * t).sum()
    if r1 <= 0 or r2 <= 0:
        return 0.0
    return float(num / (np.sqrt(r1) * np.sqrt(r2)))


@dataclass(frozen=True)
class PrCurve:
    points: tuple          # (recall, precision), descending threshold
    positive_count: int


def pr_curve(scores, y) -> PrCurve:
    """One point per distinct score, descending; tied scores share a
    point. Needs at least one positive record."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y).astype(bool)
    if scores.shape != y.shape or scores.ndim != 1:
        raise ValueError("scores and y must be equal-length vectors")
    positives = int(y.sum())
    if positives == 0:
        raise ValueError("no positive records")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    hits = y[order].astype(np.int64)
    ends = np.flatnonzero(np.diff(s) != 0)
    ends = np.append(ends, s.size - 1)
    tp = np.cumsum(hits)[ends]
    seen = ends + 1
    precision = tp / seen
    recall = tp / positives
    points = tuple((float(r), float(p)) for r, p in zip(recall, precision))
    return PrCurve(points=points, positive_count=positives)


def average_precision(curve: PrCurve) -> float:
    """Step sum AP = sum_n (R_n - R_{n-1}) * P_n with R_0 = 0."""
    ap = 0.0
    prev = 0.0
    for recall, precision in curve.points:
        ap += (recall - prev) * precision
        prev = recall
    return float(ap)


def _check_prob_matrix(prob, n_rows=None) -> np.ndarray:
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2:
        raise ValueError("probability matrix must be 2-D")
    if n_rows is not None and prob.shape[0] != n_rows:
        raise ValueError("probability rows do not match label count")
    if not np.allclose(prob.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("probability rows must sum to 1")
    return prob


def micro_metrics(prob_matrix, y_true) -> dict:
    """Pooled one-vs-all F1 (argmax predictions) and pooled AP over the
    flattened (record, class) binary problem."""
    y_true = np.asarray(y_true)
    prob = _check_prob_matrix(prob_matrix, y_true.shape[0])
    n, c = prob.shape
    if y_true.min() < 0 or y_true.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")
    pred = prob.argmax(axis=1)
    tp = float((pred == y_true).sum())
    fp = n - tp
    fn = n - tp
    micro_f1 = 2 * tp / (2 * tp + fp + fn) if n else 0.0
    onehot = np.zeros((n, c), dtype=bool)
    onehot[np.arange(n), y_true] = True
    curve = pr_curve(prob.ravel(), onehot.ravel())
    return {"micro_f1": float(micro_f1),
            "micro_aucpr": average_precision(curve)}


@dataclass(frozen=True)
class MetricsReport:
    class_names: tuple
    confusion: ConfusionMatrix
    per_class: dict        # name -> {precision, recall, f1, mcc, aucpr, prevalence}
    overall: dict          # micro_f1, micro_aucpr, overall_mcc, mean_score
    degenerate: tuple      # "<metric>:<class>" labels for zeroed cases


def compute_report(y_true, prob_matrix, class_names) -> MetricsReport:
    class_names = tuple(class_names)
    y_true = np.asarray(y_true)
    if y_true.size == 0:
        raise ValueError("no records to evaluate")
    prob = _check_prob_matrix(prob_matrix, y_true.shape[0])
    if prob.shape[1] != len(class_names):
        raise ValueError("probability columns do not match class_names")
    pred = prob.argmax(axis=1)
    cm = confusion(y_true, pred, class_names)
    tp, fp, fn, tn = _binary_stats(cm)
    precision = per_class_precision(cm)
    recall = per_class_recall(cm)
    f1 = per_class_f1(cm)
    mcc = per_class_mcc(cm)
    mcc_den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    s = cm.total
    support = cm.array.sum(axis=1)
    degenerate = []
    per_class = {}
    for i, name in enumerate(class_names):
        if tp[i] + fp[i] == 0:
            degenerate.append(f"precision:{name}")
        if tp[i] + fn[i] == 0:
            degenerate.append(f"recall:{name}")
        if 2 * tp[i] + fp[i] + fn[i] == 0:
            degenerate.append(f"f1:{name}")
        if mcc_den[i] == 0:
            degenerate.append(f"mcc:{name}")
        if support[i] > 0:
            aucpr = average_precision(pr_curve(prob[:, i], y_true == i))
        else:
            aucpr = 0.0
            degenerate.append(f"aucpr:{name}")
        per_class[name] = {
            "precision": float(precision[i]),
            "recall": float(recall[i]),
            "f1": float(f1[i]),
            "mcc": float(mcc[i]),
            "aucpr": aucpr,
            "prevalence": float(support[i] / s),
        }
    m = cm.array.astype(np.float64)
    p_tot, t_tot = m.sum(axis=0), m.sum(axis=1)
    if s * s - (p_tot * p_tot).sum() <= 0 or s * s - (t_tot * t_tot).sum() <= 0:
        degenerate.append("overall_mcc")
    omcc = overall_mcc(cm)
    micro = micro_metrics(prob, y_true)
    overall = {
        "micro_f1": micro["micro_f1"],
        "micro_aucpr": micro["micro_aucpr"],
        "overall_mcc": omcc,
        "mean_score": (micro["micro_f1"] + micro["micro_aucpr"] + omcc) / 3.0,
    }
    return MetricsReport(class_names=class_names, confusion=cm,
                         per_class=per_class, overall=overall,
                         degenerate=tuple(degenerate))


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "class_names": list(report.class_names),
        "confusion": [list(row) for row in report.confusion.counts],
        "per_class": {k: dict(v) for k, v in report.per_class.items()},
        "overall": dict(report.overall),
        "degenerate": list(report.degenerate),
    }


def per_class_pr_curves(y_true, prob_matrix, class_names) -> dict:
    """PrCurve per class, or None for a class with no positives."""
    y_true = np.asarray(y_true)
    prob = _check_prob_matrix(prob_matrix, y_true.shape[0])
    curves = {}
    for i, name in enumerate(class_names):
        mask = y_true == i
        curves[name] = pr_curve(prob[:, i], mask) if mask.any() else None
    return curves


def render_pr_curves_csv(curves: dict) -> str:
    lines = ["class,recall,precision"]
    for name, curve in curves.items():
        if curve is None:
            continue
        for recall, precision in curve.points:
            lines.append(f"{name},{recall!r},{precision!r}")
    return "\n".join(lines) + "\n"


def stratified_kfold(labels, k: int, seed: int) -> list:
    """Deal each class's shuffled indices round-robin into k folds.

    The dealing pointer continues across classes, so fold sizes stay
    within 1 of each other overall as well as per class.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError(f"k={k} exceeds record count {n}")
    rng = np.random.default_rng(derive_seed(seed, "kfold"))
    folds = [[] for _ in range(k)]
    pointer = 0
    for c in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == c))
        for i in idx:
            folds[pointer].append(int(i))
            pointer = (pointer + 1) % k
    return [np.array(sorted(f), dtype=np.intp) for f in folds]


@dataclass(frozen=True)
class CvPlan:
    """Outer and inner fold assignment for every record.

    outer[r] is the outer test fold of record r. inner[f][r] is record
    r's inner fold within outer-training split f, or -1 when r belongs
    to outer test fold f.
    """

    k_outer: int
    k_inner: int
    seed: int
    outer: tuple
    inner: tuple

    def __post_init__(self):
        n = len(self.outer)
        if len(self.inner) != self.k_outer:
            raise ValueError("inner assignments must cover every outer fold")
        if any(not 0 <= f < self.k_outer for f in self.outer):
            raise ValueError("outer fold index out of range")
        for f, assignment in enumerate(self.inner):
            if len(assignment) != n:
                raise ValueError("inner assignment length mismatch")
            for r, m in enumerate(assignment):
                in_test = self.outer[r] == f
                if in_test != (m == -1):
                    raise ValueError(
                        "inner assignment disagrees with outer folds")
                if m != -1 and not 0 <= m < self.k_inner:
                    raise ValueError("inner fold index out of range")

    def outer_test_indices(self, f: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.outer) == f)

    def outer_train_indices(self, f: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.outer) != f)


def make_cv_plan(labels, k_outer: int, k_inner: int, seed: int) -> CvPlan:
    labels = np.asarray(labels)
    n = labels.shape[0]
    outer_folds = stratified_kfold(labels, k_outer, derive_seed(seed, "outer"))
    outer = np.empty(n, dtype=np.int64)
    for f, idx in enumerate(outer_folds):
        outer[idx] = f
    inner = []
    for f in range(k_outer):
        train = np.flatnonzero(outer != f)
        sub_folds = stratified_kfold(labels[train], k_inner,
                                     derive_seed(seed, "inner", f))
        assignment = np.full(n, -1, dtype=np.int64)
        for m, sub in enumerate(sub_folds):
            assignment[train[sub]] = m
        inner.append(tuple(int(v) for v in assignment))
    return CvPlan(k_outer=k_outer, k_inner=k_inner, seed=seed,
                  outer=tuple(int(v) for v in outer), inner=tuple(inner))


def plan_to_dict(plan: CvPlan) -> dict:
    return {"k_outer": plan.k_outer, "k_inner": plan.k_inner,
            "seed": plan.seed, "outer": list(plan.outer),
            "inner": [list(a) for a in plan.inner]}


def plan_from_dict(doc: dict) -> CvPlan:
    return CvPlan(k_outer=int(doc["k_outer"]), k_inner=int(doc["k_inner"]),
                  seed=int(doc["seed"]),
                  outer=tuple(int(v) for v in doc["outer"]),
                  inner=tuple(tuple(int(v) for v in a)
                              for a in doc["inner"]))


def save_plan(plan: CvPlan, path) -> None:
    atomic_write_text(path, json.dumps(plan_to_dict(plan), sort_keys=True,
                                       indent=2) + "\n")


def load_plan(path) -> CvPlan:
    with open(path, encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh))


@dataclass(frozen=True)
class OuterFoldResult:
    fold: int
    chosen_index: int
    chosen_params: dict
    inner_mean_scores: tuple
    report: MetricsReport


@dataclass(frozen=True)
class NestedCvResult:
    plan: CvPlan
    outer: tuple           # OuterFoldResult per outer fold
    pooled_report: MetricsReport
    y_true: np.ndarray
    pooled_proba: np.ndarray


def _inner_mean_score(inputs, labels, model_factory, params, plan,
                      fold, grid_index, class_names) -> float:
    assignment = np.asarray(plan.inner[fold])
    scores = []
    for m in range(plan.k_inner):
        tr = np.flatnonzero((assignment != -1) & (assignment != m))
        va = np.flatnonzero(assignment == m)
        seed = derive_seed(plan.seed, "outer", fold, "grid", grid_index,
                           "inner", m)
        try:
            model = model_factory(params, seed)
            model.fit(inputs[tr], labels[tr])
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(
                f"outer fold {fold}, grid point {grid_index}, "
                f"inner fold {m}: {exc}") from exc
        report = compute_report(labels[va], model.predict_proba(inputs[va]),
                                class_names)
        scores.append(report.overall["mean_score"])
    return float(np.mean(scores))


def nested_cv(inputs, labels, model_factory, grid, plan: CvPlan,
              class_names, workers: int = 1) -> NestedCvResult:
    """Grid search in the inner folds, refit on each outer-training
    split, evaluate once on each outer test fold.

    model_factory(params, seed) must return an object with fit(X, y)
    and predict_proba(X). Ties on inner mean score go to the earlier
    grid point. The pooled report covers every record exactly once, and
    results do not depend on the worker count.
    """
    inputs = np.asarray(inputs)
    labels = np.asarray(labels)
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    if len(plan.outer) != labels.shape[0]:
        raise ValueError("plan does not match dataset size")
    class_names = tuple(class_names)

    tasks = [(f, j) for f in range(plan.k_outer) for j in range(len(grid))]

    def run(task):
        f, j = task
        return _inner_mean_score(inputs, labels, model_factory, grid[j],
                                 plan, f, j, class_names)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(run, tasks))
    else:
        flat = [run(t) for t in tasks]
    score_table = np.asarray(flat).reshape(plan.k_outer, len(grid))

    n, c = labels.shape[0], len(class_names)
    pooled = np.zeros((n, c))
    outer_results = []
    for f in range(plan.k_outer):
        scores = score_table[f]
        best = int(max(range(len(grid)), key=lambda j: scores[j]))
        train = plan.outer_train_indices(f)
        test = plan.outer_test_indices(f)
        seed = derive_seed(plan.seed, "outer", f, "refit")
        try:
            model = model_factory(grid[best], seed)
            model.fit(inputs[train], labels[train])
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(
                f"outer fold {f}, refit: {exc}") from exc
        proba = model.predict_proba(inputs[test])
        pooled[test] = proba
        outer_results.append(OuterFoldResult(
            fold=f, chosen_index=best, chosen_params=dict(grid[best]),
            inner_mean_scores=tuple(float(s) for s in scores),
            report=compute_report(labels[test], proba, class_names)))
    pooled_report = compute_report(labels, pooled, class_names)
    return NestedCvResult(plan=plan, outer=tuple(outer_results),
                          pooled_report=pooled_report, y_true=labels,
                          pooled_proba=pooled)


def nested_cv_to_dict(result: NestedCvResult) -> dict:
    return {
        "k_outer": result.plan.k_outer,
        "k_inner": result.plan.k_inner,
        "seed": result.plan.seed,
        "outer": [{
            "fold": r.fold,
            "chosen_index": r.chosen_index,
            "chosen_params": r.chosen_params,
            "inner_mean_scores": list(r.inner_mean_scores),
            "report": report_to_dict(r.report),
        } for r in result.outer],
        "pooled": report_to_dict(result.pooled_report),
    }


@dataclass(frozen=True)
class DisagreementReport:
    model_names: tuple
    all_correct: tuple     # record indices every model got right
    mixed: tuple
    all_wrong: tuple
    detail: tuple          # per all-wrong record: index, true, predictions


def ensemble_disagreement(predictions: dict, y_true) -> DisagreementReport:
    """Partition records by how many models predicted them correctly."""
    y_true = np.asarray(y_true)
    names = tuple(predictions.keys())
    if not names:
        raise ValueError("need at least one model")
    preds = {}
    for name in names:
        p = np.asarray(predictions[name])
        if p.shape != y_true.shape:
            raise ValueError(f"prediction length mismatch for {name!r}")
        preds[name] = p
    correct = np.stack([preds[name] == y_true for name in names])
    n_correct = correct.sum(axis=0)
    all_correct = tuple(int(i) for i in np.flatnonzero(n_correct == len(names)))
    all_wrong = tuple(int(i) for i in np.flatnonzero(n_correct == 0))
    mixed = tuple(int(i) for i in np.flatnonzero(
        (n_correct > 0) & (n_correct < len(names))))
    detail = tuple({"index": i,
                    "true": y_true[i].item(),
                    "predictions": {name: preds[name][i].item()
                                    for name in names}}
                   for i in all_wrong)
    return DisagreementReport(model_names=names, all_correct=all_correct,
                              mixed=mixed, all_wrong=all_wrong, detail=detail)


def disagreement_to_dict(report: DisagreementReport) -> dict:
    return {"model_names": list(report.model_names),
            "all_correct": list(report.all_correct),
            "mixed": list(report.mixed),
            "all_wrong": list(report.all_wrong),
            "detail": list(report.detail)}
