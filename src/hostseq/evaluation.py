"""Multiclass metrics, precision-recall curves, stratified and nested
cross-validation, and model-disagreement reporting.

Per-class scores use one-vs-all binarization. Any metric whose
denominator vanishes is reported as 0 and named in the report's
degenerate list, so report shapes stay stable across folds.
"""

from __future__ import annotations

import functools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

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


def label_indices(names, class_names) -> np.ndarray:
    """Class index per label name. Raises DataError for a name outside
    class_names."""
    index = {name: i for i, name in enumerate(class_names)}
    try:
        return np.array([index[name] for name in names], dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"unknown label {exc.args[0]!r}") from None


def confusion(y_true, y_pred, class_names) -> ConfusionMatrix:
    """Tally counts[i][j] = #(true=i, predicted=j) over class index
    arrays."""
    y_true = np.asarray(y_true, dtype=np.intp)
    y_pred = np.asarray(y_pred, dtype=np.intp)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred lengths differ")
    class_names = tuple(class_names)
    c = len(class_names)
    if y_true.size and (min(y_true.min(), y_pred.min()) < 0
                        or max(y_true.max(), y_pred.max()) >= c):
        raise ValueError(f"labels must lie in [0, {c})")
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return ConfusionMatrix(counts=tuple(tuple(int(v) for v in row)
                                        for row in counts),
                           class_names=class_names)


def per_class_metrics(cm: ConfusionMatrix) -> dict:
    """One-vs-all precision, recall, F1 and Matthews correlation per
    class: metric name -> (values, mask of zero denominators). A metric
    whose denominator is zero reads 0."""
    m = cm.array.astype(np.float64)
    tp = np.diag(m)
    fp = m.sum(axis=0) - tp
    fn = m.sum(axis=1) - tp
    tn = m.sum() - tp - fp - fn
    table = {
        "precision": (tp, tp + fp),
        "recall": (tp, tp + fn),
        "f1": (2 * tp, 2 * tp + fp + fn),
        "mcc": (tp * tn - fp * fn,
                np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))),
    }
    metrics = {}
    for name, (num, den) in table.items():
        zero = den == 0
        metrics[name] = (np.divide(num, den, out=np.zeros_like(num),
                                   where=~zero), zero)
    return metrics


def overall_mcc(cm: ConfusionMatrix) -> tuple:
    """Gorodkin's K-category correlation over the whole matrix, as
    (value, degenerate). It is degenerate, and reads 0, when all true
    or all predicted labels fall in one class."""
    m = cm.array.astype(np.float64)
    s = m.sum()
    p = m.sum(axis=0)
    t = m.sum(axis=1)
    r1 = s * s - (p * p).sum()
    r2 = s * s - (t * t).sum()
    if r1 <= 0 or r2 <= 0:
        return 0.0, True
    num = np.trace(m) * s - (p * t).sum()
    return float(num / (np.sqrt(r1) * np.sqrt(r2))), False


def pr_curve(scores, y) -> tuple:
    """(recall, precision) points, one per distinct score, descending;
    tied scores share a point. Needs at least one positive record."""
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
    return tuple((float(r), float(p)) for r, p in zip(recall, precision))


def average_precision(points) -> float:
    """Step sum AP = sum_n (R_n - R_{n-1}) * P_n with R_0 = 0 over the
    points of pr_curve."""
    ap = 0.0
    prev = 0.0
    for recall, precision in points:
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
    """Pooled one-vs-all F1 of argmax predictions, which is accuracy
    because each miss is one false positive and one false negative, and
    pooled AP over the flattened (record, class) binary problem."""
    y_true = np.asarray(y_true)
    prob = _check_prob_matrix(prob_matrix, y_true.shape[0])
    n, c = prob.shape
    if y_true.min() < 0 or y_true.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")
    onehot = np.zeros((n, c), dtype=bool)
    onehot[np.arange(n), y_true] = True
    curve = pr_curve(prob.ravel(), onehot.ravel())
    return {"micro_f1": float((prob.argmax(axis=1) == y_true).mean()),
            "micro_aucpr": average_precision(curve)}


@dataclass(frozen=True)
class MetricsReport:
    class_names: tuple
    confusion: ConfusionMatrix
    per_class: dict        # name -> {precision, recall, f1, mcc, aucpr, prevalence}
    overall: dict          # micro_f1, micro_aucpr, overall_mcc, mean_score
    degenerate: tuple      # "<metric>:<class>" labels for zeroed cases
    pr_curves: dict        # name -> pr_curve points, classes with positives


def compute_report(y_true, prob_matrix, class_names) -> MetricsReport:
    """Scores of the argmax predictions of prob_matrix against class
    indices y_true. A metric with a zero denominator reads 0 and is
    flagged in degenerate: per class in the order precision, recall,
    f1, mcc, aucpr, then overall_mcc."""
    class_names = tuple(class_names)
    y_true = np.asarray(y_true)
    if y_true.size == 0:
        raise ValueError("no records to evaluate")
    prob = _check_prob_matrix(prob_matrix, y_true.shape[0])
    if prob.shape[1] != len(class_names):
        raise ValueError("probability columns do not match class_names")
    cm = confusion(y_true, prob.argmax(axis=1), class_names)
    stats = per_class_metrics(cm)
    support = cm.array.sum(axis=1)
    prevalence = support / cm.total
    degenerate = []
    per_class = {}
    curves = {}
    for i, name in enumerate(class_names):
        entry = {}
        for metric, (values, zero) in stats.items():
            entry[metric] = float(values[i])
            if zero[i]:
                degenerate.append(f"{metric}:{name}")
        if support[i] > 0:
            curves[name] = pr_curve(prob[:, i], y_true == i)
            entry["aucpr"] = average_precision(curves[name])
        else:
            entry["aucpr"] = 0.0
            degenerate.append(f"aucpr:{name}")
        entry["prevalence"] = float(prevalence[i])
        per_class[name] = entry
    omcc, omcc_zero = overall_mcc(cm)
    if omcc_zero:
        degenerate.append("overall_mcc")
    micro = micro_metrics(prob, y_true)
    overall = {
        "micro_f1": micro["micro_f1"],
        "micro_aucpr": micro["micro_aucpr"],
        "overall_mcc": omcc,
        "mean_score": (micro["micro_f1"] + micro["micro_aucpr"] + omcc) / 3.0,
    }
    return MetricsReport(class_names=class_names, confusion=cm,
                         per_class=per_class, overall=overall,
                         degenerate=tuple(degenerate), pr_curves=curves)


def report_to_dict(report: MetricsReport) -> dict:
    """The metrics.json document of a report; its PR curves go to
    pr_curves.csv instead."""
    return {
        "class_names": list(report.class_names),
        "confusion": [list(row) for row in report.confusion.counts],
        "per_class": {k: dict(v) for k, v in report.per_class.items()},
        "overall": dict(report.overall),
        "degenerate": list(report.degenerate),
    }


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


def save_plan(plan: CvPlan, path) -> None:
    atomic_write_text(path, json.dumps(plan_to_dict(plan), sort_keys=True,
                                       indent=2) + "\n")


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


class FitTask(NamedTuple):
    """One nested-CV fit: the model built from params and seed, fit on
    train and scoring scored; where names it in a divergence message."""
    where: str
    params: dict
    seed: int
    train: np.ndarray
    scored: np.ndarray


def _fit_predict(inputs, labels, model_factory, task: FitTask) -> np.ndarray:
    """Probabilities of task.scored from a model fit on task.train."""
    try:
        model = model_factory(task.params, task.seed)
        model.fit(inputs[task.train], labels[task.train])
    except TrainingDivergedError as exc:
        raise TrainingDivergedError(f"{task.where}: {exc}") from exc
    return model.predict_proba(inputs[task.scored])


def nested_cv(inputs, labels, model_factory, grid, plan: CvPlan,
              class_names, workers: int = 1) -> NestedCvResult:
    """Grid search in the inner folds, refit on each outer-training
    split, evaluate once on each outer test fold.

    model_factory(params, seed) must return an object with fit(X, y)
    and predict_proba(X). Every fit is one task on one pool of workers
    threads: all inner fits first, then the outer refits. Ties on inner
    mean score go to the earlier grid point. The pooled report covers
    every record exactly once, and results do not depend on the worker
    count.
    """
    inputs = np.asarray(inputs)
    labels = np.asarray(labels)
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    if len(plan.outer) != labels.shape[0]:
        raise ValueError("plan does not match dataset size")
    class_names = tuple(class_names)
    fit = functools.partial(_fit_predict, inputs, labels, model_factory)
    inner = [FitTask(f"outer fold {f}, grid point {j}, inner fold {m}",
                     params, derive_seed(plan.seed, "outer", f, "grid", j,
                                         "inner", m),
                     np.flatnonzero((a != -1) & (a != m)),
                     np.flatnonzero(a == m))
             for f, a in enumerate(np.asarray(plan.inner))
             for j, params in enumerate(grid) for m in range(plan.k_inner)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        scores = [compute_report(labels[task.scored], proba,
                                 class_names).overall["mean_score"]
                  for task, proba in zip(inner, pool.map(fit, inner))]
        score_table = np.mean(np.reshape(
            scores, (plan.k_outer, len(grid), plan.k_inner)), axis=2)
        best = [int(np.argmax(row)) for row in score_table]
        refits = [FitTask(f"outer fold {f}, refit", grid[best[f]],
                          derive_seed(plan.seed, "outer", f, "refit"),
                          plan.outer_train_indices(f),
                          plan.outer_test_indices(f))
                  for f in range(plan.k_outer)]
        refit_proba = list(pool.map(fit, refits))

    pooled = np.zeros((labels.shape[0], len(class_names)))
    outer_results = []
    for f, (task, proba) in enumerate(zip(refits, refit_proba)):
        pooled[task.scored] = proba
        outer_results.append(OuterFoldResult(
            fold=f, chosen_index=best[f], chosen_params=dict(task.params),
            inner_mean_scores=tuple(float(s) for s in score_table[f]),
            report=compute_report(labels[task.scored], proba, class_names)))
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


def ensemble_disagreement(predictions: dict, y_true) -> dict:
    """The disagreement.json document: record indices that every model
    (all_correct), some (mixed) or none (all_wrong) predicted correctly,
    and per all-wrong record its true label and every prediction."""
    y_true = np.asarray(y_true)
    names = list(predictions)
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
    all_wrong = [int(i) for i in np.flatnonzero(n_correct == 0)]
    return {
        "model_names": names,
        "all_correct": [int(i) for i in
                        np.flatnonzero(n_correct == len(names))],
        "mixed": [int(i) for i in np.flatnonzero(
            (n_correct > 0) & (n_correct < len(names)))],
        "all_wrong": all_wrong,
        "detail": [{"index": i,
                    "true": y_true[i].item(),
                    "predictions": {name: preds[name][i].item()
                                    for name in names}}
                   for i in all_wrong],
    }
