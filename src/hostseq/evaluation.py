"""Multiclass metrics, precision-recall curves, stratified and nested
cross-validation, and model-disagreement reporting.

Per-class scores use one-vs-all binarization. Any metric whose
denominator vanishes is reported as 0 and named in the report's
degenerate list, so report shapes stay stable across folds.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .models import TrainingDivergedError
from .util import DataError, derive_seed, located


def label_indices(names, class_names) -> np.ndarray:
    """Class index per label name. Raises DataError for a name outside
    class_names."""
    index = {name: i for i, name in enumerate(class_names)}
    try:
        return np.array([index[name] for name in names], dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"unknown label {exc.args[0]!r}") from None


def confusion(y_true, y_pred, n_classes: int) -> np.ndarray:
    """The (c, c) int64 counts[i, j] = #(true=i, predicted=j) over class
    index arrays."""
    y_true = np.asarray(y_true, dtype=np.intp)
    y_pred = np.asarray(y_pred, dtype=np.intp)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred lengths differ")
    c = n_classes
    if y_true.size and (min(y_true.min(), y_pred.min()) < 0
                        or max(y_true.max(), y_pred.max()) >= c):
        raise ValueError(f"labels must lie in [0, {c})")
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return counts


def per_class_metrics(counts) -> dict:
    """One-vs-all precision, recall, F1 and Matthews correlation per
    class of a confusion count array: metric name -> (values, mask of
    zero denominators). A metric whose denominator is zero reads 0."""
    m = np.asarray(counts, dtype=np.float64)
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


def overall_mcc(counts) -> tuple:
    """Gorodkin's K-category correlation over a whole confusion count
    array, as (value, degenerate). It is degenerate, and reads 0, when
    all true or all predicted labels fall in one class."""
    m = np.asarray(counts, dtype=np.float64)
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


def _check_prob_matrix(prob, n_rows: int) -> np.ndarray:
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2:
        raise ValueError("probability matrix must be 2-D")
    if prob.shape[0] != n_rows:
        raise ValueError("probability rows do not match label count")
    if not np.allclose(prob.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("probability rows must sum to 1")
    return prob


def micro_metrics(prob_matrix, y_true) -> dict:
    """Pooled one-vs-all F1 of argmax predictions, which is accuracy
    because each miss is one false positive and one false negative, and
    pooled AP over the flattened (record, class) binary problem. It
    does not check its inputs; compute_report does."""
    prob = np.asarray(prob_matrix, dtype=np.float64)
    y_true = np.asarray(y_true)
    n, c = prob.shape
    onehot = np.zeros((n, c), dtype=bool)
    onehot[np.arange(n), y_true] = True
    curve = pr_curve(prob.ravel(), onehot.ravel())
    return {"micro_f1": float((prob.argmax(axis=1) == y_true).mean()),
            "micro_aucpr": average_precision(curve)}


def compute_report(y_true, prob_matrix, class_names) -> tuple:
    """Scores of the argmax predictions of prob_matrix against class
    indices y_true, as (doc, curves): the metrics.json document (class
    names, confusion counts, per_class and overall scores, degenerate
    flags) and the pr_curve points of each class with positives. A
    metric with a zero denominator reads 0 and is flagged in degenerate:
    per class in the order precision, recall, f1, mcc, aucpr, then
    overall_mcc."""
    class_names = list(class_names)
    y_true = np.asarray(y_true)
    if y_true.size == 0:
        raise ValueError("no records to evaluate")
    prob = _check_prob_matrix(prob_matrix, y_true.shape[0])
    if prob.shape[1] != len(class_names):
        raise ValueError("probability columns do not match class_names")
    counts = confusion(y_true, prob.argmax(axis=1), len(class_names))
    stats = per_class_metrics(counts)
    support = counts.sum(axis=1)
    prevalence = support / counts.sum()
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
    omcc, omcc_zero = overall_mcc(counts)
    if omcc_zero:
        degenerate.append("overall_mcc")
    micro = micro_metrics(prob, y_true)
    overall = {
        "micro_f1": micro["micro_f1"],
        "micro_aucpr": micro["micro_aucpr"],
        "overall_mcc": omcc,
        "mean_score": (micro["micro_f1"] + micro["micro_aucpr"] + omcc) / 3.0,
    }
    doc = {"class_names": class_names, "confusion": counts.tolist(),
           "per_class": per_class, "overall": overall,
           "degenerate": degenerate}
    return doc, curves


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


class CvPlan(NamedTuple):
    """Outer and inner fold assignment for every record.

    outer[r] is the outer test fold of record r. inner[f, r] is record
    r's inner fold within outer-training split f, or -1 when r belongs
    to outer test fold f.
    """

    k_outer: int
    k_inner: int
    seed: int
    outer: np.ndarray      # (n,) int64
    inner: np.ndarray      # (k_outer, n) int64


def make_cv_plan(labels, k_outer: int, k_inner: int, seed: int) -> CvPlan:
    labels = np.asarray(labels)
    n = labels.shape[0]
    outer_folds = stratified_kfold(labels, k_outer, derive_seed(seed, "outer"))
    outer = np.empty(n, dtype=np.int64)
    for f, idx in enumerate(outer_folds):
        outer[idx] = f
    inner = np.full((k_outer, n), -1, dtype=np.int64)
    for f in range(k_outer):
        train = np.flatnonzero(outer != f)
        sub_folds = stratified_kfold(labels[train], k_inner,
                                     derive_seed(seed, "inner", f))
        for m, sub in enumerate(sub_folds):
            inner[f, train[sub]] = m
    return CvPlan(k_outer, k_inner, seed, outer, inner)


class FitTask(NamedTuple):
    """One nested-CV fit: the model built from params and seed, fit on
    train and scoring scored once per stage (see _fit_predict); where
    names it in a divergence or data error message."""
    where: str
    params: dict
    seed: int
    train: np.ndarray
    scored: np.ndarray
    stages: tuple = ({},)


def _fit_predict(inputs, labels, model_factory, task: FitTask) -> list:
    """Probabilities of task.scored from one model fit on task.train, one
    matrix per stage of task.stages, through the model's
    staged_predict_proba."""
    with located(task.where, (TrainingDivergedError, DataError)):
        model = model_factory(task.params, task.seed)
        model.fit(inputs[task.train], labels[task.train])
    return model.staged_predict_proba(inputs[task.scored], task.stages)


def _stage_groups(grid, stages) -> list:
    """The grid's points grouped by one shared fit: points whose params
    differ only in the values of the stage fields stages. A stage value
    is a positive int; any other value stays with the point's other
    params. Per group, in the order of its first point: its point
    indices, the params it fits (the shared ones, and each stage field
    at the group's largest value) and each point's stage dict."""
    groups = {}
    for j, params in enumerate(grid):
        stage = {k: v for k, v in params.items()
                 if k in stages and type(v) is int and v > 0}
        rest = {k: v for k, v in params.items() if k not in stage}
        points, _, staged = groups.setdefault(
            repr((sorted(rest.items()), sorted(stage))), ([], rest, []))
        points.append(j)
        staged.append(stage)
    return [(points, {**rest, **{k: max(s[k] for s in staged)
                                 for k in staged[0]}}, tuple(staged))
            for points, rest, staged in groups.values()]


def nested_cv(inputs, labels, model_factory, grid, plan: CvPlan,
              class_names, workers: int = 1, stages=()) -> tuple:
    """Grid search in the inner folds, refit on each outer-training
    split, evaluate once on each outer test fold. Returns the metrics.json
    document (the plan's sizes and seed, per outer fold its chosen grid
    point, inner mean scores and report, and the pooled report) and the
    pooled report's PR curves.

    model_factory(params, seed) must return a util.Estimator, or an
    object with its fit(X, y) and staged_predict_proba(X, stages), which
    scores every fit (a refit at the one stage {}); stages names its
    stage fields (estimators.Kind.stages; a net has none). Grid points
    that differ only in stage fields share one inner fit per fold, at
    the largest value of each (_stage_groups), which scores every point
    of the group. Inner fit (f, m) is seeded by the outer fold f and
    inner fold m alone, so every grid point is scored on the same
    bootstraps and draws, and a shared fit scores a point as its own fit
    would. Every fit is one task: all inner fits first, then the outer
    refits. With workers > 1 the tasks share one pool of workers
    threads; with one worker they run in order on the calling thread.
    Ties on inner mean score go to the earlier grid point. A one-point
    grid runs no inner search, because inner fits could not change the
    choice: each fold records chosen_index 0 and empty
    inner_mean_scores, and its refit is the same as after a search. The
    pooled report covers every record exactly once, and results do not
    depend on the worker count.
    """
    inputs = np.asarray(inputs)
    labels = np.asarray(labels)
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    if len(plan.outer) != labels.shape[0]:
        raise ValueError("plan does not match dataset size")
    fit = functools.partial(_fit_predict, inputs, labels, model_factory)
    searched = grid if len(grid) > 1 else []
    slots = list(itertools.product(range(plan.k_outer),
                                   _stage_groups(searched, stages),
                                   range(plan.k_inner)))
    inner = []
    for f, (points, params, staged), m in slots:
        fold = plan.inner[f]
        name = (f"grid point {points[0]}" if len(points) == 1
                else f"grid points {points}")
        inner.append(FitTask(f"outer fold {f}, {name}, inner fold {m}",
                             params,
                             derive_seed(plan.seed, "outer", f, "inner", m),
                             np.flatnonzero((fold != -1) & (fold != m)),
                             np.flatnonzero(fold == m), staged))
    scores = np.zeros((plan.k_outer, len(searched), plan.k_inner))
    with (ThreadPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        run = pool.map if pool else map
        for (f, (points, _, _), m), task, probas in zip(slots, inner,
                                                       run(fit, inner)):
            for j, proba in zip(points, probas):
                scores[f, j, m] = compute_report(
                    labels[task.scored], proba,
                    class_names)[0]["overall"]["mean_score"]
        score_table = scores.mean(axis=2)
        best = ([int(np.argmax(row)) for row in score_table] if searched
                else [0] * plan.k_outer)
        refits = [FitTask(f"outer fold {f}, refit", grid[best[f]],
                          derive_seed(plan.seed, "outer", f, "refit"),
                          np.flatnonzero(plan.outer != f),
                          np.flatnonzero(plan.outer == f))
                  for f in range(plan.k_outer)]
        refit_proba = [probas[0] for probas in run(fit, refits)]

    pooled = np.zeros((labels.shape[0], len(class_names)))
    outer = []
    for f, (task, proba) in enumerate(zip(refits, refit_proba)):
        pooled[task.scored] = proba
        outer.append({
            "fold": f, "chosen_index": best[f],
            "chosen_params": dict(task.params),
            "inner_mean_scores": [float(s) for s in score_table[f]],
            "report": compute_report(labels[task.scored], proba,
                                     class_names)[0]})
    pooled_doc, curves = compute_report(labels, pooled, class_names)
    return {"k_outer": plan.k_outer, "k_inner": plan.k_inner,
            "seed": plan.seed, "outer": outer, "pooled": pooled_doc}, curves


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
