"""Tree-based classifiers: CART, bagged forests, and boosted
undersampling for imbalanced data.

Trees are grown greedily on Gini impurity with midpoint thresholds.
The split search is exact and vectorized over a column-major copy of
the training matrix, one feature per contiguous row, made once per
forest or boosting fit: each tree reads the distinct samples of its
bootstrap or subsample from it by index, each with a one-hot class row
scaled by its weight (a bootstrap row drawn k times weighs k). A node
puts a block of candidate features of its rows in sorted order, as
(columns, rows), and scores every cut point of the block from one 2-D
prefix-sum array per class. A boosting fit whose subsample is at
least a quarter of its rows sorts every feature once; each tree keeps
its rows of that order, and each node its own rows of the tree's.
Other nodes, a forest's among them (they scan few features), sort
their own. Split ties break toward the lowest threshold, then the
lowest feature index, so fits are reproducible.
Trees grow level by level, so a tree cut at depth d is the depth-d
fit, and an ensemble's first k trees or rounds are its k-tree fit:
staged_predict_proba scores such smaller settings from one fit. A
fitted tree is a set of flat numpy arrays. All randomness flows
through generators seeded with util.derive_seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import DataError, Estimator, check_signs, derive_seed


@dataclass(frozen=True)
class ForestConfig:
    n_estimators: int = 100
    max_depth: int = 10
    seed: int = 0

    def __post_init__(self):
        check_signs(self, positive=("n_estimators", "max_depth"))


@dataclass(frozen=True)
class RusBoostConfig:
    n_estimators: int = 50
    learning_rate: float = 0.1
    max_depth: int = 3
    seed: int = 0

    def __post_init__(self):
        check_signs(self, positive=("n_estimators", "learning_rate",
                                    "max_depth"))


@dataclass(eq=False)
class DecisionTree:
    """Flat node arrays; feature == -1 marks a leaf, whose threshold is
    nan and whose children are -1. counts holds every node's weighted
    class counts from the fit, internal nodes included."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    def leaf_distributions(self, X, depths=(None,)) -> list:
        """Per depth in depths, the class distribution of the node each
        row of X reaches: its node at that depth, or its leaf if the walk
        stops sooner; depth None is the leaf. One walk serves every depth.
        A tree cut at depth d scores as the same fit grown to max_depth d,
        because fit_tree grows level by level."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.intp)
        deepest = None if None in depths else max(depths)
        at_level, level = {}, 0
        while True:
            if level in depths:
                at_level[level] = node.copy()
            rows = np.flatnonzero(self.feature[node] >= 0)
            if level == deepest or rows.size == 0:
                break
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
            level += 1
        out = []
        for depth in depths:
            counts = self.counts[at_level.get(depth, node)]
            out.append(counts / counts.sum(axis=1, keepdims=True))
        return out

    def predict(self, X) -> np.ndarray:
        return self.leaf_distributions(X)[0].argmax(axis=1)

    def to_arrays(self) -> dict:
        return {"feature": self.feature, "threshold": self.threshold,
                "left": self.left, "right": self.right,
                "counts": self.counts}

    @classmethod
    def from_arrays(cls, arrays) -> "DecisionTree":
        tree = cls(np.asarray(arrays["feature"], dtype=np.int64),
                   np.asarray(arrays["threshold"], dtype=np.float64),
                   np.asarray(arrays["left"], dtype=np.int64),
                   np.asarray(arrays["right"], dtype=np.int64),
                   np.asarray(arrays["counts"], dtype=np.float64))
        nodes = (tree.feature.size,)
        if nodes == (0,) or tree.counts.ndim != 2 \
                or tree.counts.shape[:1] != nodes or any(
                    a.shape != nodes for a in (tree.feature, tree.threshold,
                                               tree.left, tree.right)):
            raise ValueError("tree arrays disagree on the node count")
        # fit_tree numbers nodes in level order: children after their
        # node, so every walk from the root ends at a leaf
        inner, at = tree.feature >= 0, np.arange(nodes[0])
        if not all(((child > at) & (child < nodes[0]))[inner].all()
                   for child in (tree.left, tree.right)):
            raise ValueError("a tree node's child does not follow it")
        counts = tree.counts
        if (tree.feature < -1).any() or not np.isfinite(counts).all() \
                or (counts < 0).any() or not (counts.sum(axis=1) > 0).all():
            raise ValueError("tree leaves need feature -1, and every node "
                             "finite, non-negative counts with a positive "
                             "sum")
        return tree


def _gini(weighted_counts: np.ndarray, total: float) -> float:
    return 1.0 - float(((weighted_counts / total) ** 2).sum())


# Candidate columns scored per numpy pass: bounds the (columns, rows)
# temporaries when a node scans all 910 ER features.
_BLOCK = 64


def _class_sum(parts):
    """parts[0] + parts[1] + ... added in class order, which is the order
    in which numpy reduces a trailing class axis."""
    total = parts[0] + parts[1]
    for part in parts[2:]:
        total += part
    return total


def _split_gini(parts, total):
    """Gini impurity at every cut point from each class's weight on one
    side of the cut (parts) and that side's total weight."""
    return 1.0 - _class_sum([(part / total) ** 2 for part in parts])


def _best_split(XT, at, candidates, column_weights, parent_total,
                parent_gini, presort=None):
    """(feature, threshold) of the best split of a node over the sorted
    candidates, or None; fit_tree states the rule. XT is the column-major
    (d, n) matrix, at the node's rows of it, distinct and ascending,
    column_weights the (classes, n) class weights of every column of XT,
    zero off the tree's rows, and presort None or the tree's (d, rows)
    order that fit_tree filters from the fit's presort.
    A column's cut is its first minimum in sorted order, i.e. its lowest
    threshold. The threshold is the midpoint of the values either side
    of the cut, or the lower value where the midpoint is not below the
    upper one, so both children get rows."""
    if presort is not None:
        member = np.zeros(XT.shape[1], dtype=bool)
        member[at] = True
    impurity, thresholds = [], []
    for s in range(0, candidates.size, _BLOCK):
        block = candidates[s:s + _BLOCK, None]
        # sel: per candidate, the node's rows in sorted order
        if presort is None:
            sel = at[np.argsort(XT[block, at], axis=1, kind="stable")]
        else:
            order = presort[block[:, 0]]
            sel = order[member[order]].reshape(block.size, at.size)
        v = XT[block, sel]
        lefts, rights = [], []
        for class_weight in column_weights:
            prefix = class_weight[sel].cumsum(axis=1)
            left = prefix[:, :-1]
            lefts.append(left)
            rights.append(prefix[:, -1:] - left)
        wl = _class_sum(lefts)
        wr = _class_sum(rights)
        # a side weighs least at its end cut (the first left, the last
        # right); one of weight 0 is no split, so as inf it scores inf,
        # not 0/0. A product that underflows only costs this slower path.
        if np.count_nonzero(wl[:, 0] * wr[:, -1]) < block.size:
            wl, wr = (np.where(w > 0, w, np.inf) for w in (wl, wr))
        weighted = (wl * _split_gini(lefts, wl)
                    + wr * _split_gini(rights, wr)) / parent_total
        weighted = np.where(v[:, :-1] < v[:, 1:], weighted, np.inf)
        cut = weighted.argmin(axis=1)
        cols = np.arange(block.size)
        impurity.append(weighted[cols, cut])
        lo, hi = v[cols, cut], v[cols, cut + 1]
        mid = (lo + hi) / 2.0
        # between adjacent floats the midpoint rounds to hi, which would
        # send every row left; lo splits the same rows
        thresholds.append(np.where(mid < hi, mid, lo))
    impurity = np.concatenate(impurity)
    thresholds = np.concatenate(thresholds)
    ok = impurity <= parent_gini
    if not ok.any():
        return None
    tied = np.flatnonzero(impurity == impurity[ok].min())
    best = tied[thresholds[tied].argmin()]
    return int(candidates[best]), float(thresholds[best])


def fit_tree(XT, rows, class_weights, max_depth: int,
             features_per_split: int | None = None, rng=None,
             presort=None) -> DecisionTree:
    """Greedy CART fit on weighted Gini impurity.

    XT is the fit's column-major (d, n) matrix, one feature per row. The
    samples are the columns of XT that rows lists, distinct and
    ascending, and class_weights holds one row per sample: its one-hot
    class row times its weight, so the class count is the width. A
    sample drawn k times is one row of weight k. fit_forest and
    fit_rusboost hand every tree the one matrix of their fit, and no
    tree copies its samples.
    Candidate features are all columns, or features_per_split of them
    drawn without replacement at every split. A node scores its sorted
    candidates _BLOCK columns at a time: it puts the block's values at
    its rows in sorted order as (columns, rows), either with one stable
    argsort along the rows or, given presort =
    np.argsort(XT, axis=1, kind="stable"), by keeping the node's rows of
    each presorted column (the same order, ties included). The tree
    first keeps its own rows of presort, so a node filters a (d, rows)
    order and its cost follows the sample, not n. It keeps each
    class's weight prefix sums as a (columns, rows) array, and scores
    the weighted child impurity of every cut point between distinct
    values at once, adding the classes in class order.
    It keeps the split with the lowest impurity, then the lowest
    threshold, then the lowest feature index, and never one with more
    impurity than the node or a side of weight 0; else the node is a leaf.
    Nodes grow and are numbered in level order, left child first, and
    every node keeps its class weights in counts. Every node above depth
    d draws its candidates from rng before any node at depth d does, so
    the fit to max_depth D, cut at depth d, is the fit to max_depth d.
    """
    if XT.ndim != 2 or XT.shape[0] == 0 or XT.shape[1] == 0:
        raise ValueError("XT must be a non-empty 2-D array")
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.size == 0 \
            or not np.issubdtype(rows.dtype, np.integer) \
            or rows[0] < 0 or rows[-1] >= XT.shape[1] \
            or (rows[1:] <= rows[:-1]).any():
        raise ValueError("rows must be a non-empty 1-D array of distinct "
                         "column indices of XT in ascending order")
    if class_weights.ndim != 2 or class_weights.shape[0] != rows.size:
        raise ValueError("class_weights must have one row per sample")
    d = XT.shape[0]
    if features_per_split is not None:
        if not 1 <= features_per_split <= d:
            raise ValueError(f"features_per_split must lie in [1, {d}]")
        if rng is None:
            raise ValueError("features_per_split requires an rng")
    column_weights = np.zeros((class_weights.shape[1], XT.shape[1]))
    column_weights[:, rows] = class_weights.T
    if presort is not None and rows.size < XT.shape[1]:
        # rows that are every column of XT keep presort as it is
        member = np.zeros(XT.shape[1], dtype=bool)
        member[rows] = True
        presort = presort[member[presort]].reshape(d, rows.size)
    nodes = []      # [feature, threshold, left, right, counts] per node
    # per node, in level order: its sample positions (ascending) and
    # depth; the loop appends each split's children as it goes
    queue = [(np.arange(rows.size), 0)]
    for node, (idx, depth) in enumerate(queue):
        cw = class_weights[idx].sum(axis=0)
        nodes.append([-1, np.nan, -1, -1, cw])
        total = float(cw.sum())
        parent_gini = _gini(cw, total)
        if depth >= max_depth or idx.size < 2 or parent_gini == 0.0:
            continue
        if features_per_split is None:
            candidates = np.arange(d)
        else:
            candidates = np.sort(rng.choice(d, size=features_per_split,
                                            replace=False))
        at = rows[idx]
        split = _best_split(XT, at, candidates, column_weights, total,
                            parent_gini, presort)
        if split is None:
            continue
        f, thr = split
        go_left = XT[f, at] <= thr
        nodes[node][:4] = [f, thr, len(queue), len(queue) + 1]
        queue += [(idx[go_left], depth + 1), (idx[~go_left], depth + 1)]

    feature, threshold, left, right, counts = zip(*nodes)
    return DecisionTree(np.array(feature, dtype=np.int64),
                        np.array(threshold, dtype=np.float64),
                        np.array(left, dtype=np.int64),
                        np.array(right, dtype=np.int64),
                        np.array(counts, dtype=np.float64))


def _tree_arrays(trees) -> dict:
    return {f"t{i}.{key}": arr for i, tree in enumerate(trees)
            for key, arr in tree.to_arrays().items()}


def _trees_from_arrays(arrays, count: int, n_classes: int,
                       n_features: int) -> list:
    """The count trees t0, t1, ... of a checkpoint; each node's counts
    must have one column per class, and each split a feature below
    n_features."""
    keys = ("feature", "threshold", "left", "right", "counts")
    trees = [DecisionTree.from_arrays({k: arrays[f"t{i}.{k}"] for k in keys})
             for i in range(count)]
    if any(tree.counts.shape[1] != n_classes for tree in trees):
        raise ValueError(f"tree counts must have {n_classes} class columns")
    if any(tree.feature.max() >= n_features for tree in trees):
        raise ValueError(f"a tree splits on a feature past the "
                         f"{n_features} it was fit on")
    return trees


def _stage_value(stage: dict, name: str, fitted: int) -> int:
    """A stage's value of the config field name, or the fitted value if
    the stage does not set it; no stage asks for more than was fit."""
    value = stage.get(name, fitted)
    if not 1 <= value <= fitted:
        raise ValueError(f"stage {name} {value!r} outside [1, {fitted}]")
    return value


class Forest(Estimator):
    """Random forest estimator, fit by fit_forest; trees holds its
    DecisionTrees."""

    FAMILY = "forest"

    def _fit(self, X, y) -> None:
        fit_forest(self, X, y)

    def _staged_predict_proba(self, X, stages) -> list:
        """A stage may set n_estimators and max_depth up to the fitted
        values: the mean leaf distribution of the first n_estimators
        trees, each cut at max_depth. That is the forest fit_forest grows
        with those values, because a tree's seed does not depend on
        n_estimators and fit_tree grows level by level."""
        cfg = self.config
        ks = [_stage_value(stage, "n_estimators", cfg.n_estimators)
              for stage in stages]
        depths = [_stage_value(stage, "max_depth", cfg.max_depth)
                  for stage in stages]
        levels = sorted(set(depths))
        # per tree, one walk: its leaf distributions at every stage depth
        by_tree = [t.leaf_distributions(X, levels)
                   for t in self.trees[:max(ks, default=0)]]
        return [np.mean([dist[levels.index(depth)] for dist in by_tree[:k]],
                        axis=0)
                for k, depth in zip(ks, depths)]

    def _checkpoint(self) -> dict:
        return _tree_arrays(self.trees)

    def _load_arrays(self, arrays, n_features: int) -> None:
        self.trees = _trees_from_arrays(arrays, self.config.n_estimators,
                                        self.n_classes, n_features)


def fit_forest(forest: Forest, X, y) -> Forest:
    """forest with its trees fit on Estimator.fit's X and y: a bag of
    CART trees on bootstrap resamples, each split drawing ceil(sqrt(d))
    candidate features; predicted probabilities are the mean of per-tree
    leaf distributions. A tree gets each drawn row once, weighted by its
    number of draws: the weights are integers, so every sum is exact and
    the tree is the one grown on the repeated rows. Nodes sort their own
    candidates: a presort of all d features costs more than sorting
    ceil(sqrt(d)) of them at every node saves."""
    cfg = forest.config
    n, d = X.shape
    per_split = int(np.ceil(np.sqrt(d)))
    XT = np.ascontiguousarray(X.T)
    onehot = np.eye(forest.n_classes)[y]
    trees = []
    for t in range(cfg.n_estimators):
        rng = np.random.default_rng(derive_seed(cfg.seed, "tree", t))
        draws = np.bincount(rng.integers(0, n, size=n), minlength=n)
        rows = np.flatnonzero(draws)
        trees.append(fit_tree(XT, rows, onehot[rows] * draws[rows, None],
                              cfg.max_depth, features_per_split=per_split,
                              rng=rng))
    forest.trees = trees
    return forest


class RusBoostModel(Estimator):
    """RUSBoost estimator, fit by fit_rusboost; trees and alphas hold its
    rounds' trees and stage weights."""

    FAMILY = "rusboost"

    def _fit(self, X, y) -> None:
        fit_rusboost(self, X, y)

    def _staged_predict_proba(self, X, stages) -> list:
        """A stage may set n_estimators up to the fitted value: the
        normalized vote of the first n_estimators rounds, or of every
        round kept if boosting stopped before. That is the model
        fit_rusboost builds with that value, because each round depends
        only on the rounds before it."""
        rounds = [min(_stage_value(stage, "n_estimators",
                                   self.config.n_estimators), len(self.trees))
                  for stage in stages]
        rows = np.arange(X.shape[0])
        votes = np.zeros((X.shape[0], self.n_classes))
        snapshots = {}
        for r, (tree, alpha) in enumerate(
                zip(self.trees[:max(rounds)], self.alphas), start=1):
            votes[rows, tree.predict(X)] += alpha
            if r in rounds:
                snapshots[r] = votes / votes.sum(axis=1, keepdims=True)
        return [snapshots[r] for r in rounds]

    def _checkpoint(self) -> dict:
        alphas = np.asarray(self.alphas, dtype=np.float64)
        return {"alphas": alphas, **_tree_arrays(self.trees)}

    def _load_arrays(self, arrays, n_features: int) -> None:
        alphas = arrays["alphas"]
        if not (len(alphas) and np.isfinite(alphas).all()
                and (alphas > 0).all()):
            raise ValueError("RUSBoost alphas must be finite and positive")
        self.trees = _trees_from_arrays(arrays, len(alphas), self.n_classes,
                                        n_features)
        self.alphas = [float(a) for a in alphas]


def _balanced_subsample(rng, y, n_classes: int) -> np.ndarray:
    """Undersample every class to the minority-class count."""
    by_class = [np.flatnonzero(y == c) for c in range(n_classes)]
    minority = min(len(idx) for idx in by_class)
    parts = [rng.choice(idx, size=minority, replace=False)
             for idx in by_class]
    return np.sort(np.concatenate(parts))


def fit_rusboost(model: RusBoostModel, X, y) -> RusBoostModel:
    """model with its trees and alphas fit on Estimator.fit's X and y:
    boosting over balanced undersamples (SAMME stage weights).

    Each round fits a depth-limited tree on a class-balanced random
    subsample carrying the current instance weights, then scores it on
    the full set. Rounds with error >= 1 - 1/C are discarded and drawn
    again, at most 10 times; if a round exhausts its retries, boosting
    stops early with the rounds completed so far (a DataError if none).
    A class of n_classes without samples in y is a DataError.
    """
    cfg, n_classes = model.config, model.n_classes
    counts = np.bincount(y, minlength=n_classes)
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DataError(f"class {missing} has no samples")
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    limit = 1.0 - 1.0 / n_classes
    XT = np.ascontiguousarray(X.T)
    # every node scans every feature, so sort each one once per fit; but
    # each tree keeps its rows of that order in a pass over all n rows,
    # which a subsample under a quarter of them does not pay back
    presort = (np.argsort(XT, axis=1, kind="stable")
               if 4 * n_classes * counts.min() >= n else None)
    onehot = np.eye(n_classes)[y]
    trees, alphas = [], []
    for r in range(cfg.n_estimators):
        fitted = None
        for attempt in range(11):
            rng = np.random.default_rng(
                derive_seed(cfg.seed, "round", r, "attempt", attempt))
            sub = _balanced_subsample(rng, y, n_classes)
            tree = fit_tree(XT, sub, onehot[sub] * w[sub, None],
                            cfg.max_depth, presort=presort)
            pred = tree.predict(X)
            miss = pred != y
            eps = float(w[miss].sum() / w.sum())
            if eps < limit:
                fitted = (tree, miss, eps)
                break
        if fitted is None:
            # Weights no longer admit a better-than-chance subsample tree;
            # keep what was built rather than fail on hard data.
            if not trees:
                raise DataError("no first boosting round beats chance "
                                "in 10 resample retries")
            break
        tree, miss, eps = fitted
        eps = max(eps, 1e-10)
        alpha = cfg.learning_rate * (np.log((1.0 - eps) / eps)
                                     + np.log(n_classes - 1.0))
        w[miss] *= np.exp(alpha)
        w /= w.sum()
        trees.append(tree)
        alphas.append(float(alpha))
    model.trees, model.alphas = trees, alphas
    return model

