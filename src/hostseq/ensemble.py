"""Tree-based classifiers: CART, bagged forests, and boosted
undersampling for imbalanced data.

Trees are grown greedily on Gini impurity with midpoint thresholds.
The split search is exact and vectorized: a node sorts its candidate
columns a block at a time and scores every cut point of the block in
one pass over class-weight prefix sums. Split ties break toward the
lowest threshold, then the lowest feature index, so fits are
reproducible. A fitted tree is a set of flat numpy arrays. All
randomness flows through generators seeded with util.derive_seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .util import derive_seed


@dataclass(frozen=True)
class ForestConfig:
    n_estimators: int = 100
    max_depth: int = 10
    features_per_split: int | None = None   # None -> ceil(sqrt(d))
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


@dataclass(frozen=True)
class RusBoostConfig:
    n_estimators: int = 50
    learning_rate: float = 0.1
    max_depth: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass(eq=False)
class DecisionTree:
    """Flat node arrays; feature == -1 marks a leaf, whose threshold is
    nan and whose children are -1. counts holds each leaf's weighted
    class counts from the fit, and zero rows at internal nodes."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    def leaf_distributions(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            rows = np.flatnonzero(self.feature[node] >= 0)
            if rows.size == 0:
                break
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        counts = self.counts[node]
        return counts / counts.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        return self.leaf_distributions(X).argmax(axis=1)

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
        return tree


def _gini(weighted_counts: np.ndarray, total: float) -> float:
    return 1.0 - float(((weighted_counts / total) ** 2).sum())


# Candidate columns scored per numpy pass: bounds the (rows, columns,
# classes) temporaries when a node scans all 910 ER features.
_BLOCK = 64


def _best_split(X, idx, candidates, weights, parent_total, parent_gini):
    """(feature, threshold) of the best split of rows idx over the sorted
    candidates, or None; fit_tree states the rule. A column's cut is its
    first minimum in sorted order, i.e. its lowest threshold."""
    impurity, thresholds = [], []
    for s in range(0, candidates.size, _BLOCK):
        values = X[idx[:, None], candidates[s:s + _BLOCK]]
        order = np.argsort(values, axis=0, kind="stable")
        v = np.take_along_axis(values, order, axis=0)
        prefix = np.cumsum(weights[order], axis=0)
        total = prefix[-1]
        left = prefix[:-1]
        right = total - left
        wl = left.sum(axis=2)
        wr = right.sum(axis=2)
        gini_l = 1.0 - ((left / wl[:, :, None]) ** 2).sum(axis=2)
        gini_r = 1.0 - ((right / wr[:, :, None]) ** 2).sum(axis=2)
        weighted = (wl * gini_l + wr * gini_r) / parent_total
        weighted = np.where(v[:-1] < v[1:], weighted, np.inf)
        cut = weighted.argmin(axis=0)
        cols = np.arange(v.shape[1])
        impurity.append(weighted[cut, cols])
        thresholds.append((v[cut, cols] + v[cut + 1, cols]) / 2.0)
    impurity = np.concatenate(impurity)
    thresholds = np.concatenate(thresholds)
    ok = impurity <= parent_gini
    if not ok.any():
        return None
    tied = np.flatnonzero(impurity == impurity[ok].min())
    best = tied[thresholds[tied].argmin()]
    return int(candidates[best]), float(thresholds[best])


def fit_tree(X, y, max_depth: int, features_per_split: int | None = None,
             rng=None, sample_weight=None, n_classes: int | None = None
             ) -> DecisionTree:
    """Greedy CART fit on weighted Gini impurity.

    Candidate features are all columns, or features_per_split of them
    drawn without replacement at every split. A node scores its sorted
    candidates _BLOCK columns at a time: one stable sort of the block,
    class-weight prefix sums, and the weighted child impurity of every
    cut point between distinct values at once. It keeps the split with
    the lowest impurity, then the lowest threshold, then the lowest
    feature index, and never one with more impurity than the node; with
    no such split the node is a leaf. Nodes are numbered depth-first,
    left child first, in lists frozen into a DecisionTree at the end.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError("X must be a non-empty 2-D array")
    if y.shape != (X.shape[0],):
        raise ValueError("y must have one label per row of X")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    if sample_weight is None:
        sample_weight = np.ones(X.shape[0])
    else:
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
    d = X.shape[1]
    if features_per_split is not None:
        if not 1 <= features_per_split <= d:
            raise ValueError(f"features_per_split must lie in [1, {d}]")
        if rng is None:
            raise ValueError("features_per_split requires an rng")
    onehot = np.zeros((X.shape[0], n_classes))
    onehot[np.arange(X.shape[0]), y] = 1.0
    class_weights = onehot * sample_weight[:, None]
    nodes = []      # [feature, threshold, left, right, counts] per node

    def grow(idx: np.ndarray, depth: int) -> int:
        node = len(nodes)
        weights = class_weights[idx]
        cw = weights.sum(axis=0)
        nodes.append([-1, np.nan, -1, -1, cw])
        total = float(cw.sum())
        parent_gini = _gini(cw, total)
        if depth >= max_depth or idx.size < 2 or parent_gini == 0.0:
            return node
        if features_per_split is None:
            candidates = np.arange(d)
        else:
            candidates = np.sort(rng.choice(d, size=features_per_split,
                                            replace=False))
        split = _best_split(X, idx, candidates, weights, total, parent_gini)
        if split is None:
            return node
        f, thr = split
        go_left = X[idx, f] <= thr
        nodes[node] = [f, thr, grow(idx[go_left], depth + 1),
                       grow(idx[~go_left], depth + 1), np.zeros(n_classes)]
        return node

    grow(np.arange(X.shape[0]), 0)
    feature, threshold, left, right, counts = zip(*nodes)
    return DecisionTree(np.array(feature, dtype=np.int64),
                        np.array(threshold, dtype=np.float64),
                        np.array(left, dtype=np.int64),
                        np.array(right, dtype=np.int64),
                        np.array(counts, dtype=np.float64))


def _tree_arrays(trees) -> dict:
    return {f"t{i}.{key}": arr for i, tree in enumerate(trees)
            for key, arr in tree.to_arrays().items()}


def _trees_from_arrays(arrays, count: int) -> list:
    keys = ("feature", "threshold", "left", "right", "counts")
    return [DecisionTree.from_arrays({k: arrays[f"t{i}.{k}"] for k in keys})
            for i in range(count)]


@dataclass
class Forest:
    """Random forest estimator; fit delegates to fit_forest."""

    FAMILY = "forest"
    config: ForestConfig
    n_classes: int
    trees: list = field(default_factory=list)

    def fit(self, X, y) -> "Forest":
        self.trees = fit_forest(X, y, self.config, self.n_classes).trees
        return self

    def predict_proba(self, X) -> np.ndarray:
        dists = [t.leaf_distributions(X) for t in self.trees]
        return np.mean(dists, axis=0)

    def predict(self, X) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def to_checkpoint(self):
        meta = {"config": asdict(self.config), "n_classes": self.n_classes}
        return "forest", meta, _tree_arrays(self.trees)

    @classmethod
    def from_checkpoint(cls, meta, arrays) -> "Forest":
        config = ForestConfig(**meta["config"])
        return cls(config, int(meta["n_classes"]),
                   _trees_from_arrays(arrays, config.n_estimators))


def fit_forest(X, y, cfg: ForestConfig, n_classes: int | None = None
               ) -> Forest:
    """Bag of CART trees on bootstrap resamples; predicted probabilities
    are the mean of per-tree leaf distributions."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a non-empty 2-D array")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    n, d = X.shape
    per_split = cfg.features_per_split
    if per_split is None:
        per_split = int(np.ceil(np.sqrt(d)))
    trees = []
    for t in range(cfg.n_estimators):
        rng = np.random.default_rng(derive_seed(cfg.seed, "tree", t))
        idx = rng.integers(0, n, size=n)
        trees.append(fit_tree(X[idx], y[idx], cfg.max_depth,
                              features_per_split=per_split, rng=rng,
                              n_classes=n_classes))
    return Forest(cfg, n_classes, trees)


@dataclass
class RusBoostModel:
    """RUSBoost estimator; fit delegates to fit_rusboost."""

    FAMILY = "rusboost"
    config: RusBoostConfig
    n_classes: int
    trees: list = field(default_factory=list)
    alphas: list = field(default_factory=list)

    def fit(self, X, y) -> "RusBoostModel":
        fitted = fit_rusboost(X, y, self.config, self.n_classes)
        self.trees, self.alphas = fitted.trees, fitted.alphas
        return self

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros((X.shape[0], self.n_classes))
        for tree, alpha in zip(self.trees, self.alphas):
            pred = tree.predict(X)
            votes[np.arange(X.shape[0]), pred] += alpha
        return votes / votes.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def to_checkpoint(self):
        meta = {"config": asdict(self.config), "n_classes": self.n_classes}
        alphas = np.asarray(self.alphas, dtype=np.float64)
        return "rusboost", meta, {"alphas": alphas,
                                  **_tree_arrays(self.trees)}

    @classmethod
    def from_checkpoint(cls, meta, arrays) -> "RusBoostModel":
        config = RusBoostConfig(**meta["config"])
        alphas = arrays["alphas"]
        trees = _trees_from_arrays(arrays, len(alphas))
        return cls(config, int(meta["n_classes"]), trees,
                   [float(a) for a in alphas])


def _balanced_subsample(rng, y, n_classes: int) -> np.ndarray:
    """Undersample every class to the minority-class count."""
    by_class = [np.flatnonzero(y == c) for c in range(n_classes)]
    minority = min(len(idx) for idx in by_class)
    parts = [rng.choice(idx, size=minority, replace=False)
             for idx in by_class]
    return np.sort(np.concatenate(parts))


def fit_rusboost(X, y, cfg: RusBoostConfig, n_classes: int | None = None
                 ) -> RusBoostModel:
    """Boosting over balanced undersamples (SAMME stage weights).

    Each round fits a depth-limited tree on a class-balanced random
    subsample carrying the current instance weights, then scores it on
    the full set. Rounds with error >= 1 - 1/C are discarded and drawn
    again, at most 10 times; if a round exhausts its retries, boosting
    stops early with the rounds completed so far.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a non-empty 2-D array")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    counts = np.bincount(y, minlength=n_classes)
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"class {missing} has no samples")
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    limit = 1.0 - 1.0 / n_classes
    trees, alphas = [], []
    for r in range(cfg.n_estimators):
        fitted = None
        for attempt in range(11):
            rng = np.random.default_rng(
                derive_seed(cfg.seed, "round", r, "attempt", attempt))
            sub = _balanced_subsample(rng, y, n_classes)
            tree = fit_tree(X[sub], y[sub], cfg.max_depth,
                            sample_weight=w[sub], n_classes=n_classes)
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
                raise RuntimeError(
                    "first boosting round exceeded 10 resample retries")
            break
        tree, miss, eps = fitted
        eps = max(eps, 1e-10)
        alpha = cfg.learning_rate * (np.log((1.0 - eps) / eps)
                                     + np.log(n_classes - 1.0))
        w[miss] *= np.exp(alpha)
        w /= w.sum()
        trees.append(tree)
        alphas.append(float(alpha))
    return RusBoostModel(cfg, n_classes, trees, alphas)

