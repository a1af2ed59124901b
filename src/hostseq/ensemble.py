"""Tree-based classifiers: CART, bagged forests, and boosted
undersampling for imbalanced data.

Trees are grown greedily on Gini impurity with midpoint thresholds.
Split ties break toward the lowest threshold, then the lowest feature
index, so fits are reproducible. All randomness flows through
generators seeded with util.derive_seed.
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


@dataclass
class DecisionTree:
    """Flat node arrays; feature == -1 marks a leaf. Leaves carry the
    weighted class counts seen during the fit."""

    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    max_depth: int = 0
    n_classes: int = 0

    def _add_node(self):
        self.feature.append(-1)
        self.threshold.append(float("nan"))
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append(None)
        return len(self.feature) - 1

    def leaf_distributions(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        node = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            internal = feature[node] >= 0
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            f = feature[node[rows]]
            go_left = X[rows, f] <= threshold[node[rows]]
            node[rows] = np.where(go_left, left[node[rows]], right[node[rows]])
        counts = np.array([self.counts[i] for i in node], dtype=np.float64)
        return counts / counts.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        return self.leaf_distributions(X).argmax(axis=1)

    def to_arrays(self) -> dict:
        dists = [c if c is not None else [0.0] * self.n_classes
                 for c in self.counts]
        return {"feature": np.asarray(self.feature, dtype=np.int64),
                "threshold": np.asarray(self.threshold, dtype=np.float64),
                "left": np.asarray(self.left, dtype=np.int64),
                "right": np.asarray(self.right, dtype=np.int64),
                "counts": np.asarray(dists, dtype=np.float64)}

    @classmethod
    def from_arrays(cls, arrays, max_depth: int) -> "DecisionTree":
        feature = list(int(v) for v in arrays["feature"])
        counts_arr = np.asarray(arrays["counts"], dtype=np.float64)
        tree = cls(feature=feature,
                   threshold=[float(v) for v in arrays["threshold"]],
                   left=[int(v) for v in arrays["left"]],
                   right=[int(v) for v in arrays["right"]],
                   counts=[row.tolist() if feature[i] < 0 else None
                           for i, row in enumerate(counts_arr)],
                   max_depth=max_depth,
                   n_classes=counts_arr.shape[1])
        return tree


def _gini(weighted_counts: np.ndarray, total: float) -> float:
    return 1.0 - float(((weighted_counts / total) ** 2).sum())


def _best_split_for_feature(values, class_weights, parent_total):
    """Scan midpoints of one sorted feature column.

    Returns (weighted child impurity, threshold) or None when the
    column is constant.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    cw = class_weights[order]
    boundaries = np.flatnonzero(v[:-1] < v[1:])
    if boundaries.size == 0:
        return None
    prefix = np.cumsum(cw, axis=0)
    total = prefix[-1]
    left = prefix[boundaries]
    right = total - left
    wl = left.sum(axis=1)
    wr = right.sum(axis=1)
    gini_l = 1.0 - ((left / wl[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((right / wr[:, None]) ** 2).sum(axis=1)
    weighted = (wl * gini_l + wr * gini_r) / parent_total
    best = int(np.argmin(weighted))
    b = boundaries[best]
    return float(weighted[best]), float((v[b] + v[b + 1]) / 2.0)


def fit_tree(X, y, max_depth: int, features_per_split: int | None = None,
             rng=None, sample_weight=None, n_classes: int | None = None
             ) -> DecisionTree:
    """Greedy CART fit. Candidate features are drawn without replacement
    at every split when features_per_split is given; a chosen split never
    has higher weighted Gini impurity than its parent."""
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

    tree = DecisionTree(max_depth=max_depth, n_classes=n_classes)

    def grow(idx: np.ndarray, depth: int) -> int:
        node = tree._add_node()
        cw = class_weights[idx].sum(axis=0)
        total = float(cw.sum())
        parent_gini = _gini(cw, total)
        if depth >= max_depth or idx.size < 2 or parent_gini == 0.0:
            tree.counts[node] = cw.tolist()
            return node
        if features_per_split is None:
            candidates = np.arange(d)
        else:
            candidates = np.sort(rng.choice(d, size=features_per_split,
                                            replace=False))
        best = None
        for f in candidates:
            found = _best_split_for_feature(X[idx, f], class_weights[idx],
                                            total)
            if found is None:
                continue
            impurity, thr = found
            if impurity > parent_gini:
                continue
            if best is None or impurity < best[0] \
                    or (impurity == best[0] and thr < best[2]):
                best = (impurity, int(f), thr)
        if best is None:
            tree.counts[node] = cw.tolist()
            return node
        _, f, thr = best
        go_left = X[idx, f] <= thr
        tree.feature[node] = f
        tree.threshold[node] = thr
        tree.left[node] = grow(idx[go_left], depth + 1)
        tree.right[node] = grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return tree


def _tree_arrays(trees) -> dict:
    return {f"t{i}.{key}": arr for i, tree in enumerate(trees)
            for key, arr in tree.to_arrays().items()}


def _trees_from_arrays(arrays, count: int, max_depth: int) -> list:
    keys = ("feature", "threshold", "left", "right", "counts")
    return [DecisionTree.from_arrays({k: arrays[f"t{i}.{k}"] for k in keys},
                                     max_depth) for i in range(count)]


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
        return cls(config, int(meta["n_classes"]), _trees_from_arrays(
            arrays, config.n_estimators, config.max_depth))


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
        trees = _trees_from_arrays(arrays, len(alphas), config.max_depth)
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

