"""Decision trees, random forests and undersampling boosting."""

import numpy as np
import pytest

from hostseq import ensemble
from hostseq.ensemble import (
    DecisionTree,
    Forest,
    ForestConfig,
    RusBoostConfig,
    _balanced_subsample,
    fit_forest,
    fit_rusboost,
    fit_tree,
)


def test_stump_threshold_midpoint():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_tree(X, y, max_depth=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(2.5)
    assert np.array_equal(tree.predict(X), y)


def test_tree_learns_xor_at_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = fit_tree(X, y, max_depth=2)
    assert np.array_equal(tree.predict(X), y)


def test_tree_respects_max_depth():
    rng = np.random.default_rng(0)
    X = rng.random((64, 3))
    y = rng.integers(0, 2, size=64)
    tree = fit_tree(X, y, max_depth=2)
    # depth-2 binary tree has at most 7 nodes
    assert len(tree.feature) <= 7


def test_tree_pure_node_stops():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1, 1, 1])
    tree = fit_tree(X, y, max_depth=5)
    assert len(tree.feature) == 1
    assert tree.feature[0] == -1


@pytest.mark.parametrize("X, y, max_depth", [
    (np.array([[0.0], [1.0], [2.0]]), np.array([1, 1, 1]), 5),   # pure
    (np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 1]), 0),   # depth 0
    (np.full((3, 2), 4.0), np.array([0, 1, 1]), 5),              # constant X
])
def test_single_leaf_tree(X, y, max_depth):
    tree = fit_tree(X, y, max_depth=max_depth, n_classes=2)
    assert tree.feature.tolist() == [-1]
    assert tree.left.tolist() == tree.right.tolist() == [-1]
    assert np.isnan(tree.threshold).all()
    assert tree.counts.tolist() == [np.bincount(y, minlength=2).tolist()]
    dist = tree.leaf_distributions(X)
    assert np.array_equal(dist, np.tile(np.bincount(y, minlength=2) / 3,
                                        (3, 1)))
    back = DecisionTree.from_arrays(tree.to_arrays())
    assert np.array_equal(back.leaf_distributions(X), dist)


def test_tree_feature_tiebreak_prefers_lowest_index():
    col = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([col, col])
    y = np.array([0, 0, 1, 1])
    tree = fit_tree(X, y, max_depth=1)
    assert tree.feature[0] == 0


def test_tree_threshold_tiebreak_prefers_lowest():
    # splits at 0.5 and 2.5 give the same impurity; 0.5 must win
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 0])
    tree = fit_tree(X, y, max_depth=1)
    assert tree.threshold[0] == pytest.approx(0.5)


def test_tree_tiebreak_prefers_threshold_over_feature_index():
    # both features separate the classes perfectly; feature 1's midpoint
    # 0.5 is below feature 0's midpoint 5.0, so the lower threshold wins
    X = np.array([[0.0, 0.0], [10.0, 1.0]])
    y = np.array([0, 1])
    tree = fit_tree(X, y, max_depth=1)
    assert tree.feature[0] == 1
    assert tree.threshold[0] == 0.5


def test_tree_sample_weight_changes_split():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 1])
    heavy_first = fit_tree(X, y, max_depth=1,
                           sample_weight=np.array([100.0, 1.0, 1.0, 1.0]))
    dist = heavy_first.leaf_distributions(X)
    assert dist[0, 0] > 0.9  # the heavy record dominates its leaf


def test_tree_array_roundtrip():
    rng = np.random.default_rng(1)
    X = rng.random((50, 4))
    y = rng.integers(0, 3, size=50)
    tree = fit_tree(X, y, max_depth=4, n_classes=3)
    arrays = tree.to_arrays()
    back = DecisionTree.from_arrays(arrays)
    for key, arr in back.to_arrays().items():
        assert arr.dtype == arrays[key].dtype
        assert arr.tobytes() == arrays[key].tobytes(), key
    internal = tree.feature >= 0
    assert internal.any() and not tree.counts[internal].any()
    assert (tree.counts[~internal].sum(axis=1) > 0).all()
    assert np.array_equal(tree.leaf_distributions(X),
                          back.leaf_distributions(X))


def test_leaf_distributions_rows_sum_to_one():
    rng = np.random.default_rng(2)
    X = rng.random((30, 3))
    y = rng.integers(0, 3, size=30)
    tree = fit_tree(X, y, max_depth=3, n_classes=3)
    dist = tree.leaf_distributions(X)
    assert dist.shape == (30, 3)
    assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-12)


def test_tree_from_arrays_rejects_node_count_mismatch():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    arrays = fit_tree(X, np.array([0, 0, 1, 1]), 1).to_arrays()
    arrays["left"] = arrays["left"][:-1]
    with pytest.raises(ValueError, match="node count"):
        DecisionTree.from_arrays(arrays)


def test_forest_deterministic_and_averages():
    rng = np.random.default_rng(3)
    X = rng.random((80, 5))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
    cfg = ForestConfig(n_estimators=10, max_depth=3, seed=9)
    a = fit_forest(X, y, cfg)
    b = fit_forest(X, y, cfg)
    pa, pb = a.predict_proba(X), b.predict_proba(X)
    assert np.array_equal(pa, pb)
    assert np.allclose(pa.sum(axis=1), 1.0, atol=1e-12)
    assert len(a.trees) == 10
    assert (a.predict(X) == y).mean() > 0.9


def test_forest_seed_changes_trees():
    rng = np.random.default_rng(4)
    X = rng.random((60, 5))
    y = rng.integers(0, 2, size=60)
    a = fit_forest(X, y, ForestConfig(n_estimators=5, max_depth=3, seed=1))
    b = fit_forest(X, y, ForestConfig(n_estimators=5, max_depth=3, seed=2))
    assert not np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_forest_validation():
    with pytest.raises(ValueError, match="n_estimators"):
        ForestConfig(n_estimators=0)
    with pytest.raises(ValueError, match="non-empty"):
        fit_forest(np.empty((0, 3)), np.empty(0, dtype=int),
                   ForestConfig(n_estimators=1))


def test_balanced_subsample_invariant():
    rng = np.random.default_rng(5)
    y = np.array([0] * 90 + [1] * 10)
    sub = _balanced_subsample(rng, y, n_classes=2)
    counts = np.bincount(y[sub], minlength=2)
    assert counts[0] == counts[1] == 10
    assert len(np.unique(sub)) == len(sub)  # sampled without replacement


def test_rusboost_deterministic():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(100, 4))
    y = (X[:, 0] > 0.8).astype(int)
    cfg = RusBoostConfig(n_estimators=8, learning_rate=0.1, max_depth=2,
                         seed=3)
    a = fit_rusboost(X, y, cfg)
    b = fit_rusboost(X, y, cfg)
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
    assert np.allclose(a.predict_proba(X).sum(axis=1), 1.0, atol=1e-12)
    assert all(alpha > 0 for alpha in a.alphas)


def test_rusboost_learns_imbalanced():
    rng = np.random.default_rng(7)
    n_neg, n_pos = 180, 20
    X = np.vstack([rng.normal(0.0, 1.0, size=(n_neg, 3)),
                   rng.normal(1.5, 1.0, size=(n_pos, 3))])
    y = np.array([0] * n_neg + [1] * n_pos)
    model = fit_rusboost(X, y, RusBoostConfig(n_estimators=20, seed=1))
    pred = model.predict(X)
    minority_recall = (pred[y == 1] == 1).mean()
    assert minority_recall >= 0.7


def test_rusboost_missing_class_errors():
    X = np.random.default_rng(8).random((10, 2))
    y = np.zeros(10, dtype=int)
    with pytest.raises(ValueError, match="class 1 has no samples"):
        fit_rusboost(X, y, RusBoostConfig(n_estimators=2), n_classes=2)
    with pytest.raises(ValueError, match="at least 2"):
        fit_rusboost(X, y, RusBoostConfig(n_estimators=2))


def _reference_split(X, idx, candidates, weights, parent_total, parent_gini):
    """One scalar scan per candidate feature, kept here as the reference
    the vectorized split search must match bit for bit."""
    best = None
    for f in candidates:
        values = X[idx, f]
        order = np.argsort(values, kind="stable")
        v, cw = values[order], weights[order]
        boundaries = np.flatnonzero(v[:-1] < v[1:])
        if boundaries.size == 0:
            continue
        prefix = np.cumsum(cw, axis=0)
        left = prefix[boundaries]
        right = prefix[-1] - left
        wl, wr = left.sum(axis=1), right.sum(axis=1)
        gini_l = 1.0 - ((left / wl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / wr[:, None]) ** 2).sum(axis=1)
        weighted = (wl * gini_l + wr * gini_r) / parent_total
        b = int(np.argmin(weighted))
        impurity = float(weighted[b])
        thr = float((v[boundaries[b]] + v[boundaries[b] + 1]) / 2.0)
        if impurity > parent_gini:
            continue
        if best is None or impurity < best[0] \
                or (impurity == best[0] and thr < best[2]):
            best = (impurity, int(f), thr)
    return None if best is None else best[1:]


def _split_case(seed, d, weighted):
    """Few distinct values (repeats, impurity ties), constant columns,
    duplicated and rescaled columns (ties across features)."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(90, d)).astype(np.float64)
    X[:, 2] = 7.0
    X[:, d - 1] = -1.0
    X[:, 5] = X[:, 1]
    X[:, 6] = 3.0 * X[:, 1]
    X[:, 8] = X[:, 1][::-1]
    y = rng.integers(0, 3, size=90)
    w = rng.integers(1, 4, size=90) * 0.1 if weighted else None
    return X, y, w


# 150 candidates span three column blocks, 100 drawn ones two
@pytest.mark.parametrize("d, per_split", [(12, None), (12, 5), (150, None),
                                          (150, 5), (150, 100)])
@pytest.mark.parametrize("weighted", [False, True])
def test_split_search_matches_scalar_reference(monkeypatch, d, per_split,
                                               weighted):
    X, y, w = _split_case(d + (per_split or 0), d, weighted)
    vectorized = ensemble._best_split
    splits = []

    def checked(*args):
        found = vectorized(*args)
        assert found == _reference_split(*args)
        splits.append(found)
        return found

    def fit(search):
        monkeypatch.setattr(ensemble, "_best_split", search)
        rng = np.random.default_rng(3) if per_split else None
        return fit_tree(X, y, 6, features_per_split=per_split, rng=rng,
                        sample_weight=w, n_classes=3).to_arrays()

    fast = fit(checked)
    slow = fit(_reference_split)
    assert len(splits) > 5 and splits.count(None) < len(splits)
    assert fast.keys() == slow.keys()
    for key in fast:
        assert fast[key].tobytes() == slow[key].tobytes(), key


def test_split_search_ties_across_features_and_thresholds():
    # columns 0 and 1 separate the classes equally well (tie across
    # features); column 1 reaches it at a lower threshold and column 2
    # repeats column 1, so (1, 0.5) is the only answer the rule allows
    X = np.array([[0.0, 0.0, 0.0], [10.0, 1.0, 1.0],
                  [20.0, 2.0, 2.0], [30.0, 3.0, 3.0]])
    weights = np.eye(2)[[0, 1, 1, 1]]
    idx = np.arange(4)
    args = (X, idx, idx[:3], weights, 4.0, 0.375)
    assert ensemble._best_split(*args) == _reference_split(*args) == (1, 0.5)
