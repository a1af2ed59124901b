"""Decision trees, random forests and undersampling boosting."""

import numpy as np
import pytest

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
    back = DecisionTree.from_arrays(tree.to_arrays(), max_depth=4)
    assert np.array_equal(tree.predict(X), back.predict(X))
    assert np.allclose(tree.leaf_distributions(X), back.leaf_distributions(X))


def test_leaf_distributions_rows_sum_to_one():
    rng = np.random.default_rng(2)
    X = rng.random((30, 3))
    y = rng.integers(0, 3, size=30)
    tree = fit_tree(X, y, max_depth=3, n_classes=3)
    dist = tree.leaf_distributions(X)
    assert dist.shape == (30, 3)
    assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-12)


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

