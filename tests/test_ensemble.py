"""Decision trees, random forests and undersampling boosting."""

import numpy as np
import pytest

from hostseq import ensemble
from hostseq.ensemble import (
    DecisionTree,
    Forest,
    ForestConfig,
    RusBoostConfig,
    RusBoostModel,
    _balanced_subsample,
    fit_tree,
)


def grow(X, y, max_depth, n_classes=2, weight=1.0, **kwargs):
    """fit_tree on every row of X, each with its label and weight."""
    XT = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    weights = np.eye(n_classes)[y] * np.reshape(weight, (-1, 1))
    return fit_tree(XT, np.arange(len(y)), weights, max_depth, **kwargs)


def test_stump_threshold_midpoint():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    tree = grow(X, y, max_depth=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(2.5)
    assert np.array_equal(tree.predict(X), y)


def test_tree_learns_xor_at_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = grow(X, y, max_depth=2)
    assert np.array_equal(tree.predict(X), y)


def test_tree_respects_max_depth():
    rng = np.random.default_rng(0)
    X = rng.random((64, 3))
    y = rng.integers(0, 2, size=64)
    tree = grow(X, y, max_depth=2)
    # depth-2 binary tree has at most 7 nodes
    assert len(tree.feature) <= 7


def test_tree_pure_node_stops():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1, 1, 1])
    tree = grow(X, y, max_depth=5)
    assert len(tree.feature) == 1
    assert tree.feature[0] == -1


@pytest.mark.parametrize("X, y, max_depth", [
    (np.array([[0.0], [1.0], [2.0]]), np.array([1, 1, 1]), 5),   # pure
    (np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 1]), 0),   # depth 0
    (np.full((3, 2), 4.0), np.array([0, 1, 1]), 5),              # constant X
])
def test_single_leaf_tree(X, y, max_depth):
    tree = grow(X, y, max_depth=max_depth, n_classes=2)
    assert tree.feature.tolist() == [-1]
    assert tree.left.tolist() == tree.right.tolist() == [-1]
    assert np.isnan(tree.threshold).all()
    assert tree.counts.tolist() == [np.bincount(y, minlength=2).tolist()]
    (dist,) = tree.leaf_distributions(X)
    assert np.array_equal(dist, np.tile(np.bincount(y, minlength=2) / 3,
                                        (3, 1)))
    back = DecisionTree.from_arrays(tree.to_arrays())
    assert np.array_equal(back.leaf_distributions(X)[0], dist)


def test_tree_feature_tiebreak_prefers_lowest_index():
    col = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([col, col])
    y = np.array([0, 0, 1, 1])
    tree = grow(X, y, max_depth=1)
    assert tree.feature[0] == 0


def test_tree_threshold_tiebreak_prefers_lowest():
    # splits at 0.5 and 2.5 give the same impurity; 0.5 must win
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 0])
    tree = grow(X, y, max_depth=1)
    assert tree.threshold[0] == pytest.approx(0.5)


def test_tree_tiebreak_prefers_threshold_over_feature_index():
    # both features separate the classes perfectly; feature 1's midpoint
    # 0.5 is below feature 0's midpoint 5.0, so the lower threshold wins
    X = np.array([[0.0, 0.0], [10.0, 1.0]])
    y = np.array([0, 1])
    tree = grow(X, y, max_depth=1)
    assert tree.feature[0] == 1
    assert tree.threshold[0] == 0.5


def test_tree_sample_weight_changes_split():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 1])
    heavy_first = grow(X, y, max_depth=1,
                       weight=np.array([100.0, 1.0, 1.0, 1.0]))
    (dist,) = heavy_first.leaf_distributions(X)
    assert dist[0, 0] > 0.9  # the heavy record dominates its leaf


def test_tree_array_roundtrip():
    rng = np.random.default_rng(1)
    X = rng.random((50, 4))
    y = rng.integers(0, 3, size=50)
    tree = grow(X, y, max_depth=4, n_classes=3)
    arrays = tree.to_arrays()
    back = DecisionTree.from_arrays(arrays)
    for key, arr in back.to_arrays().items():
        assert arr.dtype == arrays[key].dtype
        assert arr.tobytes() == arrays[key].tobytes(), key
    internal = tree.feature >= 0
    assert internal.any() and (tree.counts.sum(axis=1) > 0).all()
    # an internal node's counts are its children's, added
    at = np.flatnonzero(internal)
    assert np.allclose(tree.counts[at], tree.counts[tree.left[at]]
                       + tree.counts[tree.right[at]], rtol=0, atol=1e-12)
    assert np.array_equal(tree.leaf_distributions(X)[0],
                          back.leaf_distributions(X)[0])


def test_leaf_distributions_rows_sum_to_one():
    rng = np.random.default_rng(2)
    X = rng.random((30, 3))
    y = rng.integers(0, 3, size=30)
    tree = grow(X, y, max_depth=3, n_classes=3)
    (dist,) = tree.leaf_distributions(X)
    assert dist.shape == (30, 3)
    assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-12)


def test_tree_from_arrays_rejects_node_count_mismatch():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    arrays = grow(X, np.array([0, 0, 1, 1]), 1).to_arrays()
    arrays["left"] = arrays["left"][:-1]
    with pytest.raises(ValueError, match="node count"):
        DecisionTree.from_arrays(arrays)


def test_forest_deterministic_and_averages():
    rng = np.random.default_rng(3)
    X = rng.random((80, 5))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
    cfg = ForestConfig(n_estimators=10, max_depth=3, seed=9)
    a = Forest(cfg, 2).fit(X, y)
    b = Forest(cfg, 2).fit(X, y)
    pa, pb = a.predict_proba(X), b.predict_proba(X)
    assert np.array_equal(pa, pb)
    assert np.allclose(pa.sum(axis=1), 1.0, atol=1e-12)
    assert len(a.trees) == 10
    assert (pa.argmax(axis=1) == y).mean() > 0.9


def test_forest_seed_changes_trees():
    rng = np.random.default_rng(4)
    X = rng.random((60, 5))
    y = rng.integers(0, 2, size=60)
    a = Forest(ForestConfig(n_estimators=5, max_depth=3, seed=1), 2).fit(X, y)
    b = Forest(ForestConfig(n_estimators=5, max_depth=3, seed=2), 2).fit(X, y)
    assert not np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_forest_validation():
    with pytest.raises(ValueError, match="n_estimators"):
        ForestConfig(n_estimators=0)
    with pytest.raises(ValueError, match="non-empty"):
        Forest(ForestConfig(n_estimators=1), 2).fit(np.empty((0, 3)),
                                                    np.empty(0, dtype=int))


@pytest.mark.parametrize("n_classes", [2, 3, 5])
@pytest.mark.parametrize("sample", ["bootstrap", "weighted-subsample"])
def test_fit_tree_on_rows_matches_fit_on_gathered_rows(n_classes, sample):
    # fit_forest and fit_rusboost hand fit_tree the fit's whole matrix and
    # the sample's distinct column indices. The oracle grows the tree on a
    # contiguous copy of the gathered samples, one column per draw: for a
    # bootstrap, every repeat is its own column of weight 1, in draw
    # order, where fit_forest passes one column weighted by its draws. The
    # trees must agree byte for byte. Few distinct values make ties, so
    # the stable sort order of repeated and tied samples counts.
    rng = np.random.default_rng(n_classes)
    X = rng.integers(0, 6, size=(90, 12)).astype(np.float64)
    y = rng.integers(0, n_classes, size=90)
    onehot = np.eye(n_classes)[y]
    per_split = 4 if sample == "bootstrap" else None

    def fit(XT, rows, class_weights):
        return fit_tree(XT, rows, class_weights, max_depth=6,
                        features_per_split=per_split,
                        rng=np.random.default_rng(9)).to_arrays()

    for seed in (0, 1, 2):
        rng = np.random.default_rng([seed, n_classes])
        if sample == "bootstrap":
            draws = rng.integers(0, 90, size=90)
            oracle = fit(np.ascontiguousarray(X[draws].T), np.arange(90),
                         onehot[draws])
            rows, times = np.unique(draws, return_counts=True)
            assert times.max() > 1
            indexed = fit(np.ascontiguousarray(X.T), rows,
                          onehot[rows] * times[:, None])
        else:
            rows = np.sort(rng.choice(90, size=45, replace=False))
            class_weights = onehot[rows] * rng.random((45, 1))
            oracle = fit(np.ascontiguousarray(X[rows].T), np.arange(45),
                         class_weights)
            indexed = fit(np.ascontiguousarray(X.T), rows, class_weights)
        assert oracle["feature"].size > 7
        for key, arr in oracle.items():
            assert indexed[key].dtype == arr.dtype
            assert indexed[key].tobytes() == arr.tobytes(), (seed, key)


@pytest.mark.parametrize("rows", [[], [0, 10], [-1, 0], [[0, 1]], [0.0, 1.0],
                                  [3, 3], [4, 1]],
                         ids=["empty", "past-end", "negative", "2-d", "float",
                              "repeated", "descending"])
def test_fit_tree_rejects_bad_rows(rows):
    XT = np.arange(20.0).reshape(2, 10)
    with pytest.raises(ValueError, match="rows"):
        fit_tree(XT, np.asarray(rows), np.eye(2)[[0, 0]], max_depth=2)


def test_fit_tree_needs_one_class_weight_row_per_sample():
    XT = np.arange(20.0).reshape(2, 10)
    with pytest.raises(ValueError, match="one row per sample"):
        fit_tree(XT, np.arange(3), np.eye(2)[np.zeros(10, dtype=int)],
                 max_depth=2)


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
    a = RusBoostModel(cfg, 2).fit(X, y)
    b = RusBoostModel(cfg, 2).fit(X, y)
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
    assert np.allclose(a.predict_proba(X).sum(axis=1), 1.0, atol=1e-12)
    assert all(alpha > 0 for alpha in a.alphas)


def test_rusboost_learns_imbalanced():
    rng = np.random.default_rng(7)
    n_neg, n_pos = 180, 20
    X = np.vstack([rng.normal(0.0, 1.0, size=(n_neg, 3)),
                   rng.normal(1.5, 1.0, size=(n_pos, 3))])
    y = np.array([0] * n_neg + [1] * n_pos)
    model = RusBoostModel(RusBoostConfig(n_estimators=20, seed=1), 2).fit(X, y)
    pred = model.predict_proba(X).argmax(axis=1)
    minority_recall = (pred[y == 1] == 1).mean()
    assert minority_recall >= 0.7


def test_rusboost_missing_class_errors():
    X = np.random.default_rng(8).random((10, 2))
    y = np.zeros(10, dtype=int)
    with pytest.raises(ValueError, match="class 1 has no samples"):
        RusBoostModel(RusBoostConfig(n_estimators=2), 2).fit(X, y)
    with pytest.raises(ValueError, match="at least 2"):
        RusBoostModel(RusBoostConfig(n_estimators=2), 1)


def _reference_split(XT, idx, candidates, weights, parent_total,
                     parent_gini):
    """One scalar scan per candidate feature, kept here as the reference
    the vectorized split search must match bit for bit. XT is the
    column-major (d, n) matrix that fit_tree passes."""
    best = None
    for f in candidates:
        values = XT[f, idx]
        order = np.argsort(values, kind="stable")
        v, cw = values[order], weights[order]
        boundaries = np.flatnonzero(v[:-1] < v[1:])
        if boundaries.size == 0:
            continue
        prefix = np.cumsum(cw, axis=0)
        left = prefix[boundaries]
        right = prefix[-1] - left
        wl, wr = left.sum(axis=1), right.sum(axis=1)
        # a side of weight 0 is no split; it divides by 1, not 0/0
        dl, dr = (np.where(w > 0, w, 1.0)[:, None] for w in (wl, wr))
        gini_l = 1.0 - ((left / dl) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / dr) ** 2).sum(axis=1)
        weighted = (wl * gini_l + wr * gini_r) / parent_total
        weighted[(wl == 0) | (wr == 0)] = np.inf
        b = int(np.argmin(weighted))
        impurity = float(weighted[b])
        lo, hi = v[boundaries[b]], v[boundaries[b] + 1]
        thr = float((lo + hi) / 2.0)
        if thr == hi:
            thr = float(lo)
        if impurity > parent_gini:
            continue
        if best is None or impurity < best[0] \
                or (impurity == best[0] and thr < best[2]):
            best = (impurity, int(f), thr)
    return None if best is None else best[1:]


def _reference_search(XT, at, candidates, column_weights, parent_total,
                      parent_gini, presort=None):
    """_reference_split called the way fit_tree calls _best_split: the
    class weights come per column of XT, and the node takes its rows'."""
    return _reference_split(XT, at, candidates, column_weights[:, at].T,
                            parent_total, parent_gini)


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
    w = rng.integers(1, 4, size=90) * 0.1 if weighted else 1.0
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
        assert found == _reference_search(*args)
        splits.append(found)
        return found

    def fit(search):
        monkeypatch.setattr(ensemble, "_best_split", search)
        rng = np.random.default_rng(3) if per_split else None
        return grow(X, y, 6, n_classes=3, weight=w,
                    features_per_split=per_split, rng=rng).to_arrays()

    fast = fit(checked)
    slow = fit(_reference_search)
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
    column_weights = np.eye(2)[[0, 1, 1, 1]].T
    idx = np.arange(4)
    args = (X.T, idx, idx[:3], column_weights, 4.0, 0.375)
    assert ensemble._best_split(*args) == _reference_search(*args) == (1, 0.5)


@pytest.mark.parametrize("column, weight, split", [
    ([0, 1, 2, 3, 4], [1, 1, 1, 1, 1e-16], (0, 1.5)),
    ([0, 1, 2, 3, 4], [0, 1, 1, 1, 1], (0, 1.5)),
    ([0, 0, 0, 0, 1], [1, 1, 1, 1, 0], None),
], ids=["right-rounds-to-0", "left-of-0", "only-cut-leaves-0"])
def test_a_cut_with_a_side_of_zero_weight_is_no_split(column, weight, split):
    # 2 + 1e-16 rounds to 2, so right of the last cut the prefix sums
    # leave 2 - 2 = 0, and a first row of weight 0 leaves 0 left of the
    # first cut. Such a cut splits off no weight, so like a cut between
    # equal values it is no split: not 0/0 = nan, which argmin would
    # pick, dropping the column's cut at 1.5, nor a child of weight 0.
    XT = np.array([column], dtype=np.float64)
    class_weights = np.eye(2)[[0, 0, 1, 1, 1]] * np.reshape(weight, (-1, 1))
    total = class_weights.sum()
    args = (XT, np.arange(5), np.array([0]), class_weights.T, total,
            ensemble._gini(class_weights.sum(axis=0), total))
    assert ensemble._best_split(*args) == _reference_search(*args) == split
    tree = fit_tree(XT, np.arange(5), class_weights, 3)
    assert tree.feature.tolist() == ([-1] if split is None else [0, -1, -1])


def test_weights_whose_products_underflow_grow_the_same_tree():
    # at weights of 2^-600 the zero-side check's product of end weights
    # underflows to 0, so every pass takes the slow path, which must
    # score positive weights as they are: the same tree, counts scaled
    X, y, w = _split_case(7, 12, True)
    tiny, plain = (grow(X, y, 6, n_classes=3, weight=w * scale)
                   for scale in (2.0 ** -600, 1.0))
    assert (plain.feature >= 0).sum() > 5
    for key in ("feature", "threshold", "left", "right"):
        assert getattr(tiny, key).tobytes() == getattr(plain, key).tobytes()
    assert np.array_equal(tiny.counts, plain.counts * 2.0 ** -600)


@pytest.mark.parametrize("n_classes", [2, 4, 5])
def test_split_search_matches_reference_at_other_class_counts(monkeypatch,
                                                              n_classes):
    # the search adds the classes one at a time, the reference reduces
    # a class axis
    X, _, _ = _split_case(n_classes, 12, False)
    rng = np.random.default_rng(n_classes)
    y = rng.integers(0, n_classes, size=90)
    w = rng.random(90)
    vectorized = ensemble._best_split
    fits = []
    for search in (vectorized, _reference_search):
        monkeypatch.setattr(ensemble, "_best_split", search)
        tree = grow(X, y, 6, weight=w, n_classes=n_classes)
        fits.append({key: arr.tobytes()
                     for key, arr in tree.to_arrays().items()})
    assert (tree.feature >= 0).sum() > 5
    assert fits[0] == fits[1]


@pytest.mark.parametrize("weighted", [False, True])
def test_split_search_does_not_depend_on_block_width(monkeypatch, weighted):
    # 150 columns: one column per pass, uneven passes, the default, and
    # every column in one pass must all grow the same tree
    X, y, w = _split_case(11, 150, weighted)
    fits = []
    for block in (1, 7, 64, 150, 1000):
        monkeypatch.setattr(ensemble, "_BLOCK", block)
        tree = grow(X, y, 6, weight=w, n_classes=3)
        fits.append({key: arr.tobytes()
                     for key, arr in tree.to_arrays().items()})
    assert tree.feature.max() >= 64   # a split found past the first pass
    assert all(fit == fits[0] for fit in fits[1:])


@pytest.mark.parametrize("n_classes", [2, 3, 5])
@pytest.mark.parametrize("block", [1, 64])
@pytest.mark.parametrize("weights", ["real", "order-dependent"])
def test_presort_grows_the_node_sorted_tree(monkeypatch, n_classes, block,
                                            weights):
    # a tree that keeps its rows of the fit's presort, and a node that
    # keeps its own of the tree's, must see the order the node's own
    # stable sort gives, ties included: with real-valued weights a
    # prefix sum depends on the order within ties. Four values over 70
    # rows make tie runs of more than 16, which numpy's unstable sorts
    # reorder, and weights of 1 beside 1e-16 make a sum over a tie run
    # depend on its order (1 + 1e-16 rounds to 1), and can leave a side
    # of a cut of weight 0. The rows are a sorted subsample, so the
    # filter drops columns of XT.
    X, _, _ = _split_case(20 + n_classes, 150, False)
    rng = np.random.default_rng(n_classes)
    y = rng.integers(0, n_classes, size=90)
    rows = np.sort(rng.choice(90, size=70, replace=False))
    XT = np.ascontiguousarray(X.T)
    presort = np.argsort(XT, axis=1, kind="stable")
    monkeypatch.setattr(ensemble, "_BLOCK", block)
    for seed in range(4):
        rng = np.random.default_rng([seed, n_classes])
        if weights == "real":
            w = rng.random((70, 1))
        else:
            w = np.where(rng.random((70, 1)) < 0.1, 1.0, 1e-16)
        class_weights = np.eye(n_classes)[y[rows]] * w
        for per_split in (None, 40):
            fits = []
            for order in (None, presort):
                rng = np.random.default_rng(5) if per_split else None
                tree = fit_tree(XT, rows, class_weights, 6,
                                features_per_split=per_split, rng=rng,
                                presort=order)
                fits.append({key: arr.tobytes()
                             for key, arr in tree.to_arrays().items()})
            assert (tree.feature >= 0).sum() > 5
            assert fits[0] == fits[1], (seed, per_split)


def test_rusboost_presort_keeps_the_node_sorted_models(monkeypatch):
    # fit_rusboost presorts once per fit; the rounds' real-valued weights
    # must give the same models as trees that sort at every node. On
    # these data an unstable presort grows other models.
    cfg = RusBoostConfig(n_estimators=12, learning_rate=0.5, max_depth=3,
                         seed=2)

    def node_sorted(*args, presort, **kwargs):
        assert presort.shape == (20, 80)
        return fit_tree(*args, **kwargs)

    for seed in (2, 4, 12):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, size=(80, 20)).astype(np.float64)
        y = rng.integers(0, 3, size=80)
        presorted = RusBoostModel(cfg, 3).fit(X, y)
        with monkeypatch.context() as patch:
            patch.setattr(ensemble, "fit_tree", node_sorted)
            sorted_per_node = RusBoostModel(cfg, 3).fit(X, y)
        assert len(presorted.trees) == 12
        a, b = (model.to_checkpoint() for model in (presorted,
                                                    sorted_per_node))
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), (seed, key)


def test_rusboost_presorts_subsamples_of_a_quarter_or_more(monkeypatch):
    # a tree keeps its rows of the presort in a pass over every row, so
    # fit_rusboost presorts only where the balanced subsample, classes
    # times the minority count, is at least a quarter of the rows
    presorted = []

    def recorded(*args, presort, **kwargs):
        presorted.append(presort is not None)
        return fit_tree(*args, presort=presort, **kwargs)

    monkeypatch.setattr(ensemble, "fit_tree", recorded)
    X = np.random.default_rng(13).random((100, 4))
    cfg = RusBoostConfig(n_estimators=2, max_depth=1, seed=1)
    for minority, presort in ((9, True), (8, False)):
        y = np.repeat([0, 1, 2], [100 - 2 * minority, minority, minority])
        presorted.clear()
        RusBoostModel(cfg, 3).fit(X, y)
        assert presorted and set(presorted) == {presort}, minority


@pytest.mark.parametrize("n_classes", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forest_cut_at_depth_is_the_shallower_forest(n_classes, seed):
    # fit_tree grows level by level from one rng stream, so every tree of
    # a depth-8 forest, cut at depth d, is the tree a depth-d fit grows
    # on the same bootstrap rows; few distinct values make ties
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(80, 16)).astype(np.float64)
    y = rng.integers(0, n_classes, size=80)
    deep = Forest(ForestConfig(n_estimators=4, max_depth=8, seed=seed),
                  n_classes).fit(X, y)
    stages = [{"n_estimators": k, "max_depth": d}
              for d in (1, 2, 3, 5, 8) for k in (1, 3, 4)]
    staged = deep.staged_predict_proba(X, stages)
    grew = 0
    for stage, proba in zip(stages, staged):
        shallow = Forest(ForestConfig(seed=seed, **stage), n_classes).fit(X, y)
        assert proba.tobytes() == shallow.predict_proba(X).tobytes(), stage
        for cut, tree in zip(shallow.trees, deep.trees):
            n = cut.feature.size
            grew += n < tree.feature.size
            inner = cut.feature >= 0
            assert cut.counts.tobytes() == tree.counts[:n].tobytes()
            for key in ("feature", "threshold", "left", "right"):
                assert np.array_equal(getattr(cut, key)[inner],
                                      getattr(tree, key)[:n][inner]), key
    assert grew > 10   # the cuts took nodes off
    assert staged[-1].tobytes() == deep.predict_proba(X).tobytes()


@pytest.mark.parametrize("seed", [0, 18, 3])
def test_rusboost_round_prefixes_are_the_shorter_fits(seed):
    # seeds 0 and 18 stop early, after 9 and 6 of 30 rounds
    rng = np.random.default_rng(seed)
    X = rng.random((60, 3))
    y = rng.integers(0, 2, 60)
    cfg = RusBoostConfig(n_estimators=30, learning_rate=1.0, max_depth=1,
                         seed=seed)
    full = RusBoostModel(cfg, 2).fit(X, y)
    stages = [{"n_estimators": k} for k in (1, 2, 6, 9, 12, 30)]
    for stage, proba in zip(stages, full.staged_predict_proba(X, stages)):
        alone = RusBoostModel(RusBoostConfig(
            learning_rate=1.0, max_depth=1, seed=seed, **stage), 2).fit(X, y)
        assert proba.tobytes() == alone.predict_proba(X).tobytes(), stage
    assert (len(full.trees) < 30) == (seed != 3)


@pytest.mark.parametrize("stage", [{"n_estimators": 4}, {"max_depth": 4},
                                   {"n_estimators": 0}])
def test_forest_stage_beyond_the_fit_is_rejected(stage):
    X = np.random.default_rng(4).random((20, 3))
    forest = Forest(ForestConfig(n_estimators=3, max_depth=3), 2).fit(
        X, np.arange(20) % 2)
    with pytest.raises(ValueError, match="stage"):
        forest.staged_predict_proba(X, [stage])


def test_tree_estimators_reject_another_width():
    # a checkpoint records the width, so a wider matrix is not scored on
    # its first columns
    rng = np.random.default_rng(5)
    X = rng.random((30, 4))
    y = np.arange(30) % 2
    for model in (Forest(ForestConfig(n_estimators=2), 2).fit(X, y),
                  RusBoostModel(RusBoostConfig(n_estimators=2), 2).fit(X, y)):
        assert model.n_features == 4
        for width in (3, 5):
            with pytest.raises(ValueError, match=r"\(n, 4\)"):
                model.predict_proba(rng.random((3, width)))


@pytest.mark.parametrize("lo", [0.009880919160520809, 1.0, -3.5])
def test_split_between_adjacent_floats_gives_both_children_rows(lo):
    # the midpoint of lo and the next float rounds to that float; the
    # split must still send lo left and hi right, or a child gets no rows
    # and a row that reaches it scores 0/0
    hi = np.nextafter(lo, np.inf)
    X = np.array([[lo], [lo], [hi], [hi]])
    y = np.array([0, 0, 1, 1])
    tree = grow(X, y, max_depth=3)
    assert tree.feature.tolist() == [0, -1, -1]
    assert lo <= tree.threshold[0] < hi
    assert np.array_equal(tree.predict(X), y)
