"""Neural nets on the autograd kernel: config validation, determinism,
learning on separable data, divergence reporting, state roundtrips."""

import numpy as np
import pytest

from hostseq.models import (
    Adam,
    ModelSpec,
    NeuralClassifier,
    Sgd,
    TrainConfig,
    TrainingDivergedError,
    build_net,
    predict_proba,
    train,
)


def blob_data(seed, n=60, dim=6, classes=3, spread=0.4):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(classes, dim)) * 3
    y = np.arange(n) % classes
    X = centers[y] + rng.normal(size=(n, dim)) * spread
    return X, y


def token_data(seed, n=40, vocab=12, max_len=16, classes=2):
    """Class determined by which token dominates the tail."""
    rng = np.random.default_rng(seed)
    X = rng.integers(2, vocab, size=(n, max_len))
    y = np.arange(n) % classes
    for i in range(n):
        X[i, max_len // 2:] = 2 + y[i]
    return X, y


def test_train_config_validation():
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)


def test_model_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ModelSpec(kind="svm", n_classes=2, in_dim=4)
    with pytest.raises(ValueError, match="classes"):
        ModelSpec(kind="mlp", n_classes=1, in_dim=4)
    with pytest.raises(ValueError, match="token"):
        ModelSpec(kind="cnn", n_classes=2, input_kind="features", in_dim=4)
    with pytest.raises(ValueError, match="in_dim"):
        ModelSpec(kind="mlp", n_classes=2)
    with pytest.raises(ValueError, match="vocab_size"):
        ModelSpec(kind="transformer", n_classes=2, input_kind="tokens")
    with pytest.raises(ValueError, match="num_heads"):
        ModelSpec(kind="transformer", n_classes=2, input_kind="tokens",
                  vocab_size=10, max_len=8, embed_dim=32, num_heads=5)


def test_build_net_deterministic():
    spec = ModelSpec(kind="mlp", n_classes=3, in_dim=8, hidden=(16,))
    a = build_net(spec, seed=7)
    b = build_net(spec, seed=7)
    c = build_net(spec, seed=8)
    for (name_a, pa), (_, pb) in zip(a.named_params(), b.named_params()):
        assert np.array_equal(pa.data, pb.data), name_a
    diff = [not np.array_equal(pa.data, pc.data)
            for (_, pa), (_, pc) in zip(a.named_params(), c.named_params())]
    assert any(diff)


def test_mlp_learns_blobs():
    X, y = blob_data(3)
    spec = ModelSpec(kind="mlp", n_classes=3, in_dim=X.shape[1], hidden=(32,))
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=60, seed=1)
    clf = NeuralClassifier(spec, cfg).fit(X, y)
    assert (clf.predict_proba(X).argmax(axis=1) == y).mean() >= 0.95
    losses = clf.history.epoch_losses
    assert len(losses) == 60
    assert losses[-1] < losses[0]


def test_training_is_deterministic():
    X, y = blob_data(4)
    spec = ModelSpec(kind="mlp", n_classes=3, in_dim=X.shape[1], hidden=(16,))
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=10, seed=5)
    a = NeuralClassifier(spec, cfg).fit(X, y)
    b = NeuralClassifier(spec, cfg).fit(X, y)
    assert a.history.epoch_losses == b.history.epoch_losses
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_seed_changes_trajectory():
    X, y = blob_data(4)
    spec = ModelSpec(kind="mlp", n_classes=3, in_dim=X.shape[1], hidden=(16,))
    a = NeuralClassifier(spec, TrainConfig(epochs=5, seed=1)).fit(X, y)
    b = NeuralClassifier(spec, TrainConfig(epochs=5, seed=2)).fit(X, y)
    assert a.history.epoch_losses != b.history.epoch_losses


def test_l2_penalty_shrinks_weights():
    X, y = blob_data(6)
    spec = ModelSpec(kind="mlp", n_classes=3, in_dim=X.shape[1], hidden=(16,))
    plain = NeuralClassifier(
        spec, TrainConfig(epochs=40, seed=2, alpha=0.0)).fit(X, y)
    ridge = NeuralClassifier(
        spec, TrainConfig(epochs=40, seed=2, alpha=1.0)).fit(X, y)
    norm = lambda c: sum(float((p.data ** 2).sum())
                         for _, p in c.net.named_params())
    assert norm(ridge) < norm(plain)


def test_divergence_raises_with_epoch():
    X, y = blob_data(7)
    spec = ModelSpec(kind="mlp", n_classes=3, in_dim=X.shape[1], hidden=(16,))
    cfg = TrainConfig(learning_rate=1e12, optimizer="sgd", epochs=8,
                      batch_size=16, seed=0)
    with pytest.raises(TrainingDivergedError, match="epoch"):
        NeuralClassifier(spec, cfg).fit(X * 1e3, y)


def test_predict_proba_batching_consistent():
    X, y = blob_data(8, n=70)
    spec = ModelSpec(kind="mlp", n_classes=3, in_dim=X.shape[1], hidden=(8,))
    net = build_net(spec, seed=0)
    full = predict_proba(net, X, batch_size=1000)
    chunked = predict_proba(net, X, batch_size=7)
    assert np.allclose(full, chunked, atol=1e-12)
    assert np.allclose(full.sum(axis=1), 1.0, atol=1e-9)


def test_cnn_learns_tokens():
    X, y = token_data(1, max_len=32)
    spec = ModelSpec(kind="cnn", n_classes=2, input_kind="tokens",
                     vocab_size=12, max_len=X.shape[1], embed_dim=8,
                     filters=16, kernel_size=3)
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, epochs=30, seed=3)
    clf = NeuralClassifier(spec, cfg).fit(X, y)
    assert (clf.predict_proba(X).argmax(axis=1) == y).mean() >= 0.9


def test_cnn_rejects_short_max_len():
    spec = ModelSpec(kind="cnn", n_classes=2, input_kind="tokens",
                     vocab_size=12, max_len=4, embed_dim=8,
                     filters=16, kernel_size=3)
    with pytest.raises(ValueError, match="max_len|short"):
        build_net(spec, seed=0)


def test_transformer_learns_tokens():
    X, y = token_data(2)
    spec = ModelSpec(kind="transformer", n_classes=2, input_kind="tokens",
                     vocab_size=12, max_len=X.shape[1], embed_dim=8,
                     num_heads=2)
    cfg = TrainConfig(learning_rate=0.005, batch_size=8, epochs=30, seed=3)
    clf = NeuralClassifier(spec, cfg).fit(X, y)
    assert (clf.predict_proba(X).argmax(axis=1) == y).mean() >= 0.9


def test_input_validation():
    X, y = blob_data(9)
    spec = ModelSpec(kind="mlp", n_classes=3, in_dim=X.shape[1], hidden=(8,))
    clf = NeuralClassifier(spec, TrainConfig(epochs=1))
    with pytest.raises(RuntimeError, match="not fitted"):
        clf.predict_proba(X)
    clf.fit(X, y)
    with pytest.raises(ValueError):
        clf.predict_proba(X[:, :3])
    tok_spec = ModelSpec(kind="transformer", n_classes=2, input_kind="tokens",
                         vocab_size=10, max_len=6, embed_dim=4, num_heads=1)
    tok = NeuralClassifier(tok_spec, TrainConfig(epochs=1, batch_size=4))
    with pytest.raises(ValueError, match="integer"):
        tok.fit(np.zeros((4, 6), dtype=float), np.array([0, 1, 0, 1]))


def test_label_bounds_checked():
    X, y = blob_data(10)
    spec = ModelSpec(kind="mlp", n_classes=3, in_dim=X.shape[1], hidden=(8,))
    bad = y.copy()
    bad[0] = 7
    with pytest.raises(ValueError):
        NeuralClassifier(spec, TrainConfig(epochs=1)).fit(X, bad)


def test_state_roundtrip():
    X, y = blob_data(11)
    spec = ModelSpec(kind="mlp", n_classes=3, in_dim=X.shape[1], hidden=(8,))
    cfg = TrainConfig(epochs=5, seed=4)
    clf = NeuralClassifier(spec, cfg).fit(X, y)
    arrays = clf.state_arrays()
    fresh = NeuralClassifier(spec, cfg)
    fresh.load_state_arrays(arrays)
    assert np.array_equal(clf.predict_proba(X), fresh.predict_proba(X))


def test_optimizers_step():
    from hostseq.autograd import Tensor
    for make in (lambda p: Sgd(p, lr=0.1), lambda p: Adam(p, lr=0.1)):
        t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        t.grad = np.array([0.5, -0.5])
        before = t.data.copy()
        make([t]).step()
        assert t.data[0] < before[0]
        assert t.data[1] > before[1]
