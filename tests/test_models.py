"""Neural nets on the autograd kernel: config validation, parameter
tables, determinism, learning on separable data, divergence reporting,
checkpoint roundtrips."""

from dataclasses import replace

import numpy as np
import pytest

from hostseq.models import (
    Adam,
    NetConfig,
    NeuralClassifier,
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
    with pytest.raises(ValueError, match="positive"):
        NetConfig(kind="mlp", epochs=0)
    with pytest.raises(ValueError, match="learning_rate"):
        NetConfig(kind="mlp", learning_rate=0.0)


def test_model_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        NetConfig(kind="svm")
    with pytest.raises(ValueError, match="classes"):
        NeuralClassifier(NetConfig(kind="mlp"), 1)
    with pytest.raises(ValueError, match="token"):
        NetConfig(kind="cnn")
    with pytest.raises(ValueError, match="vocab_size"):
        NetConfig(kind="transformer")
    with pytest.raises(ValueError, match="num_heads"):
        NetConfig(kind="transformer",
                  vocab_size=10, embed_dim=32, num_heads=5)


def test_build_net_deterministic():
    config = NetConfig(kind="mlp", hidden=16, seed=7)
    a = build_net(config, 3, 8)
    b = build_net(config, 3, 8)
    c = build_net(replace(config, seed=8), 3, 8)
    for (name_a, pa), (_, pb) in zip(a.params.items(), b.params.items()):
        assert np.array_equal(pa.data, pb.data), name_a
    diff = [not np.array_equal(pa.data, pc.data)
            for pa, pc in zip(a.params.values(), c.params.values())]
    assert any(diff)


_TOKENS = dict(vocab_size=12, embed_dim=4)


@pytest.mark.parametrize("config,n_classes,width,table", [
    (NetConfig(kind="mlp", hidden=16), 3, 8,
     [("h0.w", (8, 16)), ("h0.b", (16,)), ("out.w", (16, 3)),
      ("out.b", (3,))]),
    (NetConfig(kind="cnn", filters=8, **_TOKENS), 2, 32,
     [("embed", (12, 4)), ("conv0.w", (3, 4, 8)), ("conv0.b", (8,)),
      ("conv1.w", (3, 8, 4)), ("conv1.b", (4,)), ("conv2.w", (3, 4, 2)),
      ("conv2.b", (2,)), ("head0.w", (4, 64)), ("head0.b", (64,)),
      ("head1.w", (64, 32)), ("head1.b", (32,)), ("head2.w", (32, 16)),
      ("head2.b", (16,)), ("out.w", (16, 2)), ("out.b", (2,))]),
    (NetConfig(kind="transformer", num_heads=2, **_TOKENS), 3, 6,
     [("embed", (12, 4)), ("pos", (6, 4)),
      *[(f"{n}.{p}", (4, 4) if p == "w" else (4,))
        for n in ("wq", "wk", "wv", "wo") for p in "wb"],
      ("ff1.w", (4, 8)), ("ff1.b", (8,)), ("ff2.w", (8, 4)), ("ff2.b", (4,)),
      ("out.w", (4, 3)), ("out.b", (3,)), ("ln1.gamma", (4,)),
      ("ln1.beta", (4,)), ("ln2.gamma", (4,)), ("ln2.beta", (4,))]),
], ids=["mlp-features", "cnn", "transformer"])
def test_param_table_names_order_shapes_and_decay(config, n_classes, width,
                                                  table):
    # the table's order is the checkpoint's array order
    net = build_net(config, n_classes, width)
    assert [(name, p.data.shape) for name, p in net.params.items()] == table
    # one Adam step with and without decay, from parameters shifted off
    # zero: exactly the <layer>.w weights move apart
    rng = np.random.default_rng(1)
    if config.vocab_size:
        inputs = rng.integers(0, config.vocab_size, size=(6, width))
    else:
        inputs = rng.random((6, width))
    labels = np.arange(6) % n_classes
    stepped = {}
    for alpha in (0.0, 0.5):
        net = build_net(config, n_classes, width)
        for p in net.params.values():
            p.data += 0.25
        train(net, inputs, labels, replace(
            config, learning_rate=0.1, batch_size=6, epochs=1, alpha=alpha))
        stepped[alpha] = {name: p.data for name, p in net.params.items()}
    decayed = {name for name, _ in table
               if not np.array_equal(stepped[0.0][name], stepped[0.5][name])}
    assert decayed == {name for name, _ in table if name.endswith(".w")}


def test_mlp_learns_blobs():
    X, y = blob_data(3)
    config = NetConfig(kind="mlp", hidden=32,
                       learning_rate=0.01, batch_size=16, epochs=60, seed=1)
    clf = NeuralClassifier(config, 3).fit(X, y)
    assert (clf.predict_proba(X).argmax(axis=1) == y).mean() >= 0.95
    losses = clf.history.epoch_losses
    assert len(losses) == 60
    assert losses[-1] < losses[0]


def test_training_is_deterministic():
    X, y = blob_data(4)
    config = NetConfig(kind="mlp", hidden=16,
                       learning_rate=0.01, batch_size=16, epochs=10, seed=5)
    a = NeuralClassifier(config, 3).fit(X, y)
    b = NeuralClassifier(config, 3).fit(X, y)
    assert a.history.epoch_losses == b.history.epoch_losses
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_seed_changes_trajectory():
    X, y = blob_data(4)
    config = NetConfig(kind="mlp", hidden=16, epochs=5)
    a = NeuralClassifier(replace(config, seed=1), 3).fit(X, y)
    b = NeuralClassifier(replace(config, seed=2), 3).fit(X, y)
    assert a.history.epoch_losses != b.history.epoch_losses


def test_l2_penalty_shrinks_weights():
    X, y = blob_data(6)
    config = NetConfig(kind="mlp", hidden=16, epochs=40,
                       seed=2)
    plain = NeuralClassifier(replace(config, alpha=0.0), 3).fit(X, y)
    ridge = NeuralClassifier(replace(config, alpha=1.0), 3).fit(X, y)
    norm = lambda c: sum(float((p.data ** 2).sum())
                         for p in c.net.params.values())
    assert norm(ridge) < norm(plain)


def test_divergence_raises_with_epoch():
    X, y = blob_data(7)
    config = NetConfig(kind="mlp", hidden=16,
                       learning_rate=1e200, epochs=8, batch_size=16, seed=0)
    with pytest.raises(TrainingDivergedError, match="epoch"):
        NeuralClassifier(config, 3).fit(X * 1e3, y)


def test_predict_proba_batching_consistent():
    X, y = blob_data(8, n=70)
    config = NetConfig(kind="mlp", hidden=8)
    net = build_net(config, 3, X.shape[1])
    full = predict_proba(net, X, batch_size=1000)
    chunked = predict_proba(net, X, batch_size=7)
    assert np.allclose(full, chunked, atol=1e-12)
    assert np.allclose(full.sum(axis=1), 1.0, atol=1e-9)


def test_cnn_learns_tokens():
    X, y = token_data(1, max_len=32)
    config = NetConfig(kind="cnn", vocab_size=12,
                       embed_dim=8, filters=16, kernel_size=3,
                       learning_rate=0.01, batch_size=8, epochs=30, seed=3)
    clf = NeuralClassifier(config, 2).fit(X, y)
    assert (clf.predict_proba(X).argmax(axis=1) == y).mean() >= 0.9


def test_cnn_rejects_short_max_len():
    config = NetConfig(kind="cnn", vocab_size=12,
                       embed_dim=8, filters=16, kernel_size=3)
    with pytest.raises(ValueError, match="max_len|short"):
        build_net(config, 2, 4)


def test_transformer_learns_tokens():
    X, y = token_data(2)
    config = NetConfig(kind="transformer", vocab_size=12,
                       embed_dim=8, num_heads=2, learning_rate=0.005,
                       batch_size=8, epochs=30, seed=3)
    clf = NeuralClassifier(config, 2).fit(X, y)
    assert (clf.predict_proba(X).argmax(axis=1) == y).mean() >= 0.9


def test_input_validation():
    X, y = blob_data(9)
    config = NetConfig(kind="mlp", hidden=8, epochs=1)
    clf = NeuralClassifier(config, 3)
    with pytest.raises(RuntimeError, match="not fitted"):
        clf.predict_proba(X)
    clf.fit(X, y)
    with pytest.raises(ValueError):
        clf.predict_proba(X[:, :3])
    tok_config = NetConfig(kind="transformer", vocab_size=10,
                           embed_dim=4, num_heads=1, epochs=1, batch_size=4)
    tok = NeuralClassifier(tok_config, 2)
    with pytest.raises(ValueError, match="integer"):
        tok.fit(np.zeros((4, 6), dtype=float), np.array([0, 1, 0, 1]))


@pytest.mark.parametrize("kind", ["mlp", "cnn", "transformer"])
@pytest.mark.parametrize("shape", [(6, 0), (0, 3)])
def test_fit_rejects_empty_inputs(kind, shape):
    config = NetConfig(kind=kind, vocab_size=10, embed_dim=4, num_heads=1,
                       epochs=1, batch_size=4)
    inputs = np.zeros(shape, dtype=float if kind == "mlp" else int)
    labels = np.arange(shape[0]) % 2
    with pytest.raises(ValueError, match="must be a non-empty 2-D array"):
        NeuralClassifier(config, 2).fit(inputs, labels)


def test_label_bounds_checked():
    X, y = blob_data(10)
    config = NetConfig(kind="mlp", hidden=8, epochs=1)
    bad = y.copy()
    bad[0] = 7
    with pytest.raises(ValueError):
        NeuralClassifier(config, 3).fit(X, bad)


def test_state_roundtrip():
    X, y = blob_data(11)
    config = NetConfig(kind="mlp", hidden=8, epochs=5,
                       seed=4)
    clf = NeuralClassifier(config, 3).fit(X, y)
    arrays = clf.to_checkpoint()
    fresh = NeuralClassifier(config, 3).load_arrays(arrays, X.shape[1])
    assert np.array_equal(clf.predict_proba(X), fresh.predict_proba(X))


@pytest.mark.parametrize("kind", ["cnn", "transformer"])
def test_token_net_reads_unseen_ids_as_oov_after_reload(tmp_path, kind):
    # ids 12 and 13 are in the vocabulary but in no training row
    from hostseq import store
    from hostseq.ngram import OOV_ID
    rng = np.random.default_rng(8)
    X = rng.integers(2, 12, size=(16, 30))
    config = NetConfig(kind=kind, vocab_size=14, embed_dim=8, filters=8,
                       epochs=2, batch_size=8, seed=3)
    clf = NeuralClassifier(config, 2).fit(X, np.arange(16) % 2)
    store.save_model(tmp_path / "model.bin", clf, ("a", "b"))
    restored, _ = store.load_model(tmp_path / "model.bin")
    unseen, oov = X.copy(), X.copy()
    unseen[:, -3:] = [12, 13, 12]
    oov[:, -3:] = OOV_ID
    for model in (clf, restored):
        assert model.predict_proba(unseen).tobytes() == \
            model.predict_proba(oov).tobytes()


def test_optimizers_step():
    from hostseq.autograd import Tensor
    t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    t.grad = np.array([0.5, -0.5])
    before = t.data.copy()
    Adam([t], lr=0.1).step()
    assert t.data[0] < before[0]
    assert t.data[1] > before[1]


def test_adam_in_place_matches_reference():
    from hostseq.autograd import Tensor
    rng = np.random.default_rng(5)
    shapes = [(7, 4), (3, 4, 5), (5,), (2,)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    want = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    opt = Adam(params, lr)
    for t in range(1, 13):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3)
                 for s in shapes[:-1]] + [None]  # the last has no grad
        for p, g in zip(params, grads):
            p.grad = g
        kept = [g.copy() for g in grads[:-1]]
        opt.step()
        for i, g in enumerate(grads[:-1]):
            assert np.array_equal(g, kept[i])  # step only reads grad
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g ** 2
            m_hat = m[i] / (1 - b1 ** t)
            v_hat = v[i] / (1 - b2 ** t)
            want[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for p, w in zip(params, want):
            assert np.array_equal(p.data, w)
    assert not opt.m[-1].any() and not opt.v[-1].any()
