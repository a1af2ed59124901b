"""Central finite-difference gradient checks for every autograd op, plus
exact-value sanity checks for forward behavior."""

import numpy as np
import pytest

from hostseq import autograd as ag


EPS = 1e-5
RTOL = 1e-4


def to_scalar(t):
    """Weighted mean over all axes so every output entry influences the
    loss with a distinct coefficient (symmetry cannot hide sign errors)."""
    rng = np.random.default_rng(99)
    w = ag.Tensor(rng.normal(size=t.data.shape))
    out = ag.mul(t, w)
    while out.data.ndim > 0:
        out = ag.mean(out, axis=0)
    return out


def check_gradients(build, arrays, eps=EPS, rtol=RTOL):
    """Compare backward() gradients against central finite differences of
    the same forward computation for every input array."""
    tensors = [ag.Tensor(a, requires_grad=True) for a in arrays]
    loss = to_scalar(build(*tensors))
    loss.backward()

    def value(arrs):
        ts = [ag.Tensor(a) for a in arrs]
        return float(to_scalar(build(*ts)).data)

    worst = 0.0
    for pos, (t, a) in enumerate(zip(tensors, arrays)):
        assert t.grad is not None, f"input {pos} received no gradient"
        assert t.grad.shape == a.shape
        fd = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = [x.copy() for x in arrays]
            minus = [x.copy() for x in arrays]
            plus[pos][idx] += eps
            minus[pos][idx] -= eps
            fd[idx] = (value(plus) - value(minus)) / (2 * eps)
        denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(fd)), 1e-3)
        worst = max(worst, float(np.max(np.abs(t.grad - fd) / denom)))
    assert worst < rtol, f"max relative gradient error {worst:.3e}"
    return worst


SEEDS = range(10)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_add_mul_broadcast(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(4,))
    check_gradients(lambda a, b: ag.mul(ag.add(a, b), a), [x, y])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_dense(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 5))
    w = rng.normal(size=(5, 3))
    b = rng.normal(size=(3,))
    check_gradients(ag.dense, [x, w, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_matmul_batched(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 2))
    check_gradients(ag.matmul, [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_relu(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 4))
    x += np.sign(x) * 0.05  # keep entries away from the kink
    check_gradients(ag.relu, [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_reshape_transpose_mean(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 4))

    def build(t):
        r = ag.reshape(t, (2, 12))
        back = ag.reshape(r, (2, 3, 4))
        return ag.mean(ag.transpose(back, (2, 0, 1)), axis=1)

    check_gradients(build, [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_softmax(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 5))
    check_gradients(lambda t: ag.softmax(t, axis=-1), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_softmax_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    check_gradients(lambda t: ag.cross_entropy(t, labels), [logits])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_embedding(seed):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(7, 3))
    ids = rng.integers(0, 7, size=(2, 5))  # repeats exercise accumulation
    check_gradients(lambda t: ag.embedding(t, ids), [table])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_conv1d(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 7, 3))
    w = rng.normal(size=(3, 3, 4))
    b = rng.normal(size=(4,))
    check_gradients(ag.conv1d, [x, w, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_maxpool(seed):
    rng = np.random.default_rng(seed)
    # spread values so FD perturbation cannot flip a window argmax
    x = rng.permutation(2 * 6 * 3).reshape(2, 6, 3) * 0.1
    check_gradients(lambda t: ag.maxpool1d(t, width=2), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_layer_norm(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4, 5))
    gamma = rng.normal(size=(5,)) + 1.5
    beta = rng.normal(size=(5,))
    check_gradients(ag.layer_norm, [x, gamma, beta])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_attention(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(2, 4, 3))
    k = rng.normal(size=(2, 4, 3))
    v = rng.normal(size=(2, 4, 3))
    check_gradients(
        lambda a, b, c: ag.scaled_dot_product_attention(a, b, c)[0], [q, k, v])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_multi_head_attention(seed):
    rng = np.random.default_rng(seed)
    batch, length, dim, heads = 2, 3, 4, 2
    head_dim = dim // heads
    x = rng.normal(size=(batch, length, dim))
    params = [rng.normal(size=(dim, dim)) * 0.5 for _ in range(4)]

    def build(xt, wq, wk, wv, wo):
        def split(t):
            t = ag.reshape(t, (batch, length, heads, head_dim))
            return ag.transpose(t, (0, 2, 1, 3))
        q = split(ag.matmul(xt, wq))
        k = split(ag.matmul(xt, wk))
        v = split(ag.matmul(xt, wv))
        mixed, _ = ag.scaled_dot_product_attention(q, k, v)
        joined = ag.reshape(ag.transpose(mixed, (0, 2, 1, 3)),
                            (batch, length, dim))
        return ag.matmul(joined, wo)

    check_gradients(build, [x] + params)


# --- forward-value checks ---

def test_softmax_rows_sum_to_one(rng):
    x = ag.Tensor(rng.normal(size=(4, 6)))
    p = ag.softmax(x, axis=-1).data
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(p > 0)


def test_cross_entropy_matches_log_loss(rng):
    logits = rng.normal(size=(5, 3))
    labels = np.array([0, 2, 1, 1, 0])
    loss = float(ag.cross_entropy(ag.Tensor(logits), labels).data)
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    want = -np.mean(np.log(p[np.arange(5), labels]))
    assert loss == pytest.approx(want, rel=1e-12)


def test_conv1d_output_length(rng):
    x = ag.Tensor(rng.normal(size=(1, 9, 2)))
    w = ag.Tensor(rng.normal(size=(4, 2, 3)))
    b = ag.Tensor(np.zeros(3))
    assert ag.conv1d(x, w, b).shape == (1, 6, 3)


@pytest.mark.parametrize("length,c_in,c_out",
                         [(28, 32, 64), (13, 64, 32), (5, 32, 16)])
def test_conv1d_weight_grad_matches_einsum(rng, length, c_in, c_out):
    # the token-cv CNN's three stages at batch 32; the per-sample products
    # sum in another order than the einsum, so equal within 1e-12 relative
    k, batch = 3, 32
    l_out = length - k + 1
    x = rng.normal(size=(batch, length, c_in))
    g = rng.normal(size=(batch, l_out, c_out))
    w = ag.Tensor(rng.normal(size=(k, c_in, c_out)), requires_grad=True)
    ag.conv1d(ag.Tensor(x), w, ag.Tensor(np.zeros(c_out))).backward(g)
    want = np.stack([np.einsum("blc,bld->cd", x[:, i:i + l_out, :], g)
                     for i in range(k)])
    assert np.abs(w.grad - want).max() <= 1e-12 * np.abs(want).max()


def test_maxpool_drops_remainder(rng):
    x = ag.Tensor(rng.normal(size=(1, 7, 2)))
    out = ag.maxpool1d(x, width=2)
    assert out.shape == (1, 3, 2)
    assert np.array_equal(out.data[0, 0],
                          np.maximum(x.data[0, 0], x.data[0, 1]))


def test_embedding_lookup(rng):
    table = ag.Tensor(rng.normal(size=(5, 3)))
    out = ag.embedding(table, np.array([[0, 4], [2, 2]]))
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out.data[0, 1], table.data[4])


def test_diamond_graph_accumulates(rng):
    x = ag.Tensor(rng.normal(size=(3,)), requires_grad=True)
    y = ag.add(ag.mul(x, x), x)  # x used by two consumers
    while y.data.ndim > 0:
        y = ag.mean(y, axis=0)
    y.backward()
    assert np.allclose(x.grad, (2 * x.data + 1) / 3, atol=1e-12)


def test_attention_weights_are_probabilities(rng):
    q = ag.Tensor(rng.normal(size=(2, 4, 3)))
    k = ag.Tensor(rng.normal(size=(2, 4, 3)))
    v = ag.Tensor(rng.normal(size=(2, 4, 3)))
    out, weights = ag.scaled_dot_product_attention(q, k, v)
    assert out.shape == (2, 4, 3)
    assert weights.shape == (2, 4, 4)
    assert np.allclose(weights.data.sum(axis=-1), 1.0, atol=1e-12)


def test_layer_norm_standardizes(rng):
    x = ag.Tensor(rng.normal(size=(4, 6)) * 3 + 2)
    out = ag.layer_norm(x, ag.Tensor(np.ones(6)), ag.Tensor(np.zeros(6)))
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)
