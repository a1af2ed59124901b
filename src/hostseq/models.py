"""Neural classifiers built on the autograd kernel.

Three architectures share one training loop: a dense network over fixed
feature vectors (or over embedded token sequences), a 1-D convolutional
network over token sequences, and a single-block transformer encoder.
All arithmetic is float64 and every random draw comes from a seed derived
with util.derive_seed, so repeated fits are bit-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .util import derive_seed


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 300
    optimizer: str = "adam"
    alpha: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description, sufficient to rebuild the network."""

    kind: str                      # mlp | cnn | transformer
    n_classes: int
    input_kind: str = "features"   # features | tokens
    in_dim: int = 0                # feature input width
    hidden: tuple = (100,)         # mlp hidden layer sizes
    vocab_size: int = 0            # token inputs
    max_len: int = 0
    embed_dim: int = 32
    filters: int = 64              # cnn first conv channels
    kernel_size: int = 3
    num_heads: int = 1

    def __post_init__(self):
        if self.kind not in ("mlp", "cnn", "transformer"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_kind not in ("features", "tokens"):
            raise ValueError(f"unknown input kind {self.input_kind!r}")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.kind in ("cnn", "transformer") and self.input_kind != "tokens":
            raise ValueError(f"{self.kind} requires token input")
        if self.input_kind == "features" and self.in_dim < 1:
            raise ValueError("feature input requires in_dim")
        if self.input_kind == "tokens":
            if self.vocab_size < 2 or self.max_len < 1:
                raise ValueError("token input requires vocab_size and max_len")
        if self.kind == "transformer" and self.embed_dim % self.num_heads:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by "
                f"num_heads {self.num_heads}")


def xavier_uniform(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class _Linear:
    def __init__(self, rng, fan_in, fan_out):
        self.w = Tensor(xavier_uniform(rng, fan_in, fan_out, (fan_in, fan_out)),
                        requires_grad=True)
        self.b = Tensor(np.zeros(fan_out), requires_grad=True)

    def __call__(self, x):
        return ag.dense(x, self.w, self.b)


class _LayerNorm:
    def __init__(self, dim):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x):
        return ag.layer_norm(x, self.gamma, self.beta)


def _embedding_table(rng, rows, dim) -> Tensor:
    return Tensor(rng.normal(0.0, 0.05, size=(rows, dim)), requires_grad=True)


class MlpNet:
    """Dense ReLU stack. Token input is embedded and flattened first."""

    def __init__(self, spec: ModelSpec, rng):
        self.spec = spec
        self.embed = None
        if spec.input_kind == "tokens":
            self.embed = _embedding_table(rng, spec.vocab_size, spec.embed_dim)
            width = spec.max_len * spec.embed_dim
        else:
            width = spec.in_dim
        self.layers = []
        for h in spec.hidden:
            self.layers.append(_Linear(rng, width, h))
            width = h
        self.out = _Linear(rng, width, spec.n_classes)

    def forward(self, inputs) -> Tensor:
        if self.embed is not None:
            x = ag.embedding(self.embed, inputs)
            x = ag.reshape(x, (inputs.shape[0], -1))
        else:
            x = Tensor(inputs)
        for layer in self.layers:
            x = ag.relu(layer(x))
        return self.out(x)

    def named_params(self):
        out = []
        if self.embed is not None:
            out.append(("embed", self.embed))
        for i, layer in enumerate(self.layers):
            out += [(f"h{i}.w", layer.w), (f"h{i}.b", layer.b)]
        out += [("out.w", self.out.w), ("out.b", self.out.b)]
        return out

    def penalized(self):
        return [layer.w for layer in self.layers] + [self.out.w]


class CnnNet:
    """Embedded tokens through three conv+pool stages, then a dense head.

    Conv channels shrink as (filters, filters/2, filters/4); each stage
    is a valid convolution followed by width-2 max pooling.
    """

    HEAD = (64, 32, 16)

    def __init__(self, spec: ModelSpec, rng):
        self.spec = spec
        self.embed = _embedding_table(rng, spec.vocab_size, spec.embed_dim)
        channels = [spec.embed_dim, spec.filters,
                    max(spec.filters // 2, 1), max(spec.filters // 4, 1)]
        k = spec.kernel_size
        self.convs = []
        length = spec.max_len
        for c_in, c_out in zip(channels, channels[1:]):
            fan_in, fan_out = k * c_in, k * c_out
            w = Tensor(xavier_uniform(rng, fan_in, fan_out, (k, c_in, c_out)),
                       requires_grad=True)
            b = Tensor(np.zeros(c_out), requires_grad=True)
            self.convs.append((w, b))
            length = (length - k + 1) // 2
            if length < 1:
                raise ValueError(
                    f"max_len {spec.max_len} too short for 3 conv/pool stages")
        width = length * channels[-1]
        self.head = []
        for h in self.HEAD:
            self.head.append(_Linear(rng, width, h))
            width = h
        self.out = _Linear(rng, width, spec.n_classes)

    def forward(self, inputs) -> Tensor:
        x = ag.embedding(self.embed, inputs)
        for w, b in self.convs:
            x = ag.maxpool1d(ag.relu(ag.conv1d(x, w, b)), 2)
        x = ag.reshape(x, (inputs.shape[0], -1))
        for layer in self.head:
            x = ag.relu(layer(x))
        return self.out(x)

    def named_params(self):
        out = [("embed", self.embed)]
        for i, (w, b) in enumerate(self.convs):
            out += [(f"conv{i}.w", w), (f"conv{i}.b", b)]
        for i, layer in enumerate(self.head):
            out += [(f"head{i}.w", layer.w), (f"head{i}.b", layer.b)]
        out += [("out.w", self.out.w), ("out.b", self.out.b)]
        return out

    def penalized(self):
        return ([w for w, _ in self.convs]
                + [layer.w for layer in self.head] + [self.out.w])


class TransformerNet:
    """Single post-norm encoder block over embedded tokens.

    Token and learned position embeddings are summed, pass through
    multi-head self attention and a 2x-wide feed-forward (each followed
    by residual add and layer norm), then mean-pool over positions into
    a dense softmax head.
    """

    def __init__(self, spec: ModelSpec, rng):
        self.spec = spec
        e = spec.embed_dim
        self.embed = _embedding_table(rng, spec.vocab_size, e)
        self.pos = _embedding_table(rng, spec.max_len, e)
        self.wq = _Linear(rng, e, e)
        self.wk = _Linear(rng, e, e)
        self.wv = _Linear(rng, e, e)
        self.wo = _Linear(rng, e, e)
        self.ln1 = _LayerNorm(e)
        self.ff1 = _Linear(rng, e, 2 * e)
        self.ff2 = _Linear(rng, 2 * e, e)
        self.ln2 = _LayerNorm(e)
        self.out = _Linear(rng, e, spec.n_classes)

    def _attention(self, x: Tensor, batch: int, length: int) -> Tensor:
        e, h = self.spec.embed_dim, self.spec.num_heads
        dh = e // h

        def split(t):
            return ag.transpose(ag.reshape(t, (batch, length, h, dh)),
                                (0, 2, 1, 3))
        q, k, v = split(self.wq(x)), split(self.wk(x)), split(self.wv(x))
        ctx, _ = ag.scaled_dot_product_attention(q, k, v)
        merged = ag.reshape(ag.transpose(ctx, (0, 2, 1, 3)),
                            (batch, length, e))
        return self.wo(merged)

    def forward(self, inputs) -> Tensor:
        batch, length = inputs.shape
        if length > self.spec.max_len:
            raise ValueError(
                f"sequence length {length} exceeds max_len {self.spec.max_len}")
        pos_ids = np.tile(np.arange(length), (batch, 1))
        x = ag.add(ag.embedding(self.embed, inputs),
                   ag.embedding(self.pos, pos_ids))
        x = self.ln1(ag.add(x, self._attention(x, batch, length)))
        ff = self.ff2(ag.relu(self.ff1(x)))
        x = self.ln2(ag.add(x, ff))
        pooled = ag.mean(x, axis=1)
        return self.out(pooled)

    def named_params(self):
        out = [("embed", self.embed), ("pos", self.pos)]
        for name in ("wq", "wk", "wv", "wo", "ff1", "ff2", "out"):
            layer = getattr(self, name)
            out += [(f"{name}.w", layer.w), (f"{name}.b", layer.b)]
        for name in ("ln1", "ln2"):
            layer = getattr(self, name)
            out += [(f"{name}.gamma", layer.gamma), (f"{name}.beta", layer.beta)]
        return out

    def penalized(self):
        return [getattr(self, n).w
                for n in ("wq", "wk", "wv", "wo", "ff1", "ff2", "out")]


_NET_CLASSES = {"mlp": MlpNet, "cnn": CnnNet, "transformer": TransformerNet}


def build_net(spec: ModelSpec, seed: int):
    rng = np.random.default_rng(derive_seed(seed, "init", spec.kind))
    return _NET_CLASSES[spec.kind](spec, rng)


class Sgd:
    def __init__(self, params, lr):
        self.params = params
        self.lr = lr

    def step(self):
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self.m[i] = b1 * self.m[i] + (1 - b1) * p.grad
            self.v[i] = b2 * self.v[i] + (1 - b2) * p.grad ** 2
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _make_optimizer(config: TrainConfig, params):
    if config.optimizer == "sgd":
        return Sgd(params, config.learning_rate)
    return Adam(params, config.learning_rate)


@dataclass
class FitResult:
    epoch_losses: list = field(default_factory=list)


def train(net, inputs, labels, config: TrainConfig) -> FitResult:
    """Run the mini-batch loop; raises TrainingDivergedError on a
    non-finite loss, naming the 1-based epoch."""
    labels = np.asarray(labels)
    n = inputs.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must be one per input row")
    params = [p for _, p in net.named_params()]
    penalized = net.penalized()
    opt = _make_optimizer(config, params)
    result = FitResult()
    for epoch in range(1, config.epochs + 1):
        perm = np.random.default_rng(
            derive_seed(config.seed, "shuffle", epoch)).permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            for p in params:
                p.zero_grad()
            loss = ag.cross_entropy(net.forward(inputs[idx]), labels[idx])
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(
                    f"loss became non-finite at epoch {epoch}")
            loss.backward()
            if config.alpha:
                for w in penalized:
                    w.grad = (w.grad if w.grad is not None else 0.0) \
                        + config.alpha * w.data
            opt.step()
            total += float(loss.data) * len(idx)
        result.epoch_losses.append(total / n)
    return result


def predict_proba(net, inputs, batch_size: int = 256) -> np.ndarray:
    """Class probabilities, rows summing to 1."""
    chunks = []
    for start in range(0, inputs.shape[0], batch_size):
        logits = net.forward(inputs[start:start + batch_size])
        chunks.append(ag.softmax(logits, axis=-1).data)
    return np.concatenate(chunks, axis=0)


class NeuralClassifier:
    """fit/predict_proba wrapper tying a ModelSpec to a TrainConfig."""

    FAMILY = "neural"

    def __init__(self, spec: ModelSpec, config: TrainConfig):
        self.spec = spec
        self.config = config
        self.net = None
        self.history = None

    def fit(self, inputs, labels):
        inputs = self._check_inputs(inputs)
        labels = np.asarray(labels)
        if labels.min() < 0 or labels.max() >= self.spec.n_classes:
            raise ValueError(
                f"labels must lie in [0, {self.spec.n_classes})")
        self.net = build_net(self.spec, self.config.seed)
        self.history = train(self.net, inputs, labels, self.config)
        return self

    def predict_proba(self, inputs) -> np.ndarray:
        if self.net is None:
            raise RuntimeError("classifier is not fitted")
        return predict_proba(self.net, self._check_inputs(inputs),
                             self.config.batch_size)

    def predict(self, inputs) -> np.ndarray:
        return self.predict_proba(inputs).argmax(axis=1)

    def _check_inputs(self, inputs):
        if self.spec.input_kind == "tokens":
            inputs = np.asarray(inputs)
            if inputs.ndim != 2 or inputs.shape[1] != self.spec.max_len:
                raise ValueError(
                    f"token input must be (n, {self.spec.max_len})")
            if not np.issubdtype(inputs.dtype, np.integer):
                raise ValueError("token input must be integer ids")
            return inputs
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.spec.in_dim:
            raise ValueError(f"feature input must be (n, {self.spec.in_dim})")
        return inputs

    def state_arrays(self) -> dict:
        if self.net is None:
            raise RuntimeError("classifier is not fitted")
        return {name: p.data for name, p in self.net.named_params()}

    def load_state_arrays(self, arrays: dict):
        self.net = build_net(self.spec, self.config.seed)
        named = dict(self.net.named_params())
        missing = set(named) - set(arrays)
        extra = set(arrays) - set(named)
        if missing or extra:
            raise ValueError(
                f"parameter mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}")
        for name, p in named.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr
        return self

    def to_checkpoint(self):
        meta = {"spec": asdict(self.spec), "config": asdict(self.config)}
        return self.spec.kind, meta, self.state_arrays()

    @classmethod
    def from_checkpoint(cls, meta, arrays) -> "NeuralClassifier":
        spec = ModelSpec(**{**meta["spec"],
                            "hidden": tuple(meta["spec"]["hidden"])})
        return cls(spec, TrainConfig(**meta["config"])).load_state_arrays(
            arrays)
