"""Neural classifiers built on the autograd kernel.

Three architectures share one training loop: a dense network over fixed
feature vectors, and a 1-D convolutional network and a single-block
transformer encoder over token sequences.
All arithmetic is float64 and every random draw comes from a seed derived
with util.derive_seed, so repeated fits are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .ngram import OOV_ID, PAD_ID
from .util import DataError, Estimator, check_signs, derive_seed


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class NetConfig:
    """Every setting of a neural classifier: the architecture, which with
    the class count and the width learned at fit rebuilds the network, and
    the training loop. The net of kind reads the input its INPUT names."""

    kind: str                      # a key of NETS
    hidden: int = 100              # width of the mlp's one hidden layer
    vocab_size: int = 0            # token inputs
    embed_dim: int = 32
    filters: int = 64              # cnn first conv channels
    kernel_size: int = 3
    num_heads: int = 1
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 300
    alpha: float = 0.0             # L2 weight decay
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NETS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        check_signs(self, positive=("hidden", "embed_dim", "filters",
                                    "kernel_size", "num_heads",
                                    "learning_rate", "batch_size", "epochs"),
                    non_negative=("alpha",))
        if NETS[self.kind].INPUT == "tokens" and self.vocab_size < 2:
            raise ValueError(f"{self.kind} reads token input, which "
                             f"requires vocab_size")
        if self.kind == "transformer" and self.embed_dim % self.num_heads:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by "
                f"num_heads {self.num_heads}")


class _Net:
    """Base of the nets. self.params is the net's one table of parameters:
    an insertion-ordered dict from name (h0.w, conv1.b, ln2.gamma, ...)
    to Tensor, filled as each layer is built from rng. train updates them
    in this order and decays every one named <layer>.w; checkpoints store
    them in this order."""

    def __init__(self, config: NetConfig, rng):
        self.config = config
        self.rng = rng
        self.params = {}

    def _add(self, name, data):
        self.params[name] = Tensor(data, requires_grad=True)

    def _embedding(self, name, rows):
        self._add(name, self.rng.normal(0.0, 0.05,
                                        size=(rows, self.config.embed_dim)))

    def _weights(self, name, fan_in, fan_out, shape=None):
        """<name>.w, Xavier uniform of shape (default (fan_in, fan_out)),
        and <name>.b, zeros over its last axis."""
        shape = shape or (fan_in, fan_out)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self._add(f"{name}.w", self.rng.uniform(-limit, limit, size=shape))
        self._add(f"{name}.b", np.zeros(shape[-1]))

    def _layer_norm(self, name):
        self._add(f"{name}.gamma", np.ones(self.config.embed_dim))
        self._add(f"{name}.beta", np.zeros(self.config.embed_dim))

    def _dense(self, name, x) -> Tensor:
        return ag.dense(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _norm(self, name, x) -> Tensor:
        return ag.layer_norm(x, self.params[f"{name}.gamma"],
                             self.params[f"{name}.beta"])


class MlpNet(_Net):
    """Feature rows through one dense ReLU hidden layer of width hidden,
    then the output layer."""

    INPUT = "features"

    def __init__(self, config: NetConfig, n_classes: int, width: int, rng):
        super().__init__(config, rng)
        self._weights("h0", width, config.hidden)
        self._weights("out", config.hidden, n_classes)

    def forward(self, inputs) -> Tensor:
        return self._dense("out", ag.relu(self._dense("h0", Tensor(inputs))))


class CnnNet(_Net):
    """Embedded tokens through three conv+pool stages, then a dense head.

    Conv channels shrink as (filters, filters/2, filters/4); each stage
    is a valid convolution followed by width-2 max pooling.
    """

    INPUT = "tokens"
    HEAD = (64, 32, 16)

    def __init__(self, config: NetConfig, n_classes: int, width: int, rng):
        super().__init__(config, rng)
        self._embedding("embed", config.vocab_size)
        channels = [config.embed_dim, config.filters,
                    max(config.filters // 2, 1), max(config.filters // 4, 1)]
        k = config.kernel_size
        length = width
        for i, (c_in, c_out) in enumerate(zip(channels, channels[1:])):
            self._weights(f"conv{i}", k * c_in, k * c_out, (k, c_in, c_out))
            length = (length - k + 1) // 2
            if length < 1:  # named as vocab.json names the token width
                raise DataError(f"max_len {width} too short for 3 "
                                f"conv/pool stages of kernel size {k}")
        fan_in = length * channels[-1]
        for i, h in enumerate(self.HEAD):
            self._weights(f"head{i}", fan_in, h)
            fan_in = h
        self._weights("out", fan_in, n_classes)

    def forward(self, inputs) -> Tensor:
        p = self.params
        x = ag.embedding(p["embed"], inputs)
        for i in range(3):
            x = ag.maxpool1d(ag.relu(
                ag.conv1d(x, p[f"conv{i}.w"], p[f"conv{i}.b"])), 2)
        x = ag.reshape(x, (inputs.shape[0], -1))
        for i in range(len(self.HEAD)):
            x = ag.relu(self._dense(f"head{i}", x))
        return self._dense("out", x)


class TransformerNet(_Net):
    """Single post-norm encoder block over embedded tokens.

    Token and learned position embeddings are summed, pass through
    multi-head self attention and a 2x-wide feed-forward (each followed
    by residual add and layer norm), then mean-pool over positions into
    a dense softmax head.
    """

    INPUT = "tokens"

    def __init__(self, config: NetConfig, n_classes: int, width: int, rng):
        super().__init__(config, rng)
        e = config.embed_dim
        self._embedding("embed", config.vocab_size)
        self._embedding("pos", width)
        for name in ("wq", "wk", "wv", "wo"):
            self._weights(name, e, e)
        self._weights("ff1", e, 2 * e)
        self._weights("ff2", 2 * e, e)
        self._weights("out", e, n_classes)
        # the layer norms draw no random numbers; checkpoints list them last
        self._layer_norm("ln1")
        self._layer_norm("ln2")

    def _attention(self, x: Tensor, batch: int, length: int) -> Tensor:
        e, h = self.config.embed_dim, self.config.num_heads
        dh = e // h

        def split(name):
            return ag.transpose(ag.reshape(self._dense(name, x),
                                           (batch, length, h, dh)),
                                (0, 2, 1, 3))
        ctx, _ = ag.scaled_dot_product_attention(
            split("wq"), split("wk"), split("wv"))
        merged = ag.reshape(ag.transpose(ctx, (0, 2, 1, 3)),
                            (batch, length, e))
        return self._dense("wo", merged)

    def forward(self, inputs) -> Tensor:
        batch, length = inputs.shape
        pos_ids = np.tile(np.arange(length), (batch, 1))
        x = ag.add(ag.embedding(self.params["embed"], inputs),
                   ag.embedding(self.params["pos"], pos_ids))
        x = self._norm("ln1", ag.add(x, self._attention(x, batch, length)))
        ff = self._dense("ff2", ag.relu(self._dense("ff1", x)))
        x = self._norm("ln2", ag.add(x, ff))
        pooled = ag.mean(x, axis=1)
        return self._dense("out", pooled)


# Network kind -> class; each class names the input it reads.
NETS = {"mlp": MlpNet, "cnn": CnnNet, "transformer": TransformerNet}


def build_net(config: NetConfig, n_classes: int, width: int):
    rng = np.random.default_rng(derive_seed(config.seed, "init", config.kind))
    return NETS[config.kind](config, n_classes, width, rng)


class Adam:
    """Adam (Kingma & Ba, ICLR 2015) with bias-corrected moments.

    step updates m and v in place and builds each parameter's step in two
    scratch arrays allocated here, so it allocates nothing per step. It
    applies the operations of the textbook update
    p -= lr * m_hat / (sqrt(v_hat) + eps) in the same order, so the
    parameters stay byte-identical to it. A parameter whose grad is None
    is skipped; grad arrays are only read.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.scratch = [(np.empty_like(p.data), np.empty_like(p.data))
                        for p in params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v, (s, u) in zip(self.params, self.m, self.v,
                                   self.scratch):
            if p.grad is None:
                continue
            m *= b1                            # m = b1 m + (1 - b1) g
            m += np.multiply(p.grad, 1 - b1, out=s)
            v *= b2                            # v = b2 v + (1 - b2) g^2
            np.square(p.grad, out=s)
            v += np.multiply(s, 1 - b2, out=s)
            np.divide(m, c1, out=s)            # lr * m_hat
            s *= self.lr
            np.divide(v, c2, out=u)            # sqrt(v_hat) + eps
            np.sqrt(u, out=u)
            u += self.eps
            p.data -= np.divide(s, u, out=s)


@dataclass
class FitResult:
    epoch_losses: list = field(default_factory=list)


def train(net, inputs, labels, config: NetConfig) -> FitResult:
    """Run the mini-batch Adam loop over net.params, adding alpha * w to
    the gradient of each weight named <layer>.w; raises TrainingDivergedError
    on a non-finite loss, naming the 1-based epoch. Floating-point
    warnings are silenced, since the loss check reports divergence."""
    n = inputs.shape[0]
    params = list(net.params.values())
    decayed = [p for name, p in net.params.items() if name.endswith(".w")]
    opt = Adam(params, config.learning_rate)
    result = FitResult()
    with np.errstate(all="ignore"):
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
                    for w in decayed:
                        w.grad = (w.grad if w.grad is not None else 0.0) \
                            + config.alpha * w.data
                opt.step()
                total += float(loss.data) * len(idx)
            result.epoch_losses.append(total / n)
    return result


def predict_proba(net, inputs, batch_size: int = 256) -> np.ndarray:
    """Class probabilities, rows summing to 1 unless the net overflows;
    floating-point warnings are silenced."""
    chunks = []
    with np.errstate(all="ignore"):
        for start in range(0, inputs.shape[0], batch_size):
            logits = net.forward(inputs[start:start + batch_size])
            chunks.append(ag.softmax(logits, axis=-1).data)
    return np.concatenate(chunks, axis=0)


class NeuralClassifier(Estimator):
    """Estimator of the net a NetConfig describes (net), with the FitResult
    of its training (history); it stages no field, so every stage is the
    fitted net. A token net keeps in seen which ids its training rows
    hold, PAD_ID always among them, and reads every other id as OOV_ID,
    so an unseen token scores as an unknown one. Checkpoints keep seen."""

    FAMILY = "neural"

    @property
    def input(self) -> str:
        return NETS[self.config.kind].INPUT

    def _fit(self, inputs, labels) -> None:
        seen = None
        if self.input == "tokens":
            seen = np.zeros(self.config.vocab_size, dtype=bool)
            seen[inputs] = True
            seen[PAD_ID] = True
        net = build_net(self.config, self.n_classes, inputs.shape[1])
        self.history = train(net, inputs, labels, self.config)
        self.net, self.seen = net, seen

    def _staged_predict_proba(self, inputs, stages) -> list:
        if self.seen is not None:
            inputs = np.where(self.seen[inputs], inputs, OOV_ID)
        proba = predict_proba(self.net, inputs, self.config.batch_size)
        if not np.isfinite(proba).all():
            raise DataError("probabilities are not finite: the weights "
                            "overflow on this input")
        return [proba] * len(stages)

    def _rows(self, inputs) -> np.ndarray:
        """Float64 feature rows, or integer token ids in [0, vocab_size)."""
        if self.input == "features":
            return super()._rows(inputs)
        inputs = np.asarray(inputs)
        if not np.issubdtype(inputs.dtype, np.integer):
            raise DataError("token input must be integer ids")
        size = self.config.vocab_size
        if inputs.size and not 0 <= inputs.min() <= inputs.max() < size:
            raise DataError(f"token ids outside [0, {size}): the "
                            f"model's vocabulary has {size} ids")
        return inputs

    def _checkpoint(self) -> dict:
        """The net's parameters by name, then seen for a token net."""
        arrays = {name: p.data for name, p in self.net.params.items()}
        if self.seen is not None:
            arrays["seen"] = self.seen.astype(np.int64)
        return arrays

    def _load_arrays(self, arrays, n_features: int) -> None:
        self.net = build_net(self.config, self.n_classes, n_features)
        self.seen = None
        shapes = {name: p.data.shape for name, p in self.net.params.items()}
        if self.input == "tokens":
            shapes["seen"] = (self.config.vocab_size,)
        missing, extra = set(shapes) - set(arrays), set(arrays) - set(shapes)
        if missing or extra:
            raise ValueError(
                f"parameter mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}")
        for name, shape in shapes.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(
                    f"shape mismatch for {name}: {arr.shape} vs {shape}")
            if name == "seen":
                self.seen = arr != 0
            else:
                self.net.params[name].data = arr
