"""Shared helpers: seed derivation, the estimator protocol and its input
contract, DataError and error locations, and atomic file writes."""

import contextlib
import json
import os
import tempfile

import numpy as np


def derive_seed(*keys) -> int:
    """Derive a stable child seed from a base seed plus context keys.

    Keys may be non-negative ints or strings. The derivation is pure,
    so parallel workers seeded per work unit stay schedule-independent.
    The entropy is one uint32 word per UTF-8 byte of a string key and
    an int key's low-first 32-bit words (0 is one word), the words
    numpy's SeedSequence would make of each key, built as one array.
    """
    words = []
    for k in keys:
        if isinstance(k, str):
            words.extend(k.encode("utf-8"))
            continue
        k = int(k)
        if k < 0:
            raise ValueError(f"seed keys must be non-negative, got {k}")
        words.append(k & 0xFFFFFFFF)
        while k > 0xFFFFFFFF:
            k >>= 32
            words.append(k & 0xFFFFFFFF)
    entropy = np.array(words, dtype=np.uint32)
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def check_signs(config, positive=(), non_negative=()) -> None:
    """The range rule of the config dataclasses: a ValueError naming the
    first field of config listed in positive that is not above 0, or in
    non_negative that is not at least 0 (nan fails both)."""
    for names, bound in ((positive, "positive"),
                         (non_negative, "non-negative")):
        for name in names:
            value = getattr(config, name)
            if not (value > 0 if bound == "positive" else value >= 0):
                raise ValueError(f"{name} must be {bound}, got {value!r}")


class Estimator:
    """The estimator protocol of every model family, after scikit-learn's
    fit/predict contract: cls(config, n_classes) is unfitted; fit checks
    its input here and learns n_features, the width of its rows; every
    score is a stage of staged_predict_proba. Until fit or load_arrays
    sets n_features, it neither scores nor checkpoints. Fit and score read
    X as _rows makes it; a score input must be rows of the fitted width,
    else a DataError, and zero rows score as empty matrices. A family
    supplies _fit, _staged_predict_proba, _checkpoint and _load_arrays,
    and may override input ("features" or "tokens") and _rows."""

    input = "features"

    def __init__(self, config, n_classes: int):
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        self.config = config
        self.n_classes = n_classes
        self.n_features = 0

    def fit(self, X, y) -> "Estimator":
        """Fits on X, a non-empty 2-D array, and y, one integer class index
        in [0, n_classes) per row of X; returns the estimator."""
        X, y = np.asarray(X), np.asarray(y)
        if X.ndim != 2 or 0 in X.shape or y.shape != X.shape[:1] \
                or not np.issubdtype(y.dtype, np.integer) \
                or y.min() < 0 or y.max() >= self.n_classes:
            raise ValueError(f"X must be a non-empty 2-D array, and y one "
                             f"class index in [0, {self.n_classes}) per row")
        self._fit(self._rows(X), y)
        self.n_features = X.shape[1]
        return self

    def predict_proba(self, X) -> np.ndarray:
        return self.staged_predict_proba(X, [{}])[0]

    def staged_predict_proba(self, X, stages) -> list:
        """The probabilities of X at each stage, a dict that may set the
        family's stage fields (estimators.Kind.stages) up to their fitted
        values; {} is the fitted model."""
        self._check_fitted()
        X = self._rows(X)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(f"{self.input[:-1]} input must be (n, "
                            f"{self.n_features}), not {X.shape}")
        if not len(X):
            return [np.zeros((0, self.n_classes))] * len(stages)
        return self._staged_predict_proba(X, stages)

    def _rows(self, X) -> np.ndarray:
        """X as the family reads it: a float64 array."""
        return np.asarray(X, dtype=np.float64)

    def to_checkpoint(self) -> dict:
        self._check_fitted()
        return self._checkpoint()

    def load_arrays(self, arrays, n_features: int) -> "Estimator":
        """The estimator filled with to_checkpoint's arrays and width."""
        if n_features < 1:
            raise ValueError(f"a fitted width is positive, not {n_features}")
        self._load_arrays(arrays, n_features)
        self.n_features = n_features
        return self

    def _check_fitted(self) -> None:
        if not self.n_features:
            raise RuntimeError(f"{type(self).__name__} is not fitted")


class DataError(ValueError):
    """Malformed or inconsistent input data: a file, record or value the
    command was given (exit 2)."""


@contextlib.contextmanager
def located(where, errors):
    """Raises an exception of errors (a type or tuple of types) from the
    block again as its own type, with where, the file, record or fold it
    arose in, prefixed to its message."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def write_json(path, doc, indent=2) -> None:
    """doc as JSON text with sorted keys and a final newline."""
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=indent)
                      + "\n")


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data: bytes) -> None:
    """Write data to path via a temp file and rename, so readers never
    observe a partial file."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
