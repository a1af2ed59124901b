"""Estimator registry: what each --model kind builds and reads, the
config fields that grid points and model flags may set, the paper's
default grids, and a factory of plain values that pickles, so a worker
process can rebuild any estimator from it.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import namedtuple

from .ensemble import Forest, ForestConfig, RusBoostConfig, RusBoostModel
from .models import NETS, NetConfig, NeuralClassifier


class UsageError(Exception):
    """A model kind, grid or option value that cannot be used."""


# What a --model kind builds, as estimator(config(...), n_classes): its
# estimator class, its config dataclass, the one input it reads,
# "features" or "tokens", whether its nested-CV fits run on the
# --workers threads (threads) or on one, and its stage fields: the config
# fields whose smaller values one fit at the largest value scores too,
# through the estimator's staged_predict_proba.
Kind = namedtuple("Kind", "estimator config input threads stages")
# A net reads the input its class names. Only the token nets gain from
# threads, because numpy drops the GIL inside their large ops: token-cv's
# two nested-cv commands took 2.34 s on one thread and 1.64 s on two (2
# cores). Tree fits hold the GIL through thousands of small numpy calls,
# and the MLP's BLAS products already run on every OpenBLAS thread, so a
# second worker only competes for the cores. One thread against two:
# forest-cv's rf 0.57-0.64 s against 0.83-0.96 s, rusboost (3x3 folds, 10
# rounds) 4.73 s against 5.45 s, mlp on 910 ER features 3.39 s against
# 5.38 s.
KINDS = {
    "mlp": Kind(NeuralClassifier, NetConfig, NETS["mlp"].INPUT, False, ()),
    "cnn": Kind(NeuralClassifier, NetConfig, NETS["cnn"].INPUT, True, ()),
    "transformer": Kind(NeuralClassifier, NetConfig,
                        NETS["transformer"].INPUT, True, ()),
    "rf": Kind(Forest, ForestConfig, "features", False,
               ("n_estimators", "max_depth")),
    "rusboost": Kind(RusBoostModel, RusBoostConfig, "features", False,
                     ("n_estimators",)),
}
# Checkpoint "model" tag -> the Kind of its estimator family.
FAMILIES = {kind.estimator.FAMILY: kind for kind in KINDS.values()}
_INPUT_FLAGS = {"features": "feature input (--features)",
                "tokens": "token input (--tokens with --vocab)"}

DEFAULT_GRIDS = {
    "rf": {"n_estimators": [100, 200, 500, 1000, 1500, 2000],
           "max_depth": [5, 10, 15, 20]},
    "rusboost": {"n_estimators": [50, 100, 200, 500, 1000, 1500, 2000],
                 "learning_rate": [0.001, 0.01, 0.1]},
    "mlp": {"alpha": [0.001, 0.01, 0.05],
            "max_iter": [500],
            "learning_rate_init": [0.001, 0.01, 0.05]},
    "cnn": {"num_filters": [64, 128, 256],
            "learning_rate": [0.01, 0.05, 0.001, 0.0001],
            "batch_size": [128],
            "epochs": [300],
            "kernel_size": [3]},
    # The paper searches 1-5 heads with a per-head width independent of
    # embed_dim; here heads split embed_dim, so the count must divide it.
    "transformer": {"embed_dim": [32, 64, 128],
                    "num_heads": [1, 2, 4],
                    "batch_size": [128],
                    "epochs": [300]},
}

# --model kind -> the config fields that its grid points and model flags
# may set, each with the other names it answers to, tried before its own:
# the paper's scikit-learn and Keras grid names, and the boosted trees'
# base depth. A net reads only the fields its architecture uses.
_TRAINING = {"learning_rate": ("learning_rate_init",), "batch_size": (),
             "epochs": ("max_iter",), "alpha": ()}
SETTABLE = {
    "rf": {"n_estimators": (), "max_depth": ()},
    "rusboost": {"n_estimators": (), "learning_rate": (),
                 "max_depth": ("base_depth",)},
    "mlp": {"hidden": (), **_TRAINING},
    "cnn": {"embed_dim": (), "filters": ("num_filters",), "kernel_size": (),
            **_TRAINING},
    "transformer": {"embed_dim": (), "num_heads": (), **_TRAINING},
}


# Model flag name (a field name) -> type of its config default: every
# settable field, plus base_depth for the boosted trees' max_depth. A
# name shared by two configs has one default type in both.
FIELDS = {f.name: type(f.default) for model, names in SETTABLE.items()
          for f in dataclasses.fields(KINDS[model].config) if f.name in names}
FIELDS["base_depth"] = FIELDS["max_depth"]

# --model kind -> the names it reads as grid keys and model flags: its
# settable fields and their other names.
READS = {model: frozenset(name for field, aliases in names.items()
                          for name in aliases + (field,))
         for model, names in SETTABLE.items()}


def coerce(kind, name, value):
    """value as a config field of type kind. A bool, or a number with a
    fraction for an int field, is a usage error rather than a truncation;
    a string (a grid's JSON text; flags come typed) is one too."""
    try:
        if isinstance(value, (bool, str)) or (kind is int and isinstance(
                value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{name!r} takes a {kind.__name__}, "
                         f"not {value!r}") from exc


def grid_points(doc) -> list:
    """The grid points of a JSON grid: a list of objects as it is, or the
    product of an object's values (a scalar value is a one-value list)."""
    if isinstance(doc, dict):
        values = [v if isinstance(v, list) else [v] for v in doc.values()]
        return [dict(zip(doc, combo)) for combo in itertools.product(*values)]
    if isinstance(doc, list) and all(isinstance(p, dict) for p in doc):
        return doc
    raise UsageError("grid must be a JSON object of lists or list of objects")


@dataclasses.dataclass(frozen=True)
class ModelFactory:
    """factory(params, seed) -> unfitted estimator of --model kind model.

    A nonzero vocab_size means a table of token input, otherwise of
    feature input, and the table's input must be the one the kind reads;
    every estimator learns the width of its rows at fit. defaults holds
    the model flags given.
    A settable field takes the first value given under any of its names,
    grid params before flag defaults, coerced to the type of the config
    dataclass default (see coerce), which applies when no name is
    given. A grid key that no field of the model answers to, or a value
    that cannot be coerced, is a usage error naming the key.
    """

    model: str
    n_classes: int
    defaults: dict
    vocab_size: int = 0

    def __post_init__(self):
        kind = KINDS.get(self.model)
        if kind is None:
            raise UsageError(f"unknown --model {self.model!r}")
        if ("tokens" if self.vocab_size else "features") != kind.input:
            raise UsageError(f"{self.model} requires "
                             f"{_INPUT_FLAGS[kind.input]}")

    def __call__(self, params, seed):
        kind = KINDS[self.model]
        # the fields set here, not by name, where the config has them
        fixed = {"seed": seed, "kind": self.model,
                 "vocab_size": self.vocab_size}
        values = {f.name: fixed[f.name]
                  for f in dataclasses.fields(kind.config) if f.name in fixed}
        for field, aliases in SETTABLE[self.model].items():
            names = aliases + (field,)
            given = [(name, source[name])
                     for source in (params, self.defaults)
                     for name in names if source.get(name) is not None]
            if given:
                values[field] = coerce(FIELDS[field], *given[0])
        unknown = sorted(set(params) - READS[self.model])
        if unknown:
            raise UsageError(
                f"--model {self.model} reads no grid key {unknown[0]!r}")
        return kind.estimator(kind.config(**values), self.n_classes)
