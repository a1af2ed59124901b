"""Command-line front end.

Every subcommand reads an optional JSON config (flags win over config
values), writes its artifacts under --out with fixed file names, and
finishes with a manifest sufficient to reproduce the run. Exit codes:
0 success, 1 usage or config error, 2 data error, 3 diverged training.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import io
import csv
import itertools
import json
import os
import sys

import numpy as np

from . import __version__, evaluation, ngram, pssm, store, synth
from .ensemble import Forest, ForestConfig, RusBoostConfig, RusBoostModel
from .models import (ModelSpec, NeuralClassifier, TrainConfig,
                     TrainingDivergedError)
from .seqio import DataError, load_dataset, prepare_corpus, save_dataset, write_fasta
from .util import atomic_write_text, derive_seed

DATASET_FILE = "dataset.json"
FEATURES_FILE = "features.csv"
TOKENS_FILE = "tokens.csv"
VOCAB_FILE = "vocab.json"
MODEL_FILE = "model.bin"
METRICS_FILE = "metrics.json"
PR_CURVES_FILE = "pr_curves.csv"
MANIFEST_FILE = "manifest.json"
PLAN_FILE = "cv_plan.json"
FILTER_REPORT_FILE = "filter_report.json"
FASTA_FILE = "corpus.fasta"
PREDICTIONS_FILE = "predictions.csv"
LOG_FILE = "run.log"

WORKERS_ENV = "HOSTSEQ_WORKERS"

NEURAL_KINDS = ("mlp", "cnn", "transformer")
TREE_KINDS = ("rf", "rusboost")

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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="hostseq", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("prepare", help="parse, filter, dedup a FASTA corpus")
    _add_common(p)
    p.add_argument("--fasta", help="input FASTA path")
    p.add_argument("--level", choices=["coarse", "fine"])
    p.add_argument("--host-key", help="metadata key holding the host")
    p.add_argument("--drop-incomplete", action="store_true", default=None)

    p = sub.add_parser("synth", help="generate a synthetic motif corpus")
    _add_common(p)
    p.add_argument("--records", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--min-len", type=int)
    p.add_argument("--max-len", type=int)
    p.add_argument("--with-pssms", action="store_true", default=None,
                   help="also write synthetic profiles under pssms/")

    p = sub.add_parser("encode", help="featurize a dataset")
    _add_common(p)
    p.add_argument("--dataset", help="dataset.json path")
    p.add_argument("--scheme", choices=sorted(pssm.SCHEME_DIMS))
    p.add_argument("--pssm-dir", help="directory of <record id>.pssm files")
    p.add_argument("--synth-pssms", action="store_true", default=None,
                   help="derive profiles synthetically from --seed")
    p.add_argument("--ngrams", type=int, help="token window size")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="fit one model on a full feature file")
    _add_common(p)
    _add_model_flags(p)
    _add_data_flags(p)

    p = sub.add_parser("evaluate", help="score a saved model on a data file")
    _add_common(p)
    p.add_argument("--model-file", help="model.bin path")
    _add_data_flags(p)

    p = sub.add_parser("predict", help="write per-record predictions")
    _add_common(p)
    p.add_argument("--model-file", help="model.bin path")
    _add_data_flags(p)

    p = sub.add_parser("nested-cv", help="nested cross-validation run")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--dataset", help="dataset.json path")
    p.add_argument("--scheme", choices=sorted(pssm.SCHEME_DIMS))
    p.add_argument("--pssm-dir")
    p.add_argument("--synth-pssms", action="store_true", default=None)
    p.add_argument("--ngrams", type=int)
    _add_data_flags(p)
    p.add_argument("--k-outer", type=int)
    p.add_argument("--k-inner", type=int)
    p.add_argument("--grid", help="JSON grid: file path or inline text")
    p.add_argument("--workers", type=int)

    p = sub.add_parser("report", help="derive tables from prediction files")
    _add_common(p)
    p.add_argument("--predictions", nargs="+",
                   help="prediction CSVs; first defines the metrics")
    p.add_argument("--dataset", help="dataset.json for token tables")
    p.add_argument("--ngrams", type=int)
    p.add_argument("--top-tokens", type=int)
    return parser


def _add_data_flags(p):
    p.add_argument("--features", help="features.csv path")
    p.add_argument("--tokens", help="tokens.csv path")
    p.add_argument("--vocab", help="vocab.json path")


def _add_model_flags(p):
    p.add_argument("--model", choices=list(MODELS))
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--optimizer", choices=["adam", "sgd"])
    p.add_argument("--hidden", help="comma-separated dense layer sizes")
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--num-heads", type=int)
    p.add_argument("--filters", type=int)
    p.add_argument("--kernel-size", type=int)
    p.add_argument("--n-estimators", type=int)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--base-depth", type=int,
                   help="depth of boosted base trees")


def _load_config(path):
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return doc


def _cfg(args, config, key, default=None):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    return config.get(key, default)


def _require(value, name):
    if value is None:
        raise UsageError(f"missing required option --{name}")
    return value


def _out_dir(args, config) -> str:
    out = _require(_cfg(args, config, "out"), "out")
    os.makedirs(out, exist_ok=True)
    return out


def _workers(args, config) -> int:
    requested = _cfg(args, config, "workers", 1)
    cap = os.environ.get(WORKERS_ENV)
    if cap is not None:
        requested = min(int(requested), max(int(cap), 1))
    return max(int(requested), 1)


def _write_manifest(out, command, effective, artifacts) -> None:
    canonical = json.dumps(effective, sort_keys=True)
    doc = {
        "command": command,
        "config": effective,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": effective.get("seed"),
        "versions": {"hostseq": __version__,
                     "python": ".".join(map(str, sys.version_info[:3])),
                     "numpy": np.__version__},
        "artifacts": sorted(artifacts),
    }
    atomic_write_text(os.path.join(out, MANIFEST_FILE),
                      json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _log(out, command) -> None:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(os.path.join(out, LOG_FILE), "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {command}\n")


def _write_json(path, doc) -> None:
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_prepare(args, config) -> int:
    out = _out_dir(args, config)
    fasta = _require(_cfg(args, config, "fasta"), "fasta")
    level = _require(_cfg(args, config, "level"), "level")
    host_key = _cfg(args, config, "host-key", "host")
    drop_incomplete = bool(_cfg(args, config, "drop-incomplete", False))
    with open(fasta, encoding="utf-8") as fh:
        text = fh.read()
    ds, report = prepare_corpus(text, level, host_key=host_key,
                                drop_incomplete=drop_incomplete)
    save_dataset(ds, os.path.join(out, DATASET_FILE))
    _write_json(os.path.join(out, FILTER_REPORT_FILE), report.to_dict())
    effective = {"fasta": fasta, "level": level, "host-key": host_key,
                 "drop-incomplete": drop_incomplete}
    _write_manifest(out, "prepare", effective,
                    [DATASET_FILE, FILTER_REPORT_FILE])
    _log(out, "prepare")
    print(f"kept {report.kept} of {report.parsed} records "
          f"({len(ds.class_names)} classes)")
    return 0


def cmd_synth(args, config) -> int:
    out = _out_dir(args, config)
    records = _require(_cfg(args, config, "records"), "records")
    classes = _cfg(args, config, "classes", 3)
    seed = _require(_cfg(args, config, "seed"), "seed")
    min_len = _cfg(args, config, "min-len", 40)
    max_len = _cfg(args, config, "max-len", 60)
    with_pssms = bool(_cfg(args, config, "with-pssms", False))
    spec = synth.SynthSpec(classes=synth.default_classes(classes),
                           records=records, min_len=min_len,
                           max_len=max_len, seed=seed)
    ds = synth.generate(spec)
    save_dataset(ds, os.path.join(out, DATASET_FILE))
    atomic_write_text(os.path.join(out, FASTA_FILE), write_fasta(ds.records))
    artifacts = [DATASET_FILE, FASTA_FILE]
    if with_pssms:
        pssm_dir = os.path.join(out, "pssms")
        os.makedirs(pssm_dir, exist_ok=True)
        for rid, raw in synth.generate_pssms(ds, seed).items():
            atomic_write_text(os.path.join(pssm_dir, f"{rid}.pssm"),
                              pssm.render_psiblast_pssm(raw))
        artifacts.append("pssms/")
    effective = {"records": records, "classes": classes, "seed": seed,
                 "min-len": min_len, "max-len": max_len,
                 "with-pssms": with_pssms}
    _write_manifest(out, "synth", effective, artifacts)
    _log(out, "synth")
    print(f"wrote {len(ds)} records over {classes} classes")
    return 0


def _dataset_pssms(ds, pssm_dir, synth_pssms, seed):
    if pssm_dir and synth_pssms:
        raise UsageError("--pssm-dir and --synth-pssms are exclusive")
    if synth_pssms:
        if seed is None:
            raise UsageError("--synth-pssms requires --seed")
        return synth.generate_pssms(ds, seed)
    if not pssm_dir:
        raise UsageError("scheme encoding needs --pssm-dir or --synth-pssms")
    out = {}
    for r in ds.records:
        path = os.path.join(pssm_dir, f"{r.id}.pssm")
        with open(path, encoding="utf-8") as fh:
            out[r.id] = pssm.parse_psiblast_pssm(fh.read())
    return out


def _encode_scheme(ds, scheme, profiles):
    rows = np.empty((len(ds.records), pssm.SCHEME_DIMS[scheme]))
    for i, r in enumerate(ds.records):
        rows[i] = pssm.encode_record_features(r.residues, profiles[r.id],
                                              scheme).values
    return rows


def _encode_ngrams(ds, n):
    token_lists = [ngram.tokenize(r.residues, n) for r in ds.records]
    vocab = ngram.build_vocab(token_lists, n)
    max_len = max(len(tokens) for tokens in token_lists)
    matrix, true_lens = ngram.encode_corpus(token_lists, vocab, max_len)
    return vocab, max_len, matrix, true_lens


def cmd_encode(args, config) -> int:
    out = _out_dir(args, config)
    ds = load_dataset(_require(_cfg(args, config, "dataset"), "dataset"))
    scheme = _cfg(args, config, "scheme")
    n = _cfg(args, config, "ngrams")
    seed = _cfg(args, config, "seed")
    if (scheme is None) == (n is None):
        raise UsageError("pass exactly one of --scheme or --ngrams")
    ids = [r.id for r in ds.records]
    labels = ds.labels
    if scheme:
        profiles = _dataset_pssms(ds, _cfg(args, config, "pssm-dir"),
                                  bool(_cfg(args, config, "synth-pssms")),
                                  seed)
        matrix = _encode_scheme(ds, scheme, profiles)
        store.write_features_csv(os.path.join(out, FEATURES_FILE),
                                 ids, labels, scheme, matrix)
        artifacts = [FEATURES_FILE]
        print(f"encoded {len(ids)} records as {scheme} "
              f"({matrix.shape[1]} features)")
    else:
        vocab, max_len, matrix, true_lens = _encode_ngrams(ds, n)
        ngram.save_vocab(vocab, max_len, os.path.join(out, VOCAB_FILE))
        store.write_tokens_csv(os.path.join(out, TOKENS_FILE),
                               ids, labels, matrix, true_lens)
        artifacts = [VOCAB_FILE, TOKENS_FILE]
        print(f"encoded {len(ids)} records as {n}-grams "
              f"(vocab {vocab.size}, max_len {max_len})")
    effective = {"dataset": _cfg(args, config, "dataset"), "scheme": scheme,
                 "ngrams": n, "seed": seed,
                 "pssm-dir": _cfg(args, config, "pssm-dir"),
                 "synth-pssms": bool(_cfg(args, config, "synth-pssms"))}
    _write_manifest(out, "encode", effective, artifacts)
    _log(out, "encode")
    return 0


def _model_defaults(args, config) -> dict:
    hidden = _cfg(args, config, "hidden")
    if isinstance(hidden, str):
        hidden = tuple(int(v) for v in hidden.split(",") if v)
    elif hidden is not None:
        hidden = tuple(int(v) for v in hidden)
    return {
        "epochs": _cfg(args, config, "epochs"),
        "batch_size": _cfg(args, config, "batch-size"),
        "learning_rate": _cfg(args, config, "learning-rate"),
        "alpha": _cfg(args, config, "alpha"),
        "optimizer": _cfg(args, config, "optimizer"),
        "hidden": hidden,
        "embed_dim": _cfg(args, config, "embed-dim"),
        "num_heads": _cfg(args, config, "num-heads"),
        "filters": _cfg(args, config, "filters"),
        "kernel_size": _cfg(args, config, "kernel-size"),
        "n_estimators": _cfg(args, config, "n-estimators"),
        "max_depth": _cfg(args, config, "max-depth"),
        "base_depth": _cfg(args, config, "base-depth"),
    }


# Config fields that grid points and model flags may set.
_SETTABLE = {
    ForestConfig: ("n_estimators", "max_depth"),
    RusBoostConfig: ("n_estimators", "learning_rate", "max_depth"),
    ModelSpec: ("hidden", "embed_dim", "filters", "kernel_size", "num_heads"),
    TrainConfig: ("learning_rate", "batch_size", "epochs", "optimizer",
                  "alpha"),
}
# Other names a field answers to, tried before its own: the paper's
# scikit-learn and Keras grid names, and the boosted trees' base depth.
_ALIASES = {
    (RusBoostConfig, "max_depth"): ("base_depth",),
    (ModelSpec, "filters"): ("num_filters",),
    (TrainConfig, "learning_rate"): ("learning_rate_init",),
    (TrainConfig, "epochs"): ("max_iter",),
}


def _neural(kind):
    def build(config, seed, n_classes, inputs):
        spec = config(ModelSpec, kind=kind, n_classes=n_classes, **inputs)
        return NeuralClassifier(spec, config(TrainConfig, seed=seed))
    return build


# --model -> builder of an unfitted estimator; config(cls, **fixed) makes
# one config dataclass from the grid point and the flags.
MODELS = {
    **{kind: _neural(kind) for kind in NEURAL_KINDS},
    "rf": lambda config, seed, n_classes, inputs: Forest(
        config(ForestConfig, seed=seed), n_classes),
    "rusboost": lambda config, seed, n_classes, inputs: RusBoostModel(
        config(RusBoostConfig, seed=seed), n_classes),
}


def _coerce(kind, name, value):
    """value as a config field of type kind; a scalar for a tuple field
    (the MLP's hidden layer sizes) is one layer of that width."""
    try:
        if kind is tuple:
            return tuple(int(v) for v in (
                value if isinstance(value, (list, tuple)) else [value]))
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{name!r} takes a {kind.__name__}, "
                         f"not {value!r}") from exc


def make_model_factory(model: str, n_classes: int, defaults: dict,
                       in_dim: int = 0, vocab_size: int = 0,
                       max_len: int = 0):
    """Returns factory(params, seed) -> unfitted estimator.

    A settable field takes the first value given under any of its names,
    grid params before flag defaults, coerced to the type of the config
    dataclass default (see _coerce), which applies when no name is
    given. A grid key that no field of the model answers to, or a value
    that cannot be coerced, is a usage error naming the key.
    """
    input_kind = "tokens" if vocab_size else "features"
    if model in ("cnn", "transformer") and input_kind != "tokens":
        raise UsageError(f"{model} requires token input (--ngrams/--tokens)")
    if model in TREE_KINDS and input_kind != "features":
        raise UsageError(f"{model} requires feature input (--scheme/--features)")
    inputs = {"input_kind": input_kind, "in_dim": in_dim,
              "vocab_size": vocab_size, "max_len": max_len}

    def factory(params, seed):
        read = set()

        def config(cls, **fixed):
            types = {f.name: type(f.default) for f in dataclasses.fields(cls)}
            for field in _SETTABLE[cls]:
                names = _ALIASES.get((cls, field), ()) + (field,)
                read.update(names)
                given = [(name, source[name]) for source in (params, defaults)
                         for name in names if source.get(name) is not None]
                if given:
                    fixed[field] = _coerce(types[field], *given[0])
            return cls(**fixed)

        estimator = MODELS[model](config, seed, n_classes, inputs)
        unknown = sorted(set(params) - read)
        if unknown:
            raise UsageError(
                f"--model {model} reads no grid key {unknown[0]!r}")
        return estimator

    return factory


def _load_data(args, config):
    """Load a features or tokens file; returns
    (kind, inputs, ids, labels, class_names, vocab_info)."""
    features = _cfg(args, config, "features")
    tokens = _cfg(args, config, "tokens")
    if (features is None) == (tokens is None):
        raise UsageError("pass exactly one of --features or --tokens")
    if features:
        ids, labels, scheme, matrix = store.read_features_csv(features)
        class_names = tuple(sorted(set(labels)))
        return "features", matrix, ids, labels, class_names, None
    vocab_path = _require(_cfg(args, config, "vocab"), "vocab")
    vocab, max_len = ngram.load_vocab(vocab_path)
    ids, labels, matrix, true_lens = store.read_tokens_csv(tokens)
    if matrix.shape[1] != max_len:
        raise DataError(f"{tokens}: width {matrix.shape[1]} does not match "
                        f"vocab max_len {max_len}")
    class_names = tuple(sorted(set(labels)))
    return "tokens", matrix, ids, labels, class_names, (vocab, max_len)


def cmd_train(args, config) -> int:
    out = _out_dir(args, config)
    model_kind = _require(_cfg(args, config, "model"), "model")
    seed = _require(_cfg(args, config, "seed"), "seed")
    kind, inputs, ids, labels, class_names, vocab_info = _load_data(args, config)
    y = evaluation.label_indices(labels, class_names)
    defaults = _model_defaults(args, config)
    factory = make_model_factory(
        model_kind, len(class_names), defaults,
        in_dim=inputs.shape[1] if kind == "features" else 0,
        vocab_size=vocab_info[0].size if vocab_info else 0,
        max_len=vocab_info[1] if vocab_info else 0)
    estimator = factory({}, seed).fit(inputs, y)
    store.save_model(os.path.join(out, MODEL_FILE), estimator, class_names)
    effective = {"model": model_kind, "seed": seed,
                 **{k: v for k, v in defaults.items() if v is not None}}
    _write_manifest(out, "train", effective, [MODEL_FILE])
    _log(out, "train")
    print(f"trained {model_kind} on {len(ids)} records")
    return 0


def _predict_with_model(args, config):
    model_path = _require(_cfg(args, config, "model-file"), "model-file")
    model, class_names = store.load_model(model_path)
    kind, inputs, ids, labels, _, vocab_info = _load_data(args, config)
    proba = model.predict_proba(inputs)
    if proba.shape[1] != len(class_names):
        raise DataError("model class count does not match data")
    return model, tuple(class_names), inputs, ids, labels, proba


def cmd_evaluate(args, config) -> int:
    out = _out_dir(args, config)
    _, class_names, _, ids, labels, proba = _predict_with_model(args, config)
    y = evaluation.label_indices(labels, class_names)
    report = evaluation.compute_report(y, proba, class_names)
    _write_json(os.path.join(out, METRICS_FILE),
                evaluation.report_to_dict(report))
    curves = evaluation.per_class_pr_curves(y, proba, class_names)
    atomic_write_text(os.path.join(out, PR_CURVES_FILE),
                      evaluation.render_pr_curves_csv(curves))
    effective = {"model-file": _cfg(args, config, "model-file"),
                 "features": _cfg(args, config, "features"),
                 "tokens": _cfg(args, config, "tokens")}
    _write_manifest(out, "evaluate", effective,
                    [METRICS_FILE, PR_CURVES_FILE])
    _log(out, "evaluate")
    print(f"mean score {report.overall['mean_score']:.4f} "
          f"over {len(ids)} records")
    return 0


def _write_predictions(path, ids, labels, proba, class_names) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "true", "predicted"]
                    + [f"p_{name}" for name in class_names])
    pred = proba.argmax(axis=1)
    for i, rid in enumerate(ids):
        writer.writerow([rid, labels[i], class_names[pred[i]]]
                        + [repr(float(v)) for v in proba[i]])
    atomic_write_text(path, buf.getvalue())


def _read_predictions(path):
    """Returns (ids, true, predicted, class_names, proba)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or rows[0][:3] != ["id", "true", "predicted"]:
        raise DataError(f"{path}: not a predictions file")
    class_names = tuple(h[2:] for h in rows[0][3:])
    ids = [r[0] for r in rows[1:]]
    true = [r[1] for r in rows[1:]]
    predicted = [r[2] for r in rows[1:]]
    proba = np.array([[float(v) for v in r[3:]] for r in rows[1:]])
    return ids, true, predicted, class_names, proba


def cmd_predict(args, config) -> int:
    out = _out_dir(args, config)
    _, class_names, _, ids, labels, proba = _predict_with_model(args, config)
    _write_predictions(os.path.join(out, PREDICTIONS_FILE),
                       ids, labels, proba, class_names)
    effective = {"model-file": _cfg(args, config, "model-file"),
                 "features": _cfg(args, config, "features"),
                 "tokens": _cfg(args, config, "tokens")}
    _write_manifest(out, "predict", effective, [PREDICTIONS_FILE])
    _log(out, "predict")
    print(f"wrote predictions for {len(ids)} records")
    return 0


def _parse_grid(text, model_kind) -> list:
    if text is None:
        doc = DEFAULT_GRIDS[model_kind]
    elif text.lstrip().startswith(("[", "{")):
        doc = json.loads(text)
    else:
        with open(text, encoding="utf-8") as fh:
            doc = json.load(fh)
    if isinstance(doc, dict):
        keys = list(doc.keys())
        values = [doc[k] if isinstance(doc[k], list) else [doc[k]]
                  for k in keys]
        return [dict(zip(keys, combo))
                for combo in itertools.product(*values)]
    if isinstance(doc, list) and all(isinstance(p, dict) for p in doc):
        return doc
    raise UsageError("grid must be a JSON object of lists or list of objects")


def cmd_nested_cv(args, config) -> int:
    out = _out_dir(args, config)
    model_kind = _require(_cfg(args, config, "model"), "model")
    seed = _require(_cfg(args, config, "seed"), "seed")
    k_outer = int(_cfg(args, config, "k-outer", 5))
    k_inner = int(_cfg(args, config, "k-inner", 4))
    workers = _workers(args, config)

    dataset_path = _cfg(args, config, "dataset")
    scheme = _cfg(args, config, "scheme")
    n = _cfg(args, config, "ngrams")
    vocab_info = None
    artifacts = []
    if dataset_path:
        ds = load_dataset(dataset_path)
        ids = [r.id for r in ds.records]
        labels = ds.labels
        class_names = ds.class_names
        if (scheme is None) == (n is None):
            raise UsageError("pass exactly one of --scheme or --ngrams "
                             "with --dataset")
        if scheme:
            profiles = _dataset_pssms(ds, _cfg(args, config, "pssm-dir"),
                                      bool(_cfg(args, config, "synth-pssms")),
                                      seed)
            inputs = _encode_scheme(ds, scheme, profiles)
            data_kind = "features"
        else:
            vocab, max_len, inputs, _ = _encode_ngrams(ds, n)
            vocab_info = (vocab, max_len)
            data_kind = "tokens"
    else:
        data_kind, inputs, ids, labels, class_names, vocab_info = \
            _load_data(args, config)

    y = evaluation.label_indices(labels, class_names)
    defaults = _model_defaults(args, config)
    factory = make_model_factory(
        model_kind, len(class_names), defaults,
        in_dim=inputs.shape[1] if data_kind == "features" else 0,
        vocab_size=vocab_info[0].size if vocab_info else 0,
        max_len=vocab_info[1] if vocab_info else 0)
    grid = _parse_grid(_cfg(args, config, "grid"), model_kind)
    for params in grid:  # a bad grid point fails before any fit runs
        factory(params, seed)

    plan = evaluation.make_cv_plan(y, k_outer, k_inner, seed)
    evaluation.save_plan(plan, os.path.join(out, PLAN_FILE))
    artifacts.append(PLAN_FILE)

    result = evaluation.nested_cv(inputs, y, factory, grid, plan,
                                  class_names, workers=workers)
    _write_json(os.path.join(out, METRICS_FILE),
                evaluation.nested_cv_to_dict(result))
    curves = evaluation.per_class_pr_curves(result.y_true,
                                            result.pooled_proba, class_names)
    atomic_write_text(os.path.join(out, PR_CURVES_FILE),
                      evaluation.render_pr_curves_csv(curves))
    artifacts += [METRICS_FILE, PR_CURVES_FILE]

    effective = {"model": model_kind, "seed": seed, "k-outer": k_outer,
                 "k-inner": k_inner, "dataset": dataset_path,
                 "scheme": scheme, "ngrams": n,
                 "grid": grid,
                 **{k: v for k, v in defaults.items() if v is not None}}
    _write_manifest(out, "nested-cv", effective, artifacts)
    _log(out, "nested-cv")
    pooled = result.pooled_report.overall
    print(f"pooled mean score {pooled['mean_score']:.4f} "
          f"(micro F1 {pooled['micro_f1']:.4f}, "
          f"micro AUCPR {pooled['micro_aucpr']:.4f}, "
          f"MCC {pooled['overall_mcc']:.4f})")
    return 0


def _metrics_csv(report_dict) -> str:
    lines = ["scope,class,metric,value"]
    for name in report_dict["class_names"]:
        for metric, value in sorted(report_dict["per_class"][name].items()):
            lines.append(f"per_class,{name},{metric},{value!r}")
    for metric, value in sorted(report_dict["overall"].items()):
        lines.append(f"overall,,{metric},{value!r}")
    return "\n".join(lines) + "\n"


def _token_frequency_csv(ds, n, top) -> str:
    freqs = ngram.token_frequencies(ds, n)
    lines = ["class,token,count"]
    for name in ds.class_names:
        counter = freqs.get(name, {})
        ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        for token, count in ranked[:top]:
            lines.append(f"{name},{token},{count}")
    return "\n".join(lines) + "\n"


def _prediction_names(paths) -> list:
    """Shortest distinct path suffix per file.

    Prediction artifacts all share one fixed basename, so names must
    grow leftward until they differ; two identical paths cannot.
    """
    parts = [os.path.normpath(p).split(os.sep) for p in paths]
    depth = [1] * len(paths)

    def name(i):
        return os.sep.join(parts[i][-depth[i]:])

    changed = True
    while changed:
        changed = False
        groups = {}
        for i in range(len(paths)):
            groups.setdefault(name(i), []).append(i)
        for group in groups.values():
            if len(group) < 2:
                continue
            grew = False
            for i in group:
                if depth[i] < len(parts[i]):
                    depth[i] += 1
                    grew = True
            if not grew:
                raise UsageError(
                    f"duplicate prediction file: {paths[group[0]]}")
            changed = True
    return [name(i) for i in range(len(paths))]


def cmd_report(args, config) -> int:
    out = _out_dir(args, config)
    pred_paths = _cfg(args, config, "predictions") or []
    dataset_path = _cfg(args, config, "dataset")
    n = _cfg(args, config, "ngrams")
    top = int(_cfg(args, config, "top-tokens", 50))
    if not pred_paths and not dataset_path:
        raise UsageError("report needs --predictions and/or --dataset")
    artifacts = []
    effective = {"predictions": list(pred_paths), "dataset": dataset_path,
                 "ngrams": n, "top-tokens": top}

    if pred_paths:
        ids0, true0, _, class_names, proba0 = _read_predictions(pred_paths[0])
        y = evaluation.label_indices(true0, class_names)
        report = evaluation.compute_report(y, proba0, class_names)
        doc = evaluation.report_to_dict(report)
        _write_json(os.path.join(out, METRICS_FILE), doc)
        atomic_write_text(os.path.join(out, "metrics.csv"),
                          _metrics_csv(doc))
        curves = evaluation.per_class_pr_curves(y, proba0, class_names)
        atomic_write_text(os.path.join(out, PR_CURVES_FILE),
                          evaluation.render_pr_curves_csv(curves))
        artifacts += [METRICS_FILE, "metrics.csv", PR_CURVES_FILE]
        if len(pred_paths) > 1:
            names = _prediction_names(list(pred_paths))
            predictions = {}
            for path, model_name in zip(pred_paths, names):
                ids_i, true_i, predicted, _, _ = _read_predictions(path)
                if ids_i != ids0 or true_i != true0:
                    raise DataError(f"{path}: records do not match "
                                    f"{pred_paths[0]}")
                predictions[model_name] = np.asarray(predicted)
            dis = evaluation.ensemble_disagreement(
                predictions, np.asarray(true0))
            _write_json(os.path.join(out, "disagreement.json"),
                        evaluation.disagreement_to_dict(dis))
            artifacts.append("disagreement.json")

    if dataset_path:
        if n is None:
            raise UsageError("token tables need --ngrams")
        ds = load_dataset(dataset_path)
        atomic_write_text(os.path.join(out, "token_frequencies.csv"),
                          _token_frequency_csv(ds, n, top))
        artifacts.append("token_frequencies.csv")

    _write_manifest(out, "report", effective, artifacts)
    _log(out, "report")
    print(f"wrote {len(artifacts)} report artifacts")
    return 0


_COMMANDS = {
    "prepare": cmd_prepare,
    "synth": cmd_synth,
    "encode": cmd_encode,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "nested-cv": cmd_nested_cv,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(parser.format_usage())
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
