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
import json
import os
import sys

import numpy as np

from . import __version__, estimators, evaluation, ngram, pssm, store, synth
from .estimators import UsageError
from .models import OPTIMIZERS, TrainingDivergedError
from .seqio import (DataError, class_order, load_dataset, prepare_corpus,
                    read_text, save_dataset, write_fasta)
from .util import atomic_write_text

DATASET_FILE = "dataset.json"
FEATURES_FILE = "features.csv"
TOKENS_FILE = "tokens.csv"
VOCAB_FILE = "vocab.json"
MODEL_FILE = "model.bin"
METRICS_FILE = "metrics.json"
METRICS_CSV_FILE = "metrics.csv"
PR_CURVES_FILE = "pr_curves.csv"
MANIFEST_FILE = "manifest.json"
PLAN_FILE = "cv_plan.json"
FILTER_REPORT_FILE = "filter_report.json"
FASTA_FILE = "corpus.fasta"
PREDICTIONS_FILE = "predictions.csv"
DISAGREEMENT_FILE = "disagreement.json"
TOKEN_FREQUENCIES_FILE = "token_frequencies.csv"
LOG_FILE = "run.log"

# add_argument keywords of each flag, defined once. A model field's flag
# takes its type from the config dataclass (see _flag_options), so only
# its choices or help are listed here.
_FLAGS = {
    "model": {"choices": list(estimators.KINDS)},
    "config": {"help": "JSON config file; flags override it"},
    "out": {"help": "output directory"},
    "fasta": {"help": "input FASTA path"},
    "level": {"choices": ["coarse", "fine"]},
    "host-key": {"help": "metadata key holding the host"},
    "drop-incomplete": {"action": "store_true", "default": None},
    "records": {"type": int},
    "classes": {"type": int},
    "seed": {"type": int},
    "min-len": {"type": int},
    "max-len": {"type": int},
    "with-pssms": {"action": "store_true", "default": None,
                   "help": "also write synthetic profiles under pssms/"},
    "dataset": {"help": "dataset.json path"},
    "scheme": {"choices": sorted(pssm.SCHEME_DIMS)},
    "pssm-dir": {"help": "directory of <record id>.pssm files"},
    "synth-pssms": {"action": "store_true", "default": None,
                    "help": "derive profiles synthetically from --seed"},
    "ngrams": {"type": int, "help": "token window size"},
    "features": {"help": "features.csv path"},
    "tokens": {"help": "tokens.csv path"},
    "vocab": {"help": "vocab.json path"},
    "model-file": {"help": "model.bin path"},
    "optimizer": {"choices": tuple(OPTIMIZERS)},
    "hidden": {"help": "comma-separated dense layer sizes"},
    "base-depth": {"help": "depth of boosted base trees"},
    "k-outer": {"type": int},
    "k-inner": {"type": int},
    "grid": {"help": "JSON grid: file path or inline text"},
    "workers": {"type": int},
    "predictions": {"nargs": "+",
                    "help": "prediction CSVs; first defines the metrics"},
    "top-tokens": {"type": int},
}
_DATASET_FLAGS = ("dataset", "scheme", "pssm-dir", "synth-pssms", "ngrams")
_DATA_FLAGS = ("features", "tokens", "vocab")
_MODEL_FLAGS = ("model", "seed") + tuple(
    name.replace("_", "-") for name in estimators.FIELDS)
# subcommand -> (help, its flags besides --config and --out)
_SUBCOMMANDS = {
    "prepare": ("parse, filter, dedup a FASTA corpus",
                ("fasta", "level", "host-key", "drop-incomplete")),
    "synth": ("generate a synthetic motif corpus",
              ("records", "classes", "seed", "min-len", "max-len",
               "with-pssms")),
    "encode": ("featurize a dataset", _DATASET_FLAGS + ("seed",)),
    "train": ("fit one model on a full feature file",
              _MODEL_FLAGS + _DATA_FLAGS),
    "evaluate": ("score a saved model on a data file",
                 ("model-file",) + _DATA_FLAGS),
    "predict": ("write per-record predictions",
                ("model-file",) + _DATA_FLAGS),
    "nested-cv": ("nested cross-validation run",
                  _MODEL_FLAGS + _DATASET_FLAGS + _DATA_FLAGS
                  + ("k-outer", "k-inner", "grid", "workers")),
    "report": ("derive tables from prediction files",
               ("predictions", "dataset", "ngrams", "top-tokens")),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _flag_options(name) -> dict:
    """add_argument keywords of flag --name: a model field's type (a tuple
    field is text, read by _model_factory), then its _FLAGS entry."""
    kind = estimators.FIELDS.get(name.replace("-", "_"), tuple)
    return {**({} if kind is tuple else {"type": kind}),
            **_FLAGS.get(name, {})}


def build_parser() -> _Parser:
    parser = _Parser(prog="hostseq", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for command, (text, names) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in ("config", "out") + names:
            p.add_argument("--" + name, **_flag_options(name))
    return parser


def _config_value(name, value, options):
    """A config value of flag --name read the way the flag's text is. A
    store-true flag takes true or false; a typed flag converts a string,
    or the JSON text of another value; a text flag takes a string (or a
    list of them for --predictions, a JSON list or number for --hidden)."""
    try:
        if options.get("action") == "store_true":
            if not isinstance(value, bool):
                raise ValueError
        elif options.get("nargs"):
            value = [value] if isinstance(value, str) else value
            if not (isinstance(value, list)
                    and all(isinstance(v, str) for v in value)):
                raise ValueError
        elif "type" in options:
            value = options["type"](
                value if isinstance(value, str) else json.dumps(value))
        elif not isinstance(value, str) and name != "hidden":
            raise ValueError
    except ValueError:
        raise UsageError(f"config --{name} cannot be {value!r}") from None
    if value not in options.get("choices", (value,)):
        raise UsageError(f"unknown --{name} {value!r}")
    return value


def _load_config(path, command):
    """The values of command's flags in the JSON object at path, each read
    by _config_value; a null value leaves its flag unset."""
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    names = ("out",) + _SUBCOMMANDS[command][1]
    return {name: _config_value(name, value, _flag_options(name))
            for name, value in doc.items()
            if name in names and value is not None}


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


def _workers(args, config) -> int:
    """--workers, capped at the cores this process may run on."""
    requested = _cfg(args, config, "workers", 1)
    return max(min(requested, len(os.sched_getaffinity(0))), 1)


def _finish(out, command, effective, artifacts) -> None:
    """Writes the manifest and appends a run.log line."""
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
    _write_json(os.path.join(out, MANIFEST_FILE), doc)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(os.path.join(out, LOG_FILE), "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {command}\n")


def _write_json(path, doc) -> None:
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_scores(out, doc, report) -> list:
    """metrics.json holding doc, and the per-class PR curves of report."""
    _write_json(os.path.join(out, METRICS_FILE), doc)
    store.write_pr_curves_csv(os.path.join(out, PR_CURVES_FILE),
                              report.pr_curves)
    return [METRICS_FILE, PR_CURVES_FILE]


# Each command returns (effective config, artifacts written, message);
# main writes the manifest and prints the message.

def cmd_prepare(args, config, out):
    fasta = _require(_cfg(args, config, "fasta"), "fasta")
    level = _require(_cfg(args, config, "level"), "level")
    host_key = _cfg(args, config, "host-key", "host")
    drop_incomplete = bool(_cfg(args, config, "drop-incomplete", False))
    ds, report = prepare_corpus(read_text(fasta), level, host_key=host_key,
                                drop_incomplete=drop_incomplete)
    save_dataset(ds, os.path.join(out, DATASET_FILE))
    _write_json(os.path.join(out, FILTER_REPORT_FILE), report)
    effective = {"fasta": fasta, "level": level, "host-key": host_key,
                 "drop-incomplete": drop_incomplete}
    return (effective, [DATASET_FILE, FILTER_REPORT_FILE],
            f"kept {report['kept']} of {report['parsed']} records "
            f"({len(ds.class_names)} classes)")


def cmd_synth(args, config, out):
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
    return (effective, artifacts,
            f"wrote {len(ds)} records over {classes} classes")


@dataclasses.dataclass
class _Table:
    """Model input: one row of features, or of token ids from vocab, per
    record. Classes are ordered by seqio.class_order."""
    matrix: np.ndarray
    ids: list
    labels: list
    vocab: ngram.Vocabulary | None = None

    def __post_init__(self):
        self.class_names = class_order(self.labels)
        self.y = evaluation.label_indices(self.labels, self.class_names)


def _dataset_pssms(ds, pssm_dir, synth_pssms, seed):
    if pssm_dir and synth_pssms:
        raise UsageError("--pssm-dir and --synth-pssms are exclusive")
    if synth_pssms:
        if seed is None:
            raise UsageError("--synth-pssms requires --seed")
        return synth.generate_pssms(ds, seed)
    if not pssm_dir:
        raise UsageError("scheme encoding needs --pssm-dir or --synth-pssms")
    return {r.id: pssm.parse_psiblast_pssm(
                read_text(os.path.join(pssm_dir, f"{r.id}.pssm")))
            for r in ds.records}


def _encode(args, config, seed) -> _Table:
    """--dataset featurized by --scheme, or tokenized by --ngrams."""
    ds = load_dataset(_require(_cfg(args, config, "dataset"), "dataset"))
    scheme = _cfg(args, config, "scheme")
    n = _cfg(args, config, "ngrams")
    if (scheme is None) == (n is None):
        raise UsageError("pass exactly one of --scheme or --ngrams")
    ids = [r.id for r in ds.records]
    if scheme:
        profiles = _dataset_pssms(ds, _cfg(args, config, "pssm-dir"),
                                  bool(_cfg(args, config, "synth-pssms")),
                                  seed)
        rows = np.empty((len(ds.records), pssm.SCHEME_DIMS[scheme]))
        for i, r in enumerate(ds.records):
            rows[i] = pssm.encode_record_features(r.residues, profiles[r.id],
                                                  scheme)
        return _Table(rows, ids, ds.labels)
    token_lists = [ngram.tokenize(r.residues, n) for r in ds.records]
    vocab = ngram.build_vocab(token_lists, n)
    max_len = max(len(tokens) for tokens in token_lists)
    matrix = ngram.encode_corpus(token_lists, vocab, max_len)
    return _Table(matrix, ids, ds.labels, vocab)


def _load_table(args, config) -> _Table:
    """The --features file, or the --tokens file with its --vocab."""
    features = _cfg(args, config, "features")
    tokens = _cfg(args, config, "tokens")
    if (features is None) == (tokens is None):
        raise UsageError("pass exactly one of --features or --tokens")
    if features:
        ids, labels, _, matrix = store.read_features_csv(features)
        return _Table(matrix, ids, labels)
    vocab_path = _require(_cfg(args, config, "vocab"), "vocab")
    vocab, max_len = ngram.load_vocab(vocab_path)
    ids, labels, matrix = store.read_tokens_csv(tokens)
    if matrix.shape[1] != max_len:
        raise DataError(f"{tokens}: width {matrix.shape[1]} does not match "
                        f"vocab max_len {max_len}")
    if matrix.size and not 0 <= matrix.min() <= matrix.max() < vocab.size:
        raise DataError(f"{tokens}: token ids outside [0, {vocab.size}), "
                        f"the ids of {vocab_path}")
    return _Table(matrix, ids, labels, vocab)


def cmd_encode(args, config, out):
    seed = _cfg(args, config, "seed")
    table = _encode(args, config, seed)
    scheme = _cfg(args, config, "scheme")
    n = _cfg(args, config, "ngrams")
    records = len(table.ids)
    if table.vocab is None:
        store.write_features_csv(os.path.join(out, FEATURES_FILE),
                                 table.ids, table.labels, scheme, table.matrix)
        artifacts = [FEATURES_FILE]
        message = (f"encoded {records} records as {scheme} "
                   f"({table.matrix.shape[1]} features)")
    else:
        max_len = table.matrix.shape[1]
        ngram.save_vocab(table.vocab, max_len, os.path.join(out, VOCAB_FILE))
        store.write_tokens_csv(os.path.join(out, TOKENS_FILE), table.ids,
                               table.labels, table.matrix)
        artifacts = [VOCAB_FILE, TOKENS_FILE]
        message = (f"encoded {records} records as {n}-grams "
                   f"(vocab {table.vocab.size}, max_len {max_len})")
    effective = {"dataset": _cfg(args, config, "dataset"), "scheme": scheme,
                 "ngrams": n, "seed": seed,
                 "pssm-dir": _cfg(args, config, "pssm-dir"),
                 "synth-pssms": bool(_cfg(args, config, "synth-pssms"))}
    return effective, artifacts, message


def _model_factory(args, config, model, table) -> estimators.ModelFactory:
    """The factory of model for table's input; its defaults are the model
    flags given, by field name."""
    given = {name: value for name in estimators.FIELDS
             if (value := _cfg(args, config, name.replace("_", "-")))
             is not None}
    hidden = given.get("hidden")
    if isinstance(hidden, str):
        hidden = [v for v in hidden.split(",") if v]
    if hidden is not None:
        given["hidden"] = estimators.coerce(tuple, "hidden", hidden)
    width = table.matrix.shape[1]
    shape = ({"in_dim": width} if table.vocab is None
             else {"vocab_size": table.vocab.size, "max_len": width})
    return estimators.ModelFactory(model, len(table.class_names), given,
                                   **shape)


def cmd_train(args, config, out):
    model_kind = _require(_cfg(args, config, "model"), "model")
    seed = _require(_cfg(args, config, "seed"), "seed")
    table = _load_table(args, config)
    factory = _model_factory(args, config, model_kind, table)
    estimator = factory({}, seed)
    estimator.fit(table.matrix, table.y)
    store.save_model(os.path.join(out, MODEL_FILE), estimator,
                     table.class_names)
    effective = {"model": model_kind, "seed": seed, **factory.defaults}
    return (effective, [MODEL_FILE],
            f"trained {model_kind} on {len(table.ids)} records")


def _predict(args, config):
    """Scores the data file with --model-file; returns (table, the
    model's class names, probabilities, effective config)."""
    model_path = _require(_cfg(args, config, "model-file"), "model-file")
    model, class_names = store.load_model(model_path)
    table = _load_table(args, config)
    proba = model.predict_proba(table.matrix)
    if proba.shape[1] != len(class_names):
        raise DataError("model class count does not match data")
    effective = {key: _cfg(args, config, key)
                 for key in ("model-file", "features", "tokens")}
    return table, class_names, proba, effective


def cmd_evaluate(args, config, out):
    table, class_names, proba, effective = _predict(args, config)
    report = evaluation.compute_report(
        evaluation.label_indices(table.labels, class_names), proba,
        class_names)
    artifacts = _write_scores(out, evaluation.report_to_dict(report), report)
    return (effective, artifacts,
            f"mean score {report.overall['mean_score']:.4f} "
            f"over {len(table.ids)} records")


def cmd_predict(args, config, out):
    table, class_names, proba, effective = _predict(args, config)
    store.write_predictions_csv(os.path.join(out, PREDICTIONS_FILE),
                                table.ids, table.labels, proba, class_names)
    return (effective, [PREDICTIONS_FILE],
            f"wrote predictions for {len(table.ids)} records")


def _parse_grid(text, model_kind) -> list:
    """Points of --grid (inline JSON or a file path) or the default grid."""
    if text is None:
        doc = estimators.DEFAULT_GRIDS[model_kind]
    elif text.lstrip().startswith(("[", "{")):
        doc = json.loads(text)
    else:
        with open(text, encoding="utf-8") as fh:
            doc = json.load(fh)
    return estimators.grid_points(doc)


def cmd_nested_cv(args, config, out):
    model_kind = _require(_cfg(args, config, "model"), "model")
    seed = _require(_cfg(args, config, "seed"), "seed")
    k_outer = _cfg(args, config, "k-outer", 5)
    k_inner = _cfg(args, config, "k-inner", 4)
    workers = _workers(args, config)
    dataset = _cfg(args, config, "dataset")
    table = (_encode(args, config, seed) if dataset
             else _load_table(args, config))
    factory = _model_factory(args, config, model_kind, table)
    grid = _parse_grid(_cfg(args, config, "grid"), model_kind)
    for params in grid:  # a bad grid point fails before any fit runs
        factory(params, seed)

    plan = evaluation.make_cv_plan(table.y, k_outer, k_inner, seed)
    evaluation.save_plan(plan, os.path.join(out, PLAN_FILE))
    result = evaluation.nested_cv(table.matrix, table.y, factory, grid, plan,
                                  table.class_names, workers=workers)
    artifacts = [PLAN_FILE] + _write_scores(
        out, evaluation.nested_cv_to_dict(result), result.pooled_report)
    effective = {"model": model_kind, "seed": seed, "k-outer": k_outer,
                 "k-inner": k_inner, "dataset": dataset,
                 "scheme": _cfg(args, config, "scheme"),
                 "ngrams": _cfg(args, config, "ngrams"), "grid": grid,
                 **factory.defaults}
    pooled = result.pooled_report.overall
    return (effective, artifacts,
            f"pooled mean score {pooled['mean_score']:.4f} "
            f"(micro F1 {pooled['micro_f1']:.4f}, "
            f"micro AUCPR {pooled['micro_aucpr']:.4f}, "
            f"MCC {pooled['overall_mcc']:.4f})")


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


def cmd_report(args, config, out):
    pred_paths = _cfg(args, config, "predictions") or []
    dataset_path = _cfg(args, config, "dataset")
    n = _cfg(args, config, "ngrams")
    top = _cfg(args, config, "top-tokens", 50)
    if not pred_paths and not dataset_path:
        raise UsageError("report needs --predictions and/or --dataset")
    artifacts = []

    if pred_paths:
        tables = [store.read_predictions_csv(path) for path in pred_paths]
        ids0, true0, _, class_names, proba0 = tables[0]
        report = evaluation.compute_report(
            evaluation.label_indices(true0, class_names), proba0, class_names)
        doc = evaluation.report_to_dict(report)
        store.write_metrics_csv(os.path.join(out, METRICS_CSV_FILE), doc)
        artifacts += [METRICS_CSV_FILE] + _write_scores(out, doc, report)
        if len(pred_paths) > 1:
            predictions = {}
            for path, name, (ids, true, predicted, _, _) in zip(
                    pred_paths, _prediction_names(list(pred_paths)), tables):
                if ids != ids0 or true != true0:
                    raise DataError(f"{path}: records do not match "
                                    f"{pred_paths[0]}")
                predictions[name] = np.asarray(predicted)
            _write_json(os.path.join(out, DISAGREEMENT_FILE),
                        evaluation.ensemble_disagreement(
                            predictions, np.asarray(true0)))
            artifacts.append(DISAGREEMENT_FILE)

    if dataset_path:
        if n is None:
            raise UsageError("token tables need --ngrams")
        ds = load_dataset(dataset_path)
        store.write_token_frequencies_csv(
            os.path.join(out, TOKEN_FREQUENCIES_FILE),
            ngram.token_frequencies(ds, n), ds.class_names, top)
        artifacts.append(TOKEN_FREQUENCIES_FILE)

    effective = {"predictions": list(pred_paths), "dataset": dataset_path,
                 "ngrams": n, "top-tokens": top}
    return effective, artifacts, f"wrote {len(artifacts)} report artifacts"


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
        config = _load_config(args.config, args.command)
        out = _require(_cfg(args, config, "out"), "out")
        os.makedirs(out, exist_ok=True)
        effective, artifacts, message = _COMMANDS[args.command](
            args, config, out)
        _finish(out, args.command, effective, artifacts)
        print(message)
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
