"""Command-line front end.

Every subcommand resolves each of its flags once: the command-line
value, else the value in the optional JSON --config, else the flag's
default. It writes its artifacts under --out through store.OutDir, with
fixed file names, and finishes with a manifest whose config holds every
flag but --config and --out with its resolved value (null for unset), so
that config replays the run as --config. A failed command removes the
--out directory if it created it. Exit codes: 0 success, 1 usage or
config error, 2 data error, 3 diverged training. Each error code has one exception type, with
no subclasses: estimators.UsageError, util.DataError and
models.TrainingDivergedError; a caller that knows the file, record or
fold a data error arose in prefixes it with util.located.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys

import numpy as np

from . import estimators, evaluation, ngram, pssm, store, synth
from .estimators import UsageError
from .models import TrainingDivergedError
from .seqio import (class_order, load_dataset, prepare_corpus, read_text,
                    save_dataset)
from .util import DataError, located

# add_argument keywords of each flag and its default, defined once. A
# model field's flag takes its type from the config dataclass (see
# _flag_options), so only its choices or help are listed here.
_FLAGS = {
    "model": {"choices": list(estimators.KINDS)},
    "config": {"help": "JSON config file; flags override it"},
    "out": {"help": "output directory"},
    "fasta": {"help": "input FASTA path"},
    "level": {"choices": ["coarse", "fine"]},
    "host-key": {"help": "metadata key holding the host", "default": "host"},
    "drop-incomplete": {"action": "store_true", "default": False},
    "records": {"type": int},
    "classes": {"type": int, "default": 3},
    "seed": {"type": int},
    "min-len": {"type": int, "default": 40},
    "max-len": {"type": int, "default": 60},
    "with-pssms": {"action": "store_true", "default": False,
                   "help": "also write synthetic profiles under pssms/"},
    "dataset": {"help": "dataset.json path"},
    "scheme": {"choices": sorted(pssm.SCHEME_DIMS)},
    "pssm-dir": {"help": "directory of <record id>.pssm files"},
    "synth-pssms": {"action": "store_true", "default": False,
                    "help": "derive profiles synthetically from --seed"},
    "ngrams": {"type": int, "help": "token window size"},
    "features": {"help": "features.csv path"},
    "tokens": {"help": "tokens.csv path"},
    "vocab": {"help": "vocab.json path"},
    "model-file": {"help": "model.bin path"},
    "hidden": {"help": "width of the MLP's hidden layer"},
    "base-depth": {"help": "depth of boosted base trees"},
    "k-outer": {"type": int, "default": 5},
    "k-inner": {"type": int, "default": 4},
    "grid": {"help": "JSON grid: file path or inline text"},
    "workers": {"type": int, "default": 1},
    "predictions": {"nargs": "+", "default": [],
                    "help": "prediction CSVs; first defines the metrics"},
    "top-tokens": {"type": int, "default": 50},
}
_DATA_FLAGS = ("features", "tokens", "vocab")
_MODEL_FLAGS = ("model", "seed") + tuple(
    name.replace("_", "-") for name in estimators.FIELDS)
# subcommand -> (help, its flags besides --config and --out, the groups
# it requires besides --out)
_SUBCOMMANDS = {
    "prepare": ("parse, filter, dedup a FASTA corpus",
                ("fasta", "level", "host-key", "drop-incomplete"),
                ("fasta", "level")),
    "synth": ("generate a synthetic motif corpus",
              ("records", "classes", "seed", "min-len", "max-len",
               "with-pssms"), ("records", "seed")),
    "encode": ("featurize a dataset",
               ("dataset", "scheme", "pssm-dir", "synth-pssms", "ngrams",
                "seed"), ("dataset",)),
    "train": ("fit one model on a full feature file",
              _MODEL_FLAGS + _DATA_FLAGS,
              ("model", "seed", "features|tokens")),
    "evaluate": ("score a saved model on a data file",
                 ("model-file",) + _DATA_FLAGS,
                 ("model-file", "features|tokens")),
    "predict": ("write per-record predictions",
                ("model-file",) + _DATA_FLAGS,
                ("model-file", "features|tokens")),
    "nested-cv": ("nested cross-validation run",
                  _MODEL_FLAGS + _DATA_FLAGS
                  + ("k-outer", "k-inner", "grid", "workers"),
                  ("model", "seed", "features|tokens")),
    "report": ("derive tables from prediction files",
               ("predictions", "dataset", "ngrams", "top-tokens"),
               ("predictions|dataset",)),
}
# The flag-presence rules besides the required groups, each applied to a
# command only among its own flags; "a|b" means --a or --b. An _EXCLUSIVE
# pair may not be given together. A _NEEDS flag, given, needs one of its
# alternatives that the command has; a command with none has no rule.
_EXCLUSIVE = (("scheme", "ngrams"), ("pssm-dir", "synth-pssms"),
              ("features", "tokens"))
_NEEDS = (("pssm-dir", "scheme"), ("synth-pssms", "scheme"),
          ("scheme", "pssm-dir|synth-pssms"), ("synth-pssms", "seed"),
          ("seed", "synth-pssms"), ("dataset", "scheme|ngrams"),
          ("ngrams", "dataset"), ("tokens", "vocab"), ("vocab", "tokens"))
# Flags whose value must lie in [low, high]; a high of None is no bound.
_RANGES = {"ngrams": (1, ngram.MAX_N), "workers": (1, None),
           "top-tokens": (1, None)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _flag_options(name) -> dict:
    """add_argument keywords of flag --name: a model field's type, then
    its _FLAGS entry."""
    kind = estimators.FIELDS.get(name.replace("-", "_"))
    return {**({"type": kind} if kind else {}), **_FLAGS.get(name, {})}


@functools.cache  # one parser per process: building one leaves cycles
def build_parser() -> _Parser:
    parser = _Parser(prog="hostseq", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for command, (text, names, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in ("config", "out") + names:
            # unset stays None, so _options can fall back to --config
            p.add_argument("--" + name,
                           **{**_flag_options(name), "default": None})
    return parser


def _config_value(name, value, options):
    """A config value of flag --name read the way the flag's text is. A
    store-true flag takes true or false; a typed flag converts a string,
    or the JSON text of another value; a text flag takes a string (or a
    list of them for --predictions)."""
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
        elif not isinstance(value, str):
            raise ValueError
    except ValueError:
        raise UsageError(f"config --{name} cannot be {value!r}") from None
    if value not in options.get("choices", (value,)):
        raise UsageError(f"unknown --{name} {value!r}")
    return value


def _json(text, source):
    """text as JSON; malformed JSON is a usage error naming source."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{source}: {exc}") from None


def _options(args) -> dict:
    """Each flag of args.command but --config, by name: its command-line
    value, else its --config value, else its default. Every config value
    of the command's flags is read by _config_value, and null leaves its
    flag unset. A config key that is no subcommand's flag is a usage
    error; another subcommand's flag is ignored, so one config can drive
    a whole pipeline. Resolved flags that break a required group (--out
    and the command's), _EXCLUSIVE, _NEEDS or _RANGES are a usage error;
    a null, false or empty value counts as not given."""
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = _json(fh.read(), args.config)
        if not isinstance(config, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(config).difference(
            _FLAGS, *(names for _, names, _ in _SUBCOMMANDS.values())))
        if unknown:
            raise UsageError(f"{args.config}: unknown config key "
                             f"{unknown[0]!r}")
    _, names, required = _SUBCOMMANDS[args.command]
    opts = {}
    for name in ("out",) + names:
        flag = _flag_options(name)
        if config.get(name) is not None:  # stands in for the default
            flag["default"] = _config_value(name, config[name], flag)
        given = getattr(args, name.replace("-", "_"))
        opts[name] = flag.get("default") if given is None else given
    given = {name for name, value in opts.items()
             if value is not None and value is not False and value != []}

    def flags(group):  # the flags of group that the command has
        return " or ".join(f"--{n}" for n in group.split("|") if n in opts)

    for group in ("out",) + required:
        if given.isdisjoint(group.split("|")):
            raise UsageError(f"{args.command} needs {flags(group)}")
    for name, other in _EXCLUSIVE:
        if name in given and other in given:
            raise UsageError(f"--{name} and --{other} are exclusive")
    for name, group in _NEEDS:
        if name in given and flags(group) and given.isdisjoint(
                group.split("|")):
            raise UsageError(f"--{name} needs {flags(group)}")
    for name, (low, high) in _RANGES.items():
        value = opts.get(name)
        if value is not None and not low <= value <= (high or value):
            span = f"in [{low}, {high}]" if high else f"at least {low}"
            raise UsageError(f"--{name} must be {span}, got {value}")
    return opts


# Each command takes its resolved options (see _options) and the
# store.OutDir of --out, and returns its message; main writes the
# manifest, whose config is those options, and prints the message.

def cmd_prepare(opts, out):
    fasta, level = opts["fasta"], opts["level"]
    text = read_text(fasta)
    with located(fasta, DataError):
        ds, report = prepare_corpus(text, level, host_key=opts["host-key"],
                                    drop_incomplete=opts["drop-incomplete"])
    save_dataset(ds, out.file(store.DATASET_FILE))
    store.write_json(out.file(store.FILTER_REPORT_FILE), report)
    return (f"kept {report['kept']} of {report['parsed']} records "
            f"({len(ds.class_names)} classes)")


def cmd_synth(opts, out):
    seed = opts["seed"]
    spec = synth.SynthSpec(classes=synth.default_classes(opts["classes"]),
                           records=opts["records"], min_len=opts["min-len"],
                           max_len=opts["max-len"], seed=seed)
    ds = synth.generate(spec)
    save_dataset(ds, out.file(store.DATASET_FILE))
    out.write_corpus(ds.records)
    if opts["with-pssms"]:
        out.write_pssms(synth.generate_pssms(ds, seed))
    return f"wrote {len(ds)} records over {opts['classes']} classes"


class _Table:
    """Model input, read from the --features file, or the --tokens file
    with its --vocab (vocab None otherwise): one row of features or token
    ids per record. Classes are ordered by seqio.class_order."""

    def __init__(self, opts):
        self.ids, self.labels, self.matrix, self.vocab = store.read_table(
            opts["features"], opts["tokens"], opts["vocab"])
        self.class_names = class_order(self.labels)
        self.y = evaluation.label_indices(self.labels, self.class_names)


def _each_record(ds, encode) -> list:
    """encode of each record of ds; a data error names the record."""
    rows = []
    for r in ds.records:
        with located(f"record {r.id}", DataError):
            rows.append(encode(r))
    return rows


def cmd_encode(opts, out):
    ds = load_dataset(opts["dataset"])
    ids, scheme, n = [r.id for r in ds.records], opts["scheme"], opts["ngrams"]
    if scheme:
        profiles = (synth.generate_pssms(ds, opts["seed"])
                    if opts["synth-pssms"]
                    else store.read_pssms(opts["pssm-dir"], ids))
        rows = _each_record(ds, lambda r: pssm.encode_record_features(
            r.residues, profiles[r.id], scheme))
        matrix = np.array(rows).reshape(len(rows), pssm.SCHEME_DIMS[scheme])
        store.write_features_csv(out.file(store.FEATURES_FILE), ids,
                                 ds.labels, scheme, matrix)
        return (f"encoded {len(ids)} records as {scheme} "
                f"({matrix.shape[1]} features)")
    rows = _each_record(ds, lambda r: ngram.tokenize(r.residues, n))
    vocab = ngram.build_vocab(rows, n)
    max_len = max(len(tokens) for tokens in rows)
    store.save_vocab(vocab, max_len, out.file(store.VOCAB_FILE))
    store.write_tokens_csv(out.file(store.TOKENS_FILE), ids, ds.labels,
                           ngram.encode_corpus(rows, vocab, max_len))
    return (f"encoded {len(ids)} records as {n}-grams (vocab {vocab.size}, "
            f"max_len {max_len})")


def _model_factory(opts, model, table) -> estimators.ModelFactory:
    """The factory of model for table's input; its defaults are the model
    flags given, by field name. A flag that model does not read is a
    usage error, and a table of fewer than 2 classes a data error."""
    given = {name: value for name in estimators.FIELDS
             if (value := opts[name.replace("_", "-")]) is not None}
    unread = sorted(set(given) - estimators.READS[model])
    if unread:
        raise UsageError(
            f"--model {model} reads no --{unread[0].replace('_', '-')}")
    if len(table.class_names) < 2:
        raise DataError(f"{opts['features'] or opts['tokens']}: need at "
                        f"least 2 classes, found {len(table.class_names)}")
    return estimators.ModelFactory(model, len(table.class_names), given,
                                   table.vocab.size if table.vocab else 0)


def cmd_train(opts, out):
    model_kind, seed = opts["model"], opts["seed"]
    table = _Table(opts)
    estimator = _model_factory(opts, model_kind, table)({}, seed)
    estimator.fit(table.matrix, table.y)
    store.save_model(out.file(store.MODEL_FILE), estimator, table.class_names)
    return f"trained {model_kind} on {len(table.ids)} records"


def _predict(opts):
    """Scores the data file with --model-file; returns (table, the
    model's class names, probabilities)."""
    model, class_names = store.load_model(opts["model-file"])
    table = _Table(opts)
    with located(opts["features"] or opts["tokens"], DataError):
        proba = model.predict_proba(table.matrix)  # input it cannot read
    return table, class_names, proba


def cmd_evaluate(opts, out):
    table, class_names, proba = _predict(opts)
    with located(opts["features"] or opts["tokens"], DataError):
        y = evaluation.label_indices(table.labels, class_names)
    doc, curves = evaluation.compute_report(y, proba, class_names)
    out.write_scores(doc, curves)
    return (f"mean score {doc['overall']['mean_score']:.4f} "
            f"over {len(table.ids)} records")


def cmd_predict(opts, out):
    table, class_names, proba = _predict(opts)
    store.write_predictions_csv(out.file(store.PREDICTIONS_FILE), table.ids,
                                table.labels, proba, class_names)
    return f"wrote predictions for {len(table.ids)} records"


def _parse_grid(text, model_kind) -> list:
    """Points of --grid (inline JSON or a file path) or the default grid."""
    if text is None:
        doc = estimators.DEFAULT_GRIDS[model_kind]
    elif text.lstrip().startswith(("[", "{")):
        doc = _json(text, "--grid")
    else:
        with open(text, encoding="utf-8") as fh:
            doc = _json(fh.read(), text)
    return estimators.grid_points(doc)


def cmd_nested_cv(opts, out):
    model_kind, seed = opts["model"], opts["seed"]
    table = _Table(opts)
    factory = _model_factory(opts, model_kind, table)
    grid = _parse_grid(opts["grid"], model_kind)
    for params in grid:  # a bad grid point fails before any fit runs
        factory(params, seed)

    plan = evaluation.make_cv_plan(table.y, opts["k-outer"], opts["k-inner"],
                                   seed)
    store.save_plan(plan, out.file(store.PLAN_FILE))
    # --workers, capped at the cores this process may run on, for a kind
    # whose fits gain from threads (estimators.KINDS); one thread otherwise
    workers = 1
    if estimators.KINDS[model_kind].threads:
        workers = min(opts["workers"], len(os.sched_getaffinity(0)))
    doc, curves = evaluation.nested_cv(
        table.matrix, table.y, factory, grid, plan, table.class_names,
        workers=workers, stages=estimators.KINDS[model_kind].stages)
    out.write_scores(doc, curves)
    pooled = doc["pooled"]["overall"]
    search = "no inner search (one grid point); " if len(grid) == 1 else ""
    return (f"pooled mean score {pooled['mean_score']:.4f} "
            f"(micro F1 {pooled['micro_f1']:.4f}, "
            f"micro AUCPR {pooled['micro_aucpr']:.4f}, "
            f"MCC {pooled['overall_mcc']:.4f}); {search}fits ran on "
            f"{workers} worker thread{'s' if workers > 1 else ''}")


def _prediction_names(paths) -> list:
    """Each path relative to the deepest directory that holds them all:
    prediction files share one basename, so their names keep the
    directories that tell them apart. Two paths to one file are a usage
    error."""
    absolute = [os.path.abspath(p) for p in paths]
    root = os.path.commonpath([os.path.dirname(p) for p in absolute])
    names = [os.path.relpath(p, root) for p in absolute]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise UsageError(f"duplicate prediction file: {paths[i]}")
    return names


def cmd_report(opts, out):
    pred_paths, dataset_path = opts["predictions"], opts["dataset"]

    if pred_paths:
        names = _prediction_names(pred_paths)
        tables = [store.read_predictions_csv(path) for path in pred_paths]
        ids0, true0, _, class_names, proba0 = tables[0]
        with located(pred_paths[0], DataError):
            y = evaluation.label_indices(true0, class_names)
        doc, curves = evaluation.compute_report(y, proba0, class_names)
        store.write_metrics_csv(out.file(store.METRICS_CSV_FILE), doc)
        out.write_scores(doc, curves)
        if len(pred_paths) > 1:
            predictions = {}
            for path, name, (ids, true, predicted, _, _) in zip(
                    pred_paths, names, tables):
                if ids != ids0 or true != true0:
                    raise DataError(f"{path}: records do not match "
                                    f"{pred_paths[0]}")
                predictions[name] = np.asarray(predicted)
            store.write_json(out.file(store.DISAGREEMENT_FILE),
                             evaluation.ensemble_disagreement(
                                 predictions, np.asarray(true0)))

    if dataset_path:
        ds = load_dataset(dataset_path)
        store.write_token_frequencies_csv(
            out.file(store.TOKEN_FREQUENCIES_FILE),
            ngram.token_frequencies(ds, opts["ngrams"]), ds.class_names,
            opts["top-tokens"])
    return f"wrote {len(out.artifacts)} report artifacts"


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


def _outermost_missing(path):
    """The outermost directory on path that does not exist yet, or None."""
    path, missing = os.path.abspath(path), None
    while not os.path.lexists(path):
        path, missing = os.path.dirname(path), path
    return missing


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(parser.format_usage())
        opts = _options(args)
        path = opts.pop("out")
        created = _outermost_missing(path)
        try:
            out = store.OutDir(path)
            message = _COMMANDS[args.command](opts, out)
            out.finish(args.command, opts)
        except BaseException:
            if created is not None:
                shutil.rmtree(created, ignore_errors=True)
            raise
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
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
