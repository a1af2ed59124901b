"""Command-line pipeline: exit codes, artifacts, overrides, determinism."""

import argparse
import csv
import gc
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hostseq import (cli, ensemble, estimators, evaluation, ngram, pssm, seqio,
                     store, synth)


def run(argv):
    return cli.main(argv)


def seeded_features(tmp_path):
    """features.csv of 36 seeded rows over three classes."""
    rng = np.random.default_rng(2022)
    X = rng.random((36, 6))
    labels = [("avian", "human", "swine")[i] for i in X[:, :3].argmax(axis=1)]
    features = tmp_path / "features.csv"
    store.write_features_csv(features, [f"r{i}" for i in range(36)], labels,
                             "eg", X)
    return features


def synth_corpus(out, records=30, classes=2, seed=7, with_pssms=False):
    argv = ["synth", "--out", str(out), "--records", str(records),
            "--classes", str(classes), "--seed", str(seed),
            "--min-len", "40", "--max-len", "50"]
    if with_pssms:
        argv.append("--with-pssms")
    assert run(argv) == 0
    return os.path.join(str(out), "dataset.json")


def test_no_arguments_usage_error(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_usage_error(capsys):
    assert run(["synth", "--frobnicate"]) == 1
    assert capsys.readouterr().err != ""


def test_synth_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    synth_corpus(out, with_pssms=True)
    for name in ("dataset.json", "corpus.fasta", "manifest.json", "run.log"):
        assert (out / name).exists(), name
    ds = seqio.load_dataset(out / "dataset.json")
    assert len(ds) == 30
    pssm_files = list((out / "pssms").glob("*.pssm"))
    assert len(pssm_files) == 30
    manifest = json.loads((out / "manifest.json").read_text())
    assert "config_hash" in manifest
    assert "hostseq" in manifest["versions"]
    assert "timestamp" not in json.dumps(manifest)


def test_prepare_pipeline(tmp_path):
    fasta = tmp_path / "in.fasta"
    fasta.write_text(
        ">a|host=human\nMKTIIALSYIFCLVFA\n"
        ">b|host=chicken\nMKAILVVLLYTFATAN\n"
        ">c|host=human\nMKTIIALSYIFCLVFA\n"  # duplicate of a
    )
    out = tmp_path / "run"
    assert run(["prepare", "--fasta", str(fasta), "--level", "coarse",
                "--out", str(out)]) == 0
    ds = seqio.load_dataset(out / "dataset.json")
    assert len(ds) == 2
    report = json.loads((out / "filter_report.json").read_text())
    assert report["dropped_duplicate"] == 1


def test_prepare_missing_fasta_is_data_error(tmp_path):
    assert run(["prepare", "--fasta", str(tmp_path / "nope.fasta"),
                "--level", "coarse", "--out", str(tmp_path / "o")]) == 2


def test_encode_scheme_er_writes_features(tmp_path):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=10, seed=3)
    assert run(["encode", "--dataset", dataset, "--scheme", "er",
                "--synth-pssms", "--seed", "5", "--out", str(out)]) == 0
    from hostseq.store import read_features_csv
    ids, labels, scheme, matrix = read_features_csv(out / "features.csv")
    assert scheme == "er"
    assert matrix.shape == (10, 910)


def test_encode_er_too_short_exits_2(tmp_path, capsys):
    fasta = tmp_path / "in.fasta"
    fasta.write_text(">a|host=human\nMKTIIALS\n")  # L=8
    prep = tmp_path / "prep"
    assert run(["prepare", "--fasta", str(fasta), "--level", "coarse",
                "--out", str(prep)]) == 0
    code = run(["encode", "--dataset", str(prep / "dataset.json"),
                "--scheme", "er", "--synth-pssms", "--seed", "1",
                "--out", str(tmp_path / "enc")])
    assert code == 2
    err = capsys.readouterr().err
    assert "10" in err  # names the required minimum length


def test_encode_ngrams_writes_tokens_and_vocab(tmp_path):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=12, seed=9)
    assert run(["encode", "--dataset", dataset, "--ngrams", "3",
                "--out", str(out)]) == 0
    assert (out / "tokens.csv").exists()
    vocab_doc = json.loads((out / "vocab.json").read_text())
    assert vocab_doc["n"] == 3
    assert vocab_doc["max_len"] >= 38


def test_encode_requires_exactly_one_mode(tmp_path, capsys):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=8, seed=2)
    assert run(["encode", "--dataset", dataset, "--out", str(out)]) == 1
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--synth-pssms", "--seed", "1", "--ngrams", "3",
                "--out", str(out)]) == 1


def train_flow(tmp_path, model="mlp", extra=()):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=24, seed=4)
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--synth-pssms", "--seed", "6", "--out", str(out)]) == 0
    argv = ["train", "--model", model, "--features",
            str(out / "features.csv"), "--out", str(out), "--seed", "1"]
    argv += list(extra)
    assert run(argv) == 0
    return out


def test_train_evaluate_predict_mlp(tmp_path):
    out = train_flow(tmp_path, "mlp", ("--epochs", "20",
                                       "--learning-rate", "0.01"))
    assert (out / "model.bin").exists()
    assert run(["evaluate", "--model-file", str(out / "model.bin"),
                "--features", str(out / "features.csv"),
                "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["overall"]["mean_score"] <= 1.0
    assert (out / "pr_curves.csv").exists()
    assert run(["predict", "--model-file", str(out / "model.bin"),
                "--features", str(out / "features.csv"),
                "--out", str(out)]) == 0
    lines = (out / "predictions.csv").read_text().strip().splitlines()
    assert lines[0].startswith("id,true,predicted,p_")
    assert len(lines) == 25


def test_train_rf_and_rusboost(tmp_path):
    out = train_flow(tmp_path, "rf", ("--n-estimators", "5",
                                      "--max-depth", "3"))
    assert (out / "model.bin").exists()
    out2 = train_flow(tmp_path / "b", "rusboost",
                      ("--n-estimators", "5", "--base-depth", "2"))
    assert (out2 / "model.bin").exists()


def test_carriage_return_in_ids_and_classes_round_trips(tmp_path):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=24, seed=4)
    with open(dataset) as fh:
        doc = json.load(fh)
    rename = {"class0": "cl\rzero", "class1": "cl,one"}
    doc["class_names"] = [rename[name] for name in doc["class_names"]]
    for i, record in enumerate(doc["records"]):
        record["id"] = f"bad\rid-{i}"
        record["fine"] = rename[record["fine"]]
    with open(dataset, "w") as fh:
        json.dump(doc, fh)
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--synth-pssms", "--seed", "1", "--out", str(out)]) == 0
    assert run(["train", "--model", "rf", "--n-estimators", "3",
                "--features", str(out / "features.csv"), "--out", str(out),
                "--seed", "1"]) == 0
    assert run(["predict", "--model-file", str(out / "model.bin"),
                "--features", str(out / "features.csv"),
                "--out", str(out)]) == 0
    ids, true, _, names, _ = store.read_predictions_csv(
        out / "predictions.csv")
    assert ids == [f"bad\rid-{i}" for i in range(24)]
    assert set(true) == set(names) == {"cl\rzero", "cl,one"}


def test_train_divergence_exit_3(tmp_path, capsys):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=24, seed=4)
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--synth-pssms", "--seed", "6", "--out", str(out)]) == 0
    with np.errstate(all="ignore"):
        code = run(["train", "--model", "mlp", "--features",
                    str(out / "features.csv"), "--out", str(out),
                    "--learning-rate", "1e200",
                    "--epochs", "5", "--seed", "1"])
    assert code == 3
    assert "diverged" in capsys.readouterr().err.lower()


def diverging_nested_cv(tmp_path, grid='{"hidden": [8, 4]}'):
    return ["nested-cv", "--model", "mlp",
            "--learning-rate", "1e200", "--epochs", "5",
            "--grid", grid,
            "--features", str(seeded_features(tmp_path)),
            "--k-outer", "2", "--k-inner", "2", "--seed", "1",
            "--workers", "2", "--out", str(tmp_path / "o")]


def test_nested_cv_divergence_exit_3_names_inner_fold(tmp_path, capsys):
    assert run(diverging_nested_cv(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "training diverged: outer fold 0, grid point 0, inner fold" in err
    assert not (tmp_path / "o" / "metrics.json").exists()


def test_nested_cv_divergence_one_point_grid_names_refit(tmp_path, capsys):
    # one grid point runs no inner fits, so the first fit is a refit
    assert run(diverging_nested_cv(tmp_path, '{"hidden": [8]}')) == 3
    err = capsys.readouterr().err
    assert "training diverged: outer fold 0, refit: " in err
    assert not (tmp_path / "o" / "metrics.json").exists()


def test_divergence_stderr_is_one_message_line(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "hostseq.cli"] + diverging_nested_cv(tmp_path),
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("training diverged: "), \
        proc.stderr


def test_train_missing_features_exit_2(tmp_path):
    assert run(["train", "--model", "mlp", "--seed", "1", "--features",
                str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "o")]) == 2


def test_nested_cv_transformer_tokens(tmp_path):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=24, seed=11)
    grid = json.dumps([{"embed_dim": 8, "num_heads": 1,
                        "learning_rate": 0.01, "epochs": 3}])
    assert run(["encode", "--dataset", dataset, "--ngrams", "3",
                "--out", str(out)]) == 0
    assert run(["nested-cv", "--tokens", str(out / "tokens.csv"),
                "--vocab", str(out / "vocab.json"),
                "--model", "transformer", "--grid", grid,
                "--k-outer", "2", "--k-inner", "2", "--seed", "2",
                "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["k_outer"] == 2
    assert len(metrics["outer"]) == 2
    assert (out / "cv_plan.json").exists()
    assert (out / "pr_curves.csv").exists()


def test_nested_cv_rerun_byte_identical(tmp_path):
    grid = json.dumps({"n_estimators": [3], "max_depth": [2, 3]})

    def one_run(out):
        dataset = synth_corpus(out, records=30, seed=13)
        assert run(["encode", "--dataset", dataset, "--scheme", "gdpc",
                    "--synth-pssms", "--seed", "3", "--out", str(out)]) == 0
        assert run(["nested-cv", "--model", "rf", "--grid", grid,
                    "--features", str(out / "features.csv"),
                    "--k-outer", "3", "--k-inner", "2", "--seed", "5",
                    "--out", str(out)]) == 0
        return (out / "metrics.json").read_bytes()

    assert one_run(tmp_path / "a") == one_run(tmp_path / "b")


def test_nested_cv_grid_from_file(tmp_path):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=20, seed=17)
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--synth-pssms", "--seed", "3", "--out", str(out)]) == 0
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"n_estimators": [2], "max_depth": [2]}))
    assert run(["nested-cv", "--model", "rf", "--grid", str(grid_path),
                "--features", str(out / "features.csv"),
                "--k-outer", "2", "--k-inner", "2", "--seed", "1",
                "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["outer"][0]["chosen_params"] == {"n_estimators": 2,
                                                    "max_depth": 2}


# A one-point grid of quick fits per --model kind, for tests of how
# nested-cv runs its fits rather than of what they learn.
_QUICK_GRIDS = {
    "rf": {"n_estimators": 2, "max_depth": 2},
    "rusboost": {"n_estimators": 2, "max_depth": 2},
    "mlp": {"hidden": 4, "epochs": 1},
    "cnn": {"embed_dim": 4, "filters": 4, "kernel_size": 3, "epochs": 1},
    "transformer": {"embed_dim": 4, "num_heads": 1, "epochs": 1},
}


def quick_nested_cv(tmp_path, model, workers):
    """nested-cv argv of model's quick grid on input of the kind it reads,
    2x2 folds."""
    if estimators.KINDS[model].input == "tokens":
        out = tmp_path / "enc"
        dataset = synth_corpus(out, records=24, seed=11)
        assert run(["encode", "--dataset", dataset, "--ngrams", "3",
                    "--out", str(out)]) == 0
        inputs = ["--tokens", str(out / "tokens.csv"),
                  "--vocab", str(out / "vocab.json")]
    else:
        inputs = ["--features", str(seeded_features(tmp_path))]
    return ["nested-cv", "--model", model, *inputs,
            "--grid", json.dumps(_QUICK_GRIDS[model]),
            "--k-outer", "2", "--k-inner", "2", "--seed", "1",
            "--workers", str(workers), "--out", str(tmp_path / "o")]


def spy_workers(monkeypatch):
    """The workers nested-cv hands evaluation.nested_cv, one per call;
    the fits themselves run on one thread."""
    seen = []
    real = evaluation.nested_cv

    def spy(*args, workers, **kwargs):
        seen.append(workers)
        return real(*args, workers=1, **kwargs)

    monkeypatch.setattr(evaluation, "nested_cv", spy)
    return seen


def test_workers_capped_at_usable_cores(tmp_path, monkeypatch, capsys):
    # a kind that threads its fits, so the cap is what limits them
    seen = spy_workers(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run(quick_nested_cv(tmp_path, "transformer", 8)) == 0
    assert seen == [1]
    assert capsys.readouterr().out.rstrip().endswith(
        "fits ran on 1 worker thread")


@pytest.mark.parametrize("model, threads", [
    ("rf", 1), ("rusboost", 1), ("mlp", 1), ("cnn", 2), ("transformer", 2)])
def test_nested_cv_threads_only_kinds_that_gain(tmp_path, monkeypatch,
                                                capsys, model, threads):
    seen = spy_workers(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert run(quick_nested_cv(tmp_path, model, 2)) == 0
    assert seen == [threads]
    plural = "s" if threads > 1 else ""
    assert capsys.readouterr().out.rstrip().endswith(
        f"fits ran on {threads} worker thread{plural}")


@pytest.mark.parametrize("heads", [1, [1, 2]])
def test_token_net_bytes_do_not_depend_on_workers(tmp_path, monkeypatch,
                                                  capsys, heads):
    # the token nets are the kinds that fit on more than one thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    argv = quick_nested_cv(tmp_path, "transformer", 1)
    argv[argv.index("--grid") + 1] = json.dumps(
        {"embed_dim": 4, "num_heads": heads, "epochs": 1})
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        argv[argv.index("--workers") + 1] = str(workers)
        argv[argv.index("--out") + 1] = str(out)
        assert run(argv) == 0
        closing = capsys.readouterr().out
        assert ("no inner search (one grid point)" in closing) == \
            (heads == 1)
        assert closing.rstrip().endswith(
            f"fits ran on {workers} worker thread{'s' * (workers > 1)}")
        outputs.append([(out / name).read_bytes()
                        for name in ("metrics.json", "pr_curves.csv")])
    assert outputs[0] == outputs[1]


def test_config_file_with_flag_override(tmp_path):
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "records": 10, "classes": 2, "seed": 3,
        "min-len": 40, "max-len": 50, "out": str(out),
    }))
    assert run(["synth", "--config", str(config), "--records", "14"]) == 0
    ds = seqio.load_dataset(out / "dataset.json")
    assert len(ds) == 14  # flag wins over config value


def predictions_fixture(tmp_path):
    out = train_flow(tmp_path, "rf", ("--n-estimators", "4",
                                      "--max-depth", "3"))
    assert run(["predict", "--model-file", str(out / "model.bin"),
                "--features", str(out / "features.csv"),
                "--out", str(out)]) == 0
    return out


def test_pr_curves_csv_quotes_class_names(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.random((20, 4))
    labels = ["a,b" if x > 0.5 else "c" for x in X[:, 0]]
    features = tmp_path / "features.csv"
    store.write_features_csv(features, [f"r{i}" for i in range(20)], labels,
                             "eg", X)
    out = tmp_path / "o"
    assert run(["train", "--model", "rf", "--features", str(features),
                "--seed", "1", "--n-estimators", "3", "--out", str(out)]) == 0
    assert run(["evaluate", "--model-file", str(out / "model.bin"),
                "--features", str(features), "--out", str(out)]) == 0
    with open(out / "pr_curves.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["class", "recall", "precision"]
    assert all(len(row) == 3 for row in rows)
    assert {row[0] for row in rows[1:]} == {"a,b", "c"}


def test_report_single_predictions(tmp_path):
    out = predictions_fixture(tmp_path)
    rep = tmp_path / "rep"
    assert run(["report", "--predictions", str(out / "predictions.csv"),
                "--out", str(rep)]) == 0
    assert (rep / "metrics.json").exists()
    csv_lines = (rep / "metrics.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "scope,class,metric,value"
    assert (rep / "pr_curves.csv").exists()


def test_report_disagreement(tmp_path):
    out = predictions_fixture(tmp_path)
    second = out / "second.csv"
    second.write_text((out / "predictions.csv").read_text())
    rep = tmp_path / "rep"
    assert run(["report", "--predictions", str(out / "predictions.csv"),
                str(second), "--out", str(rep)]) == 0
    doc = json.loads((rep / "disagreement.json").read_text())
    assert doc["model_names"] == ["predictions.csv", "second.csv"]
    assert doc["mixed"] == []  # identical files never disagree


def test_report_disagreement_same_basename(tmp_path):
    # prediction artifacts share one fixed name across run directories
    out = predictions_fixture(tmp_path)
    lines = (out / "predictions.csv").read_text().splitlines()
    class_names = [h[2:] for h in lines[0].split(",")[3:]]
    fields = lines[1].split(",")
    fields[2] = next(c for c in class_names if c != fields[2])
    other = tmp_path / "runb"
    other.mkdir()
    (other / "predictions.csv").write_text(
        "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    rep = tmp_path / "rep"
    assert run(["report", "--predictions", str(out / "predictions.csv"),
                str(other / "predictions.csv"), "--out", str(rep)]) == 0
    doc = json.loads((rep / "disagreement.json").read_text())
    assert len(doc["model_names"]) == 2
    assert doc["model_names"][0] != doc["model_names"][1]
    assert all(n.endswith("predictions.csv") for n in doc["model_names"])
    assert 0 not in doc["all_correct"]


def test_report_duplicate_prediction_path_exit_1(tmp_path, capsys):
    out = predictions_fixture(tmp_path)
    path = str(out / "predictions.csv")
    assert run(["report", "--predictions", path, path,
                "--out", str(tmp_path / "rep")]) == 1
    assert "duplicate" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("top", ["0", "-1"])
def test_report_top_tokens_below_one_exit_1(tmp_path, capsys, top):
    dataset = synth_corpus(tmp_path / "run", records=12, seed=23)
    assert run(["report", "--dataset", dataset, "--ngrams", "2",
                "--top-tokens", top, "--out", str(tmp_path / "rep")]) == 1
    assert "--top-tokens" in capsys.readouterr().err


def test_prediction_names_grow_until_distinct():
    names = cli._prediction_names(
        ["a/b/predictions.csv", "x/b/predictions.csv", "lone.csv"])
    assert names == ["a/b/predictions.csv", "x/b/predictions.csv",
                     "lone.csv"]


def test_report_token_frequencies(tmp_path):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=12, seed=23)
    rep = tmp_path / "rep"
    assert run(["report", "--dataset", dataset, "--ngrams", "3",
                "--top-tokens", "5", "--out", str(rep)]) == 0
    lines = (rep / "token_frequencies.csv").read_text().strip().splitlines()
    assert lines[0] == "class,token,count"
    assert len(lines) <= 1 + 2 * 5


@pytest.mark.parametrize("model,extra", [
    ("mlp", ("--epochs", "2")),
    ("rf", ("--n-estimators", "3", "--max-depth", "3")),
    ("rusboost", ("--n-estimators", "3", "--base-depth", "2")),
], ids=["mlp", "rf", "rusboost"])
def test_evaluate_wrong_width_features_exit_2(tmp_path, capsys, model, extra):
    out = train_flow(tmp_path, model, extra)
    ids, labels, _, _ = store.read_features_csv(out / "features.csv")
    narrow = tmp_path / "narrow.csv"
    store.write_features_csv(narrow, ids, labels, "eg",
                             np.random.default_rng(3).random((len(ids), 2)))
    capsys.readouterr()
    code = run(["evaluate", "--model-file", str(out / "model.bin"),
                "--features", str(narrow), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("model,extra", [
    ("rf", ("--n-estimators", "3", "--max-depth", "3")),
    ("rusboost", ("--n-estimators", "3", "--base-depth", "2")),
], ids=["rf", "rusboost"])
def test_tree_model_on_a_wider_features_file_exit_2(tmp_path, capsys, model,
                                                     extra, command):
    # the checkpoint records its feature width; a wider file was once
    # scored on its first columns
    out = train_flow(tmp_path, model, extra)
    ids, labels, _, matrix = store.read_features_csv(out / "features.csv")
    wide = tmp_path / "wide.csv"
    store.write_features_csv(wide, ids, labels, "eg",
                             np.column_stack([matrix, matrix[:, :1]]))
    capsys.readouterr()
    code = run([command, "--model-file", str(out / "model.bin"),
                "--features", str(wide), "--out", str(tmp_path / "e")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: {wide}: feature input must be (n, {matrix.shape[1]}), "
        f"not {(len(ids), matrix.shape[1] + 1)}\n")


def test_version_1_checkpoint_exit_2(tmp_path, capsys):
    out = train_flow(tmp_path, "rf", ("--n-estimators", "2"))
    model = out / "model.bin"
    blob = bytearray(model.read_bytes())
    assert blob[8:12] == (2).to_bytes(4, "little")
    blob[8:12] = (1).to_bytes(4, "little")
    model.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run(["predict", "--model-file", str(model), "--features",
                str(out / "features.csv"), "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {model}: unsupported version 1")


def set_array_shapes(path, shapes):
    """Rewrites the checkpoint at path with its first array entries'
    shapes set to shapes, in order, and its payload as it was."""
    blob = path.read_bytes()
    start = len(store.MAGIC) + 12
    end = start + int.from_bytes(blob[start - 8:start], "little")
    header = json.loads(blob[start:end])
    for entry, shape in zip(header["arrays"], shapes):
        entry["shape"] = shape
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:start - 8] + len(text).to_bytes(8, "little")
                     + text + blob[end:])


@pytest.mark.parametrize("shapes", [[[-1], [3]], [[2 ** 62, 4]], [[-2, -1]],
                                    [[2], [0, 2 ** 70]]],
                         ids=["minus-one-then-three", "oversized",
                              "two-unknown", "empty-past-the-file"])
def test_checkpoint_negative_or_oversized_shape_exit_2(tmp_path, capsys,
                                                       shapes):
    # the element count was once an int64 product: over 16 payload bytes,
    # a [-1] entry took the rest of the file and stepped the next one back
    # into the header; an overflowing product, two -1s or an empty shape
    # past numpy's largest dimension failed in reshape, exit 1
    unit = tmp_path / "unit.bin"
    store.save_checkpoint(unit, "unit", {}, {"a": np.ones(2),
                                             "b": np.ones(0)})
    set_array_shapes(unit, shapes)
    with pytest.raises(store.DataError, match="malformed array entry"
                                              "|truncated array block"):
        store.load_checkpoint(unit)
    out = train_flow(tmp_path, "rf", ("--n-estimators", "2"))
    set_array_shapes(out / "model.bin", shapes)
    capsys.readouterr()
    assert run(["predict", "--model-file", str(out / "model.bin"),
                "--features", str(out / "features.csv"),
                "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: {out / 'model.bin'}: ")


@pytest.mark.parametrize("command,table,flag", [
    ("evaluate", "features.csv", "--features"),
    ("evaluate", "tokens.csv", "--tokens"),
    ("report", "predictions.csv", "--predictions"),
])
def test_unknown_label_exit_2(tmp_path, capsys, command, table, flag):
    # the error once named no file
    if flag == "--tokens":
        model, tokens = transformer_checkpoint(tmp_path, lambda config: None)
        source, extra = tokens[1], tokens[2:]
    else:
        out = predictions_fixture(tmp_path)
        model, source, extra = out / "model.bin", out / table, []
    lines = seqio.read_text(source).splitlines()
    fields = lines[1].split(",")
    fields[1] = "martian"
    bad = tmp_path / table
    bad.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    argv = [command, flag, str(bad), *extra, "--out", str(tmp_path / "o")]
    if command == "evaluate":
        argv += ["--model-file", str(model)]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"data error: {bad}: unknown label 'martian'\n")


@pytest.mark.parametrize("model,extra,dropped", [
    ("mlp", ("--epochs", "2"), "out.w"),
    ("rf", ("--n-estimators", "3", "--max-depth", "2"), "t1.feature"),
])
def test_inconsistent_checkpoint_exit_2(tmp_path, capsys, model, extra,
                                        dropped):
    out = train_flow(tmp_path, model, extra)
    path = out / "model.bin"
    kind, meta, arrays = store.load_checkpoint(path)
    del arrays[dropped]
    store.save_checkpoint(path, kind, meta, arrays)
    assert run(["predict", "--model-file", str(path),
                "--features", str(out / "features.csv"),
                "--out", str(tmp_path / "p")]) == 2
    assert "do not match" in capsys.readouterr().err


def corrupt_tree_checkpoint(arrays, case):
    """Edits the first tree (t0) or the alphas of a checkpoint's arrays."""
    feature, left, right = (arrays[f"t0.{k}"] for k in
                            ("feature", "left", "right"))
    if case == "child-out-of-range":
        left[0] = feature.size
    elif case == "child-back-to-ancestor":
        # the second internal node, which fit rows reach, points to root
        node = np.flatnonzero(feature >= 0)[1]
        left[node] = right[node] = 0
    elif case == "feature-below-minus-one":
        feature[0] = -2  # the root reads as a leaf with zero counts
    elif case == "leaf-counts-zero":
        arrays["t0.counts"][:] = 0.0
    elif case == "alpha-zero":
        arrays["alphas"][:] = 0.0
    elif case == "counts-wider":
        # one class column more than the model has, outvoting the others
        counts = arrays["t0.counts"]
        arrays["t0.counts"] = np.hstack(
            [counts, counts.sum(axis=1, keepdims=True) + 1.0])


@pytest.mark.parametrize("model,case", [
    ("rf", "child-out-of-range"),
    ("rf", "child-back-to-ancestor"),
    ("rf", "feature-below-minus-one"),
    ("rf", "leaf-counts-zero"),
    ("rusboost", "alpha-zero"),
    ("rf", "counts-wider"),
    ("rusboost", "counts-wider"),
])
def test_corrupt_tree_checkpoint_exit_2(tmp_path, capsys, deadline, model,
                                        case):
    # each edit must fail the load: left to predict, they raise an
    # IndexError, loop forever, give nan rows with exit 0 or exit 1
    extra = {"rf": ("--n-estimators", "3", "--max-depth", "3"),
             "rusboost": ("--n-estimators", "3", "--base-depth", "2")}[model]
    out = train_flow(tmp_path, model, extra)
    path = out / "model.bin"
    kind, meta, arrays = store.load_checkpoint(path)
    corrupt_tree_checkpoint(arrays, case)
    store.save_checkpoint(path, kind, meta, arrays)
    capsys.readouterr()
    deadline(10)
    code = run(["predict", "--model-file", str(path),
                "--features", str(out / "features.csv"),
                "--out", str(tmp_path / "p")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("case", ["weights-overflow", "bytes-inserted"])
def test_corrupt_neural_checkpoint_exit_2(tmp_path, capsys, case):
    # found by tests/test_fuzz.py: left to predict, either edit printed
    # numpy warnings or wrote wrong or non-finite probabilities, exit 0
    out = train_flow(tmp_path, "mlp", ("--epochs", "2"))
    path = out / "model.bin"
    if case == "weights-overflow":
        kind, meta, arrays = store.load_checkpoint(path)
        for name in arrays:
            if name.endswith(".w"):
                arrays[name][:] = 1e300
        store.save_checkpoint(path, kind, meta, arrays)
    else:
        blob = path.read_bytes()
        path.write_bytes(blob[:-64] + bytes(8) + blob[-64:])
    capsys.readouterr()
    code = run(["predict", "--model-file", str(path),
                "--features", str(out / "features.csv"),
                "--out", str(tmp_path / "p")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    assert "not finite" in err if case == "weights-overflow" else \
        err.startswith(f"data error: {path}: 8 bytes more than"), err


def test_failed_command_removes_out_it_created(tmp_path):
    out = tmp_path / "new" / "f4"
    assert run(["nested-cv", "--features", str(seeded_features(tmp_path)),
                "--out", str(out)]) == 1
    assert not (tmp_path / "new").exists()


def test_failed_command_keeps_out_that_existed(tmp_path):
    out = tmp_path / "kept"
    out.mkdir()
    (out / "note.txt").write_text("mine")
    assert run(["nested-cv", "--features", str(seeded_features(tmp_path)),
                "--out", str(out)]) == 1
    assert os.listdir(out) == ["note.txt"]


def test_nested_cv_unknown_grid_key_exit_1_before_fitting(tmp_path, capsys,
                                                         monkeypatch):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=20, seed=17)
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--synth-pssms", "--seed", "3", "--out", str(out)]) == 0
    fits = []
    monkeypatch.setattr(ensemble, "fit_forest",
                        lambda *a, **k: fits.append(1))
    grid = json.dumps([{"n_estimators": 2},
                       {"n_estimator": 50, "max_dept": 9}])
    assert run(["nested-cv", "--model", "rf", "--grid", grid,
                "--features", str(out / "features.csv"),
                "--k-outer", "2", "--k-inner", "2", "--seed", "1",
                "--out", str(out)]) == 1
    assert "'max_dept'" in capsys.readouterr().err
    assert fits == []
    assert not (out / "metrics.json").exists()


def test_nested_cv_scalar_hidden_is_one_layer(tmp_path):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=20, seed=17)
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--synth-pssms", "--seed", "3", "--out", str(out)]) == 0
    assert run(["nested-cv", "--model", "mlp", "--grid", '{"hidden": [8]}',
                "--epochs", "2", "--features", str(out / "features.csv"),
                "--k-outer", "2", "--k-inner", "2", "--seed", "1",
                "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert '"hidden": 8' in json.dumps(metrics)


_UNCOERCIBLE = [
    ("mlp", '{"hidden": [[8, "wide"]]}', "'hidden'"),
    ("mlp", '{"max_iter": ["many"]}', "'max_iter'"),
    ("mlp", '{"learning_rate_init": [[0.1]]}', "'learning_rate_init'"),
    # found by tests/test_fuzz.py: an OverflowError traceback
    ("mlp", '{"max_iter": [1e999]}', "'max_iter'"),
    # each once fitted a truncated value while metrics.json recorded the
    # grid point as given: width 8, 2 epochs, 1 tree of depth 2, rate 1.0
    ("mlp", '{"hidden": [8.7]}', "'hidden'"),
    ("mlp", '{"max_iter": [2.9]}', "'max_iter'"),
    ("rf", '{"n_estimators": [true]}', "'n_estimators'"),
    ("rf", '{"max_depth": [2.5]}', "'max_depth'"),
    ("rusboost", '{"learning_rate": [true]}', "'learning_rate'"),
    ("mlp", '{"alpha": [false]}', "'alpha'"),
    # each once fitted the number while metrics.json recorded the string
    ("mlp", '{"hidden": ["8"]}', "'hidden'"),
    ("rf", '{"max_depth": ["5"]}', "'max_depth'"),
    ("rusboost", '{"learning_rate": ["0.1"]}', "'learning_rate'"),
]


@pytest.mark.parametrize("model, grid, key", _UNCOERCIBLE, ids=[
    f"{grid}-{key}" for _, grid, key in _UNCOERCIBLE])
def test_nested_cv_uncoercible_grid_value_exit_1(tmp_path, capsys, model,
                                                 grid, key):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=20, seed=17)
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--synth-pssms", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["nested-cv", "--model", model, "--grid", grid,
                "--features", str(out / "features.csv"),
                "--k-outer", "2", "--k-inner", "2", "--seed", "1",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1, err
    assert not (out / "metrics.json").exists()


def test_config_unknown_model_exit_1(tmp_path, capsys):
    features = seeded_features(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "svm"}))
    assert run(["train", "--config", str(config), "--seed", "1", "--features",
                str(features), "--out", str(tmp_path / "o")]) == 1
    assert "unknown --model 'svm'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, flag_text", [
    ("scheme", "xyz", None),
    ("ngrams", "3", "3"),
    ("records", "12", "12"),
    ("seed", "1", "1"),
    ("drop-incomplete", "false", None),
    ("grid", {"n_estimators": [3]}, None),
    ("seed", "abc", None),
])
def test_config_value_read_like_its_flag(tmp_path, capsys, key, value,
                                         flag_text):
    # A config value goes through its flag's type and choices: one that
    # converts writes the bytes the flag writes, one that does not exits
    # 1 naming the flag, also when the flag is given.
    dataset = synth_corpus(tmp_path / "syn", records=12, classes=3, seed=9)
    fasta = tmp_path / "in.fasta"
    fasta.write_text(INGEST_FASTA)
    argv = {
        "scheme": ["encode", "--dataset", dataset, "--synth-pssms",
                   "--seed", "1"],
        "ngrams": ["encode", "--dataset", dataset],
        "records": ["synth", "--classes", "3", "--seed", "9",
                    "--min-len", "20", "--max-len", "30"],
        "seed": ["encode", "--dataset", dataset, "--scheme", "eg",
                 "--synth-pssms"],
        "drop-incomplete": ["prepare", "--fasta", str(fasta),
                            "--level", "coarse"],
        "grid": ["nested-cv", "--model", "rf", "--features",
                 str(seeded_features(tmp_path)), "--seed", "1",
                 "--k-outer", "2", "--k-inner", "2"],
    }[key]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    code = run(argv + ["--config", str(config),
                       "--out", str(tmp_path / "cfg")])
    if flag_text is None:
        given = {"scheme": ["--scheme", "eg"], "seed": ["--seed", "1"],
                 "drop-incomplete": ["--drop-incomplete"],
                 "grid": ["--grid", '{"n_estimators": [3]}']}[key]
        assert code == 1
        assert run(argv + given + ["--config", str(config),
                                   "--out", str(tmp_path / "cfg")]) == 1
        err = capsys.readouterr().err
        assert err.count(f"--{key}") == 2
        assert "Traceback" not in err
        return
    assert code == 0
    assert run(argv + [f"--{key}", flag_text,
                       "--out", str(tmp_path / "flag")]) == 0
    names = sorted(set(os.listdir(tmp_path / "flag")) - {"run.log"})
    for name in names:
        assert (tmp_path / "cfg" / name).read_bytes() == \
            (tmp_path / "flag" / name).read_bytes(), name


def test_config_key_of_no_subcommand_exit_1(tmp_path, capsys):
    # A key of another subcommand's flag is ignored, so one config can
    # drive a pipeline; a key that is no flag at all is named.
    config = tmp_path / "config.json"
    doc = {"records": 12, "seed": 1, "model": "rf", "k-outer": 2,
           "out": str(tmp_path / "a")}
    config.write_text(json.dumps(doc))
    assert run(["synth", "--config", str(config)]) == 0
    config.write_text(json.dumps({**doc, "n_estimators": 5}))
    assert run(["synth", "--config", str(config),
                "--out", str(tmp_path / "b")]) == 1
    assert "unknown config key 'n_estimators'" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_manifest_config_replays(tmp_path, command):
    # A manifest's config fed back as --config, with only a new --out,
    # writes the same artifacts and manifest byte for byte.
    fasta = tmp_path / "in.fasta"
    fasta.write_text(INGEST_FASTA)
    features = str(seeded_features(tmp_path))
    syn = tmp_path / "syn"
    dataset = str(syn / "dataset.json")
    model = str(tmp_path / "rf" / "model.bin")
    argv = {
        "synth": ["synth", "--records", "18", "--classes", "3", "--seed", "9",
                  "--min-len", "20", "--max-len", "30", "--with-pssms"],
        "train": ["train", "--model", "rf", "--n-estimators", "7",
                  "--max-depth", "3", "--features", features, "--seed", "1"],
        "predict": ["predict", "--model-file", model, "--features", features],
        "prepare": ["prepare", "--fasta", str(fasta), "--level", "fine"],
        "encode": ["encode", "--dataset", dataset, "--scheme", "eg",
                   "--pssm-dir", str(syn / "pssms")],
        "evaluate": ["evaluate", "--model-file", model, "--features",
                     features],
        "nested-cv": ["nested-cv", "--model", "rf", "--features",
                      str(tmp_path / "enc" / "features.csv"), "--grid",
                      '{"n_estimators": [3], "max_depth": [2]}',
                      "--k-outer", "2", "--k-inner", "2", "--seed", "3"],
        "report": ["report", "--predictions",
                   str(tmp_path / "p" / "predictions.csv"), "--dataset",
                   dataset, "--ngrams", "2", "--top-tokens", "5"],
    }
    for name, out in (("synth", syn), ("encode", tmp_path / "enc"),
                      ("train", tmp_path / "rf"), ("predict", tmp_path / "p")):
        assert run(argv[name] + ["--out", str(out)]) == 0
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(argv[command] + ["--out", str(first)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        json.loads((first / "manifest.json").read_text())["config"]))
    assert run([command, "--config", str(config),
                "--out", str(second)]) == 0

    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names} - {"run.log"}

    assert files(first) == files(second)
    for name in files(first):
        assert (first / name).read_bytes() == (second / name).read_bytes(), \
            name


def test_train_tree_checkpoints_match_golden_bytes(tmp_path):
    # Pins model.bin for fixed-seed forest and RUSBoost fits; tree fits
    # use no BLAS, so the bytes depend only on the code.
    features = seeded_features(tmp_path)
    golden = {
        "rf": ("f0cabd9581735b357f8439436ea676c82d05b8e61e9deb129bf512ef2b132919",
               ("--n-estimators", "5", "--max-depth", "3")),
        "rusboost": ("173851fb7e3645ce35e69a0f48e1939b265e8ca8e45ed03dad8a70b50d5565b2",
                     ("--n-estimators", "5", "--base-depth", "2")),
    }
    for model, (digest, extra) in golden.items():
        out = tmp_path / model
        assert run(["train", "--model", model, "--features", str(features),
                    "--seed", "1", "--out", str(out), *extra]) == 0
        blob = (out / "model.bin").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, model


def test_cli_artifacts_match_golden_bytes(tmp_path):
    # Pins the result artifacts of nested-cv, predict, evaluate, report
    # and n-gram encode on fixed seeds; none of these runs BLAS, so the
    # bytes depend only on the code.
    features = str(seeded_features(tmp_path))
    out = {name: str(tmp_path / name)
           for name in ("cv", "rf", "rb", "p_rf", "p_rb", "ev", "rep",
                        "syn", "tok")}
    commands = [
        ["nested-cv", "--model", "rf", "--features", features, "--grid",
         '{"n_estimators": [3], "max_depth": [2, 3]}', "--k-outer", "3",
         "--k-inner", "2", "--seed", "1", "--out", out["cv"]],
        ["train", "--model", "rf", "--features", features, "--seed", "1",
         "--n-estimators", "5", "--max-depth", "3", "--out", out["rf"]],
        ["train", "--model", "rusboost", "--features", features,
         "--seed", "1", "--n-estimators", "5", "--base-depth", "2",
         "--out", out["rb"]],
        ["predict", "--model-file", os.path.join(out["rf"], "model.bin"),
         "--features", features, "--out", out["p_rf"]],
        ["predict", "--model-file", os.path.join(out["rb"], "model.bin"),
         "--features", features, "--out", out["p_rb"]],
        ["evaluate", "--model-file", os.path.join(out["rf"], "model.bin"),
         "--features", features, "--out", out["ev"]],
        ["report", "--predictions",
         os.path.join(out["p_rf"], "predictions.csv"),
         os.path.join(out["p_rb"], "predictions.csv"), "--out", out["rep"]],
        ["synth", "--records", "12", "--classes", "3", "--seed", "9",
         "--min-len", "20", "--max-len", "30", "--out", out["syn"]],
        ["encode", "--dataset", os.path.join(out["syn"], "dataset.json"),
         "--ngrams", "3", "--out", out["tok"]],
    ]
    for argv in commands:
        assert run(argv) == 0, argv
    golden = {
        "cv/cv_plan.json":
            "788c8e8efa1a9285393f71b552b95270b9e7db98a6b0ab737c54d775fe37549d",
        "cv/metrics.json":
            "13aea3e4e8b3798ddad328b0d113579b88d23fd7f1007d188bb852e0099c2768",
        "cv/pr_curves.csv":
            "a9cbeb53384b52e7c1df893b012d8c2e6f2a58bd691402b3e506d719b4e1979d",
        "p_rf/predictions.csv":
            "3c138f06ffef4fb7da8fda1c714edeaf02cb99995da7b6100f57f98021d52f1f",
        "p_rb/predictions.csv":
            "a2077c832a191db93e9f4cbc138a26c885c4125f850923a5e290b0cca020f271",
        "ev/metrics.json":
            "ee6d583e2e5d386b51b86e060e1ee3f525cad22e105eabd71dd6a07a378f9cb3",
        "ev/pr_curves.csv":
            "34a360e1a7a9d3ae6f94ac1ccaec87fa1b0d2ca19b87bb7a31999816c1a60ae4",
        "rep/metrics.csv":
            "fee39d85fa3200dfc67063351b9231ecffc5daa179389b3f6e3cc554d541104c",
        "rep/metrics.json":
            "ee6d583e2e5d386b51b86e060e1ee3f525cad22e105eabd71dd6a07a378f9cb3",
        "rep/disagreement.json":
            "0025184d20d50d666198dd762f1719405c004d7975a5b7caae395f18d50312f1",
        "tok/tokens.csv":
            "594018e81cfeb4593852f20e9ebb8d34c6b194ccab5a52b9c5231072a2af5557",
        "tok/vocab.json":
            "dc122bd85a9b5566befc06ea22e5eeaa58a92180bbc8b7a41e43584098888b72",
    }
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in golden}
    assert got == golden


INGEST_FASTA = (
    ">a|host=Human\nMKTIIALSYIFCLVFA\n"
    ">b|host=human\nMKTIIALSYIFCLVFA\n"                  # duplicate of a
    ">c|host=chicken\nMKAILVVLLYTFATAN\n"
    ">d|host=pig\nMKAILVVLLYTFATAN\n"                    # conflicts with c
    ">e|host=duck\nMKXILVVLLYTFATAN\n"                   # non-canonical X
    ">f|host=pig|incomplete=true\nMKTIIALSYIWCLV\n"
    ">g|host=swine\nMEKIVLLLAIVSLVKS\n"
    ">h|host=mallard\nMNTQILVFALIAIIPT\n"
    ">i|host=human\nMKAIIVLLMVVTSNA\n"
)


def test_ingest_artifacts_match_golden_bytes(tmp_path):
    # Pins what prepare, synth --with-pssms and the eg and er encoders
    # write on fixed inputs. GDPC is left out: its product runs through
    # BLAS, whose last bits depend on the machine.
    fasta = tmp_path / "in.fasta"
    fasta.write_text(INGEST_FASTA)
    syn = tmp_path / "syn"
    dataset = str(syn / "dataset.json")
    commands = {
        "coarse": ["prepare", "--fasta", str(fasta), "--level", "coarse",
                   "--drop-incomplete"],
        "fine": ["prepare", "--fasta", str(fasta), "--level", "fine"],
        "syn": ["synth", "--records", "12", "--classes", "3", "--seed", "9",
                "--min-len", "20", "--max-len", "30", "--with-pssms"],
    }
    for scheme in ("eg", "er"):
        commands[f"{scheme}_dir"] = ["encode", "--dataset", dataset,
                                     "--scheme", scheme, "--pssm-dir",
                                     str(syn / "pssms")]
        commands[f"{scheme}_synth"] = ["encode", "--dataset", dataset,
                                       "--scheme", scheme, "--synth-pssms",
                                       "--seed", "4"]
    for name, argv in commands.items():
        assert run(argv + ["--out", str(tmp_path / name)]) == 0, argv
    golden = {
        "coarse/dataset.json":
            "16b296e604a3841c7c4f606c9205b23702e18b8547aa171ad560a3337a6f02e3",
        "coarse/filter_report.json":
            "2fd32fe470bce24f44f1806c98dc6e5abb855ece258e51d210fa6affdd6d5f1a",
        "fine/dataset.json":
            "febb7b24c7175e6238ac8e080ea3df573c8d3f390a1d316fab52f70a06610860",
        "fine/filter_report.json":
            "d7c949dc3d8f7cfee982ecfbaa5562ca6219b11f9889ecba9aac8265e669071c",
        "syn/dataset.json":
            "9781340e0a54273456261cbe9f026b5ee7cfba826e4e512f1548fc83d2454f72",
        "syn/corpus.fasta":
            "64cb32d2bfe3358f2a8797cb4a07a1900598366e4fe7b4a6b54c35f51ef5eb9f",
        "syn/pssms/synth-03.pssm":
            "9f631d10ad0f7a609a998c3c02ef5328d916d4c66f38608f425629823a1a49ad",
        "eg_dir/features.csv":
            "ed7ca341ba4ed976dfda618c0488d721754a8beb905b411cd76b9db4e68e506f",
        "eg_synth/features.csv":
            "6b2011301c11e54828090d3640c56bae21280a8e48b390ca5f9abad2a9cd3c12",
        "er_dir/features.csv":
            "708f63c1a020bbb1680fc5cf97fbfcade40fd216aa044d7cfbdce99253dc7b1b",
        "er_synth/features.csv":
            "0657d12a9e0a65e638cd79b0e53e9c234c63f87f1d6903bbb1676f9ceba275f2",
    }
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in golden}
    assert got == golden


def malformed_input(tmp_path, case):
    """argv of a command that reads one malformed input file."""
    features = tmp_path / "features.csv"
    features.write_text("id,label,scheme,v0,v1\nr0,a,eg,0.5,0.1\n"
                        "r1,b,eg,0.25,high\n")
    predictions = tmp_path / "predictions.csv"
    predictions.write_text("id,true,predicted,p_a,p_b\nr0,a,a,0.9,0.1\n"
                           "r1,b,b,0.2,most\n")
    row_sum = tmp_path / "row_sum.csv"
    row_sum.write_text("id,true,predicted,p_a,p_b\nr0,a,a,0.9,0.1\n"
                       "r1,b,b,0.2,0.7\n")
    vocab = tmp_path / "vocab.json"
    store.save_vocab(ngram.build_vocab([["AA", "AB"]], 2), 2, vocab)
    tokens = tmp_path / "tokens.csv"
    store.write_tokens_csv(tokens, ["r0", "r1"], ["a", "b"],
                           np.array([[0, 2], [3, 9]]))
    miscounted = tmp_path / "miscounted.csv"
    miscounted.write_text("id,label,true_len,t0,t1\nr0,a,2,0,2\n"
                          "r1,b,2,3,3\n")
    no_tokens = tmp_path / "no_tokens.json"
    no_tokens.write_text('{"n": 2, "max_len": 2}')
    in_range = tmp_path / "in_range.csv"
    store.write_tokens_csv(in_range, ["r0", "r1"], ["a", "b"],
                           np.array([[0, 2], [3, 2]]))
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"n": 2, "max_len": 2, "tokens": ["AA", "AA"]}')
    wrong_length = tmp_path / "wrong_length.json"
    wrong_length.write_text('{"n": 2, "max_len": 2, "tokens": ["AA", "ABC"]}')
    unknown_coarse = tmp_path / "unknown_coarse.json"
    unknown_coarse.write_text(json.dumps({
        "level": "coarse", "class_names": ["ferret"],
        "records": [{"id": "a", "residues": "MKTI", "coarse": "ferret"}]}))
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{records: [")
    no_records = tmp_path / "no_records.json"
    no_records.write_text('{"level": "coarse", "class_names": []}')
    latin1 = tmp_path / "latin1.fasta"
    latin1.write_bytes(b">a|host=human|note=caf\xe9\nMKTIIALSYIF\n")
    overflow_id = tmp_path / "overflow_id.csv"
    overflow_id.write_text("id,label,true_len,t0,t1\nr0,a,2,0,2\n"
                           "r1,b,2,3,99999999999999999999\n")
    one_record = tmp_path / "one_record.json"
    one_record.write_text(json.dumps({
        "level": "coarse", "class_names": ["avian"],
        "records": [{"id": "a", "residues": "MKTI", "coarse": "avian"}]}))
    pssms = tmp_path / "pssms"
    pssms.mkdir()
    lines = pssm.render_psiblast_pssm(pssm.synth_pssm("MKTI", 1)).splitlines()
    row = next(i for i, line in enumerate(lines)
               if line.split() and line.split()[0].isdigit()) + 2
    fields = lines[row].split()
    fields[5] = "99999999999999999999"
    lines[row] = " ".join(fields)
    (pssms / "a.pssm").write_text("\n".join(lines) + "\n")
    empty_id = tmp_path / "empty_id.fasta"
    empty_id.write_text(">a|host=human\nMKTIIALSYIF\n>|host=avian\nMKAIL\n")
    short_record = tmp_path / "short_record.json"
    short_record.write_text(json.dumps({
        "level": "coarse", "class_names": ["avian", "human"],
        "records": [{"id": "long", "residues": "MKTIIALSYIF",
                     "coarse": "human"},
                    {"id": "short", "residues": "MKAILVVLL",
                     "coarse": "avian"}]}))
    # 18 bigrams per row, too few for the CNN's three conv/pool stages
    bigrams = [ngram.tokenize(s, 2) for s in ("MKTIIALSYIFCLVFAMLG",
                                             "MKAILVVLLYTFATANMLG")]
    narrow_vocab = tmp_path / "narrow_vocab.json"
    store.save_vocab(ngram.build_vocab(bigrams, 2), 18, narrow_vocab)
    narrow_tokens = tmp_path / "narrow_tokens.csv"
    store.write_tokens_csv(narrow_tokens, ["r0", "r1"], ["a", "b"],
                           ngram.encode_corpus(
                               bigrams, ngram.build_vocab(bigrams, 2), 18))
    one_class = tmp_path / "one_class.csv"
    store.write_features_csv(one_class, ["r0", "r1"], ["a", "a"], "eg",
                             np.eye(2))
    # constant columns: no boosting round can beat chance on them
    unboostable = tmp_path / "unboostable.csv"
    store.write_features_csv(unboostable, [f"r{i}" for i in range(30)],
                             ["a"] * 3 + ["b"] * 13 + ["c"] * 14, "eg",
                             np.ones((30, 2)))
    # a 3-class forest whose checkpoint lists 2 class names
    few_names = tmp_path / "few_names.bin"
    store.save_model(few_names, ensemble.Forest(ensemble.ForestConfig(
        n_estimators=2, max_depth=2), 3).fit(np.eye(3)[:, :2], np.arange(3)),
        ("a", "b"))
    out = ["--out", str(tmp_path / "o")]
    train = ["train", "--model", "mlp", "--seed", "1", "--epochs", "1"] + out
    return {
        "features-cell": train + ["--features", str(features)],
        "predictions-cell": ["report", "--predictions", str(predictions)]
        + out,
        "predictions-row-sum": ["report", "--predictions", str(row_sum)]
        + out,
        "dataset-not-json": ["encode", "--dataset", str(not_json),
                             "--ngrams", "2"] + out,
        "dataset-no-records": ["encode", "--dataset", str(no_records),
                               "--ngrams", "2"] + out,
        "dataset-unknown-coarse": ["encode", "--dataset",
                                   str(unknown_coarse), "--ngrams", "2"]
        + out,
        "vocab-no-tokens": train + ["--tokens", str(tokens),
                                    "--vocab", str(no_tokens)],
        "vocab-repeated-token": train + ["--tokens", str(in_range),
                                         "--vocab", str(repeated)],
        "vocab-wrong-length-token": train + ["--tokens", str(in_range),
                                             "--vocab", str(wrong_length)],
        "fasta-not-utf8": ["prepare", "--fasta", str(latin1),
                           "--level", "coarse"] + out,
        "fasta-directory": ["prepare", "--fasta", str(tmp_path),
                            "--level", "coarse"] + out,
        "token-id-outside-vocab": train + ["--tokens", str(tokens),
                                           "--vocab", str(vocab)],
        "tokens-true-len-miscounted": train + ["--tokens", str(miscounted),
                                               "--vocab", str(vocab)],
        "tokens-id-overflow": train + ["--tokens", str(overflow_id),
                                       "--vocab", str(vocab)],
        "pssm-score-overflow": ["encode", "--dataset", str(one_record),
                                "--scheme", "er", "--pssm-dir", str(pssms)]
        + out,
        "rusboost-no-first-round": ["train", "--model", "rusboost",
                                    "--seed", "1", "--features",
                                    str(unboostable)] + out,
        # found by tests/test_fuzz.py: both once exited 1
        "features-one-class-mlp": train + ["--features", str(one_class)],
        "features-one-class-rusboost": ["train", "--model", "rusboost",
                                        "--seed", "1", "--features",
                                        str(one_class)] + out,
        "fasta-empty-id": ["prepare", "--fasta", str(empty_id),
                           "--level", "coarse"] + out,
        "encode-record-too-short": ["encode", "--dataset", str(short_record),
                                    "--scheme", "er", "--synth-pssms",
                                    "--seed", "1"] + out,
        "report-record-too-short": ["report", "--dataset", str(one_record),
                                    "--ngrams", "5"] + out,
        "tokens-too-narrow-for-cnn": ["train", "--model", "cnn", "--seed",
                                      "1", "--epochs", "1", "--tokens",
                                      str(narrow_tokens), "--vocab",
                                      str(narrow_vocab)] + out,
        # once blamed the data: "model class count does not match data"
        "model-too-few-class-names": ["predict", "--model-file",
                                      str(few_names), "--features",
                                      str(one_class)] + out,
    }[case]


@pytest.mark.parametrize("case", [
    "features-cell", "predictions-cell", "predictions-row-sum",
    "dataset-not-json", "dataset-no-records", "dataset-unknown-coarse",
    "vocab-no-tokens", "vocab-repeated-token", "vocab-wrong-length-token",
    "fasta-not-utf8", "fasta-directory", "token-id-outside-vocab",
    "tokens-true-len-miscounted", "tokens-id-overflow", "pssm-score-overflow",
    "rusboost-no-first-round", "features-one-class-mlp",
    "features-one-class-rusboost", "fasta-empty-id",
    "encode-record-too-short", "report-record-too-short",
    "tokens-too-narrow-for-cnn", "model-too-few-class-names"])
def test_malformed_input_file_exit_2(tmp_path, capsys, case):
    assert run(malformed_input(tmp_path, case)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    # a parse error names the file or record it is in
    where = {
        "pssm-score-overflow": f"{tmp_path / 'pssms' / 'a.pssm'}: line ",
        "fasta-empty-id": f"{tmp_path / 'empty_id.fasta'}: line 3: header "
                          f"has empty id",
        "encode-record-too-short": "record short: gapped pseudo-composition "
                                   "needs at least 10 positions, got 9",
        "report-record-too-short": "record a: cannot take 5-grams of a "
                                   "length-4 sequence",
        # the token width comes from the data file, not from a flag
        "tokens-too-narrow-for-cnn": "max_len 18 too short for 3 conv/pool "
                                     "stages",
        "model-too-few-class-names": f"{tmp_path / 'few_names.bin'}: 2 class "
                                     f"names for a model of 3 classes",
    }.get(case)
    assert where is None or err.startswith(f"data error: {where}"), err


def test_dataset_and_encoded_features_agree(tmp_path):
    # prepare orders classes by name, and nested-cv on the features
    # encoded from that dataset reports them in the same order
    ds = synth.generate(synth.SynthSpec(
        classes=synth.default_classes(3), records=30, min_len=40,
        max_len=50, seed=3))
    hosts = {"class0": "human", "class1": "chicken", "class2": "swine"}
    pssms = tmp_path / "pssms"
    pssms.mkdir()
    for r in ds.records:
        (pssms / f"{r.id}.pssm").write_text(
            pssm.render_psiblast_pssm(pssm.synth_pssm(r.residues, 1)))
    fasta = tmp_path / "in.fasta"  # human records come first
    fasta.write_text(seqio.write_fasta([
        seqio.ProteinRecord(id=r.id, residues=r.residues,
                            metadata={"host": hosts[r.fine_label]})
        for r in ds.records]))
    assert run(["prepare", "--fasta", str(fasta), "--level", "coarse",
                "--out", str(tmp_path / "prep")]) == 0
    dataset = str(tmp_path / "prep" / "dataset.json")
    class_names = seqio.load_dataset(dataset).class_names
    assert class_names == ("avian", "human", "swine")
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--pssm-dir", str(pssms), "--out", str(tmp_path / "enc")]) == 0
    assert run(["nested-cv", "--model", "rf", "--grid",
                '{"n_estimators": [3], "max_depth": [2]}', "--k-outer", "3",
                "--k-inner", "2", "--seed", "1",
                "--features", str(tmp_path / "enc" / "features.csv"),
                "--out", str(tmp_path / "cv")]) == 0
    metrics = json.loads((tmp_path / "cv" / "metrics.json").read_text())
    assert tuple(metrics["pooled"]["class_names"]) == class_names


# Test ids number the cases by their place here: append new ones.
@pytest.mark.parametrize("case, flags", [
    ("scheme-ngrams", ("--scheme", "--ngrams")),
    ("scheme-no-profiles", ("--scheme", "--pssm-dir", "--synth-pssms")),
    ("synth-pssms-seed", ("--synth-pssms", "--seed")),
    ("ngrams-pssm-dir", ("--pssm-dir", "--scheme")),
    ("ngrams-synth-pssms", ("--synth-pssms", "--scheme")),
    ("ngrams-seed", ("--seed", "--synth-pssms")),
    ("config-features-tokens", ("--features", "--tokens")),
    ("encode-dataset-alone", ("--dataset", "--scheme", "--ngrams")),
    ("report-ngrams", ("--ngrams", "--dataset")),
    ("features-vocab", ("--vocab", "--tokens")),
    ("report-dataset", ("--dataset", "--ngrams")),
    ("tokens-vocab", ("--tokens", "--vocab")),
    ("ngrams-range-missing-dataset", ("--ngrams", "[1, 8]", "got 10")),
    ("ngrams-zero", ("--ngrams", "[1, 8]", "got 0")),
    ("workers-negative", ("--workers", "at least 1", "got -3")),
    ("top-tokens-missing-dataset", ("--top-tokens", "at least 1", "got 0")),
])
def test_flag_that_would_be_ignored_exit_1(tmp_path, capsys, case, flags):
    # Each flag-presence rule of cli._EXCLUSIVE and cli._NEEDS, and each
    # range of cli._RANGES; most cases once exited 0, ignoring one of the
    # flags or, for --workers -3, running one worker. The check reads
    # resolved values, so a --config key counts, and it comes before any
    # file is read: --ngrams 10 once exited 2 on a missing dataset.
    syn = tmp_path / "syn"
    dataset = synth_corpus(syn, records=18, classes=3, seed=5)
    features = str(seeded_features(tmp_path))
    cv = ["nested-cv", "--model", "rf", "--seed", "1", "--grid",
          '{"n_estimators": [2], "max_depth": [2]}', "--k-outer", "2",
          "--k-inner", "2"]
    encode = ["encode", "--dataset", dataset]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"features": features, "tokens": features}))
    predictions = tmp_path / "predictions.csv"
    store.write_predictions_csv(predictions, ["r0", "r1"], ["a", "b"],
                                np.array([[0.7, 0.3], [0.2, 0.8]]), ("a", "b"))
    argv = {
        "scheme-ngrams": encode + ["--scheme", "eg", "--synth-pssms",
                                   "--seed", "1", "--ngrams", "3"],
        "scheme-no-profiles": encode + ["--scheme", "eg"],
        "synth-pssms-seed": encode + ["--scheme", "eg", "--synth-pssms"],
        "ngrams-pssm-dir": encode + ["--ngrams", "2", "--pssm-dir",
                                     "nowhere"],
        "ngrams-synth-pssms": encode + ["--ngrams", "2", "--synth-pssms",
                                        "--seed", "1"],
        # exited 0 with the tokens of the run without --seed, and the
        # manifest recorded seed 7
        "ngrams-seed": encode + ["--ngrams", "3", "--seed", "7"],
        "config-features-tokens": cv + ["--config", str(config)],
        "encode-dataset-alone": encode,
        "report-ngrams": ["report", "--predictions", str(predictions),
                          "--ngrams", "3"],
        "features-vocab": ["train", "--model", "rf", "--seed", "1",
                           "--features", features, "--vocab", "nowhere"],
        "report-dataset": ["report", "--dataset", dataset],
        "tokens-vocab": ["train", "--model", "mlp", "--seed", "1",
                         "--tokens", features],
        "ngrams-range-missing-dataset": ["encode", "--dataset", "missing",
                                         "--ngrams", "10"],
        "ngrams-zero": encode + ["--ngrams", "0"],
        "workers-negative": cv + ["--features", features, "--workers", "-3"],
        "top-tokens-missing-dataset": ["report", "--dataset", "missing",
                                       "--ngrams", "2", "--top-tokens", "0"],
    }[case]
    assert run(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and all(flag in err for flag in flags), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, group", [
    ("prepare", "fasta"), ("prepare", "level"), ("synth", "records"),
    ("synth", "seed"), ("synth", "out"), ("encode", "dataset"),
    ("train", "model"), ("train", "seed"), ("train", "features|tokens"),
    ("evaluate", "model-file"), ("predict", "features|tokens"),
    ("nested-cv", "model"), ("nested-cv", "features|tokens"),
    ("report", "predictions|dataset"),
])
def test_missing_required_flag_exit_1(tmp_path, capsys, command, group):
    # Every input path is missing: the command exits 1 for the missing
    # group before it reads a file, and 2 once the group is given.
    missing = str(tmp_path / "missing")
    flags = {
        "prepare": {"fasta": missing, "level": "coarse"},
        "synth": {"records": "10", "seed": "1"},
        "encode": {"dataset": missing, "ngrams": "2"},
        "train": {"model": "rf", "seed": "1", "features": missing},
        "evaluate": {"model-file": missing, "features": missing},
        "predict": {"model-file": missing, "features": missing},
        "nested-cv": {"model": "rf", "seed": "1", "features": missing},
        "report": {"predictions": missing},
    }[command]
    flags["out"] = str(tmp_path / "o")
    names = group.split("|")

    def argv(given):
        return [command] + [a for name in given
                            for a in ("--" + name, flags[name])]

    assert run(argv([name for name in flags if name not in names])) == 1
    assert capsys.readouterr().err == (
        f"{command} needs {' or '.join('--' + n for n in names)}\n")
    assert not (tmp_path / "o").exists()
    assert run(argv(flags)) == (0 if command == "synth" else 2)


def test_flag_rules_name_flags_of_the_commands_they_apply_to():
    # a rule whose names no command has together would never fire
    flags = {command: {"out", *names}
             for command, (_, names, _) in cli._SUBCOMMANDS.items()}
    for command, (_, _, required) in cli._SUBCOMMANDS.items():
        for group in required:
            assert set(group.split("|")) <= flags[command], (command, group)
    for pair in cli._EXCLUSIVE:
        assert any(set(pair) <= names for names in flags.values()), pair
    for name, group in cli._NEEDS:
        others = set(group.split("|"))
        applies = [names for names in flags.values()
                   if name in names and others & names]
        assert applies and others <= set().union(*applies), (name, group)
    for name in cli._RANGES:
        assert any(name in names for names in flags.values()), name


@pytest.mark.parametrize("model", ["cnn", "transformer"])
def test_predict_token_ids_beyond_the_model_vocabulary_exit_2(tmp_path, capsys,
                                                              model):
    # the tokens agree with their own vocabulary file, but that is larger
    # than the one the model was trained on
    def tokens(name, records):
        out = tmp_path / name
        assert run(["synth", "--records", str(records), "--seed", "3",
                    "--min-len", "60", "--max-len", "60",
                    "--out", str(out)]) == 0
        assert run(["encode", "--dataset", str(out / "dataset.json"),
                    "--ngrams", "3", "--out", str(out)]) == 0
        vocab, _ = store.load_vocab(out / "vocab.json")
        return vocab.size, ["--tokens", str(out / "tokens.csv"),
                            "--vocab", str(out / "vocab.json")]

    small, train_data = tokens("small", 10)
    large, predict_data = tokens("large", 60)
    assert large > small
    model_dir = tmp_path / "model"
    assert run(["train", "--model", model, "--epochs", "1", "--seed", "1",
                *train_data, "--out", str(model_dir)]) == 0
    capsys.readouterr()
    assert run(["predict", "--model-file", str(model_dir / "model.bin"),
                *predict_data, "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert err == (f"data error: {predict_data[1]}: token ids outside "
                   f"[0, {small}): the model's vocabulary has {small} "
                   f"ids\n"), err


@pytest.mark.parametrize("model, flag, value", [
    ("rf", "--base-depth", "2"),
    ("rf", "--hidden", "5"),
    ("rf", "--epochs", "3"),
    ("rf", "--embed-dim", "8"),
    ("rf", "--learning-rate", "0.5"),
    ("rf", "--batch-size", "8"),
    ("mlp", "--n-estimators", "7"),
    ("mlp", "--max-depth", "2"),
    ("rusboost", "--alpha", "0.1"),
    # a net reads only the fields of its own architecture
    ("mlp", "--num-heads", "3"),
    ("mlp", "--kernel-size", "7"),
    ("mlp", "--filters", "5"),
    ("mlp", "--embed-dim", "8"),
    ("cnn", "--hidden", "7"),
    ("cnn", "--num-heads", "2"),
    ("transformer", "--filters", "9"),
    ("transformer", "--kernel-size", "5"),
    ("transformer", "--hidden", "3"),
])
@pytest.mark.parametrize("command", ["train", "nested-cv", "config", "grid"])
def test_model_flag_the_model_does_not_read_exit_1(tmp_path, capsys, model,
                                                   flag, value, command):
    # each once exited 0 with a model byte-identical to the run without it
    data = (seeded_tokens(tmp_path) if model in ("cnn", "transformer")
            else ["--features", str(seeded_features(tmp_path))])
    argv = ["train", "--model", model, "--seed", "1", *data]
    if command in ("nested-cv", "grid"):
        argv[0] = "nested-cv"
        argv += ["--k-outer", "2", "--k-inner", "2"]
    field = flag[2:].replace("-", "_")
    if command == "grid":
        argv += ["--grid", json.dumps({field: [json.loads(value)]})]
    elif command == "nested-cv":
        argv += ["--grid", "{}", flag, value]
    elif command == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {flag[2:]: json.loads(value) if value[0].isdigit() else value}))
        argv += ["--config", str(config)]
    else:
        argv += [flag, value]
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "o")]) == 1
    unread = f"grid key {field!r}" if command == "grid" else flag
    assert capsys.readouterr().err == f"--model {model} reads no {unread}\n"
    assert not (tmp_path / "o").exists()


def test_rusboost_fold_missing_a_class_exit_2(tmp_path, capsys):
    # One swine record: the outer fold that holds it out trains on two
    # classes, which boosting over three cannot fit.
    rng = np.random.default_rng(7)
    labels = ["avian"] * 14 + ["human"] * 14 + ["swine"]
    features = tmp_path / "features.csv"
    store.write_features_csv(features, [f"r{i}" for i in range(29)], labels,
                             "eg", rng.random((29, 4)))
    assert run(["nested-cv", "--model", "rusboost", "--features",
                str(features), "--grid", '{"n_estimators": [2]}',
                "--k-outer", "2", "--k-inner", "2", "--seed", "1",
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: outer fold ") and err.count("\n") == 1
    assert err.endswith(": class 2 has no samples\n"), err


def seeded_tokens(tmp_path):
    """--tokens and --vocab of 30 synthetic records as trigrams."""
    out = tmp_path / "tok"
    dataset = synth_corpus(out, records=30, classes=3, seed=3)
    assert run(["encode", "--dataset", dataset, "--ngrams", "3",
                "--out", str(out)]) == 0
    return ["--tokens", str(out / "tokens.csv"),
            "--vocab", str(out / "vocab.json")]


def transformer_checkpoint(tmp_path, edit):
    """A small transformer model.bin whose header config edit(meta["config"])
    changed, and the token flags to predict with it."""
    tokens = seeded_tokens(tmp_path)
    out = tmp_path / "model"
    assert run(["train", "--model", "transformer", "--embed-dim", "8",
                "--num-heads", "2", "--epochs", "1", "--seed", "1", *tokens,
                "--out", str(out)]) == 0
    path = out / "model.bin"
    kind, meta, arrays = store.load_checkpoint(path)
    edit(meta["config"])
    store.save_checkpoint(path, kind, meta, arrays)
    return path, tokens


@pytest.mark.parametrize("model, setting, message", [
    ("transformer", ("--num-heads", "0"), "num_heads must be positive, got 0"),
    ("transformer", ("--num-heads", "-2"),
     "num_heads must be positive, got -2"),
    ("transformer", ("--embed-dim", "0"), "embed_dim must be positive, got 0"),
    ("cnn", ("--embed-dim", "0"), "embed_dim must be positive, got 0"),
    ("cnn", ("--kernel-size", "0"), "kernel_size must be positive, got 0"),
    ("cnn", ("--filters", "0"), "filters must be positive, got 0"),
    ("rusboost", ("--base-depth", "0"), "max_depth must be positive, got 0"),
    ("mlp", ("--hidden", "0"), "hidden must be positive, got 0"),
    ("mlp", ("--alpha", "-1"), "alpha must be non-negative, got -1.0"),
    ("transformer", ("--grid", '{"num_heads": [0]}'),
     "num_heads must be positive, got 0"),
    ("transformer", ("checkpoint",), "num_heads must be positive, got 0"),
])
def test_out_of_range_model_setting_exit_1_or_2(tmp_path, capsys, model,
                                                setting, message):
    # Each once raised ZeroDivisionError, exited 1 with numpy's reshape
    # text, or exited 0 with a degenerate model. A flag or grid value is
    # a usage error before --out is made; a checkpoint is a data error
    # naming its file.
    if setting == ("checkpoint",):
        path, tokens = transformer_checkpoint(
            tmp_path, lambda config: config.update(num_heads=0))
        capsys.readouterr()
        assert run(["predict", "--model-file", str(path), *tokens,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") \
            and err.endswith(f": {message}\n") and err.count("\n") == 1, err
        return
    data = (seeded_tokens(tmp_path) if model in ("cnn", "transformer")
            else ["--features", str(seeded_features(tmp_path))])
    argv = ["train", "--model", model, "--seed", "1", *data, *setting]
    if setting[0] == "--grid":
        argv[0] = "nested-cv"
        argv += ["--k-outer", "2", "--k-inner", "2"]
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_mlp_token_checkpoint_exit_2(tmp_path, capsys):
    # mlp reads feature input only; it once also embedded tokens, and a
    # model.bin of that net no longer loads
    path, tokens = transformer_checkpoint(tmp_path, lambda config: None)
    assert run(["train", "--model", "mlp", "--seed", "1", *tokens,
                "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == \
        "mlp requires feature input (--features)\n"
    _, meta, _ = store.load_checkpoint(path)
    config, classes = meta["config"], meta["n_classes"]
    config.update(kind="mlp", hidden=5)
    arrays = {"embed": np.zeros((config["vocab_size"], config["embed_dim"])),
              "h0.w": np.zeros((meta["n_features"] * config["embed_dim"], 5)),
              "h0.b": np.zeros(5), "out.w": np.zeros((5, classes)),
              "out.b": np.zeros(classes)}
    store.save_checkpoint(path, "mlp", meta, arrays)
    assert run(["predict", "--model-file", str(path), *tokens,
                "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"data error: {path}: arrays or header do not match: parameter "
        f"mismatch: missing [], unexpected ['embed']\n")
    assert not (tmp_path / "o").exists()


def test_checkpoint_with_the_old_input_kind_key_exit_2(tmp_path, capsys):
    # A neural model.bin written while the architecture (meta "spec") and
    # the training settings (meta "config") were two dataclasses no longer
    # loads, and the data error names the file.
    training = ("learning_rate", "batch_size", "epochs", "alpha", "seed")

    def old_layout(meta):
        meta["spec"] = {key: value for key, value in meta["config"].items()
                        if key not in training}
        meta["spec"]["n_classes"] = meta.pop("n_classes")
        meta["config"] = {key: meta["config"][key] for key in training}

    path, tokens = transformer_checkpoint(tmp_path, lambda config: None)
    kind, meta, arrays = store.load_checkpoint(path)
    old_layout(meta)
    store.save_checkpoint(path, kind, meta, arrays)
    capsys.readouterr()
    assert run(["predict", "--model-file", str(path), *tokens,
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: arrays or header do not "
                          f"match: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


def test_neural_checkpoint_with_a_width_in_its_config_exit_2(tmp_path,
                                                              capsys):
    # a neural model.bin of the layout whose config held the input width
    # (in_dim, max_len) no longer loads; the data error names the file,
    # and the container version stays 2
    path, tokens = transformer_checkpoint(
        tmp_path, lambda config: config.update(in_dim=0, max_len=58))
    capsys.readouterr()
    assert run(["predict", "--model-file", str(path), *tokens,
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: arrays or header do not "
                          f"match: ") and "'in_dim'" in err, err
    assert store.VERSION == 2
    assert not (tmp_path / "o").exists()


_SMALL = {"rf": ["--n-estimators", "2", "--max-depth", "2"],
          "rusboost": ["--n-estimators", "2", "--base-depth", "2"],
          "mlp": ["--epochs", "1", "--hidden", "4"],
          "cnn": ["--epochs", "1", "--embed-dim", "4", "--filters", "4"],
          "transformer": ["--epochs", "1", "--embed-dim", "4"]}


@pytest.mark.parametrize("model", sorted(_SMALL))
def test_predict_on_another_width_exit_2(tmp_path, capsys, model):
    # every kind learns its width at fit; a file one column wider (a
    # leading pad for tokens, with a vocab max_len to match) is refused
    if estimators.KINDS[model].input == "tokens":
        data = seeded_tokens(tmp_path)
        vocab, width = store.load_vocab(data[3])
        ids, labels, matrix = store.read_tokens_csv(data[1])
        store.write_tokens_csv(tmp_path / "wide.csv", ids, labels,
                               np.column_stack([np.full(len(ids),
                                                        ngram.PAD_ID),
                                                matrix]))
        store.save_vocab(vocab, width + 1, tmp_path / "wide.json")
        wide = ["--tokens", str(tmp_path / "wide.csv"),
                "--vocab", str(tmp_path / "wide.json")]
    else:
        data = ["--features", str(seeded_features(tmp_path))]
        ids, labels, _, matrix = store.read_features_csv(data[1])
        width = matrix.shape[1]
        store.write_features_csv(tmp_path / "wide.csv", ids, labels, "eg",
                                 np.column_stack([matrix, matrix[:, :1]]))
        wide = ["--features", str(tmp_path / "wide.csv")]
    assert run(["train", "--model", model, "--seed", "1", *data,
                *_SMALL[model], "--out", str(tmp_path / "m")]) == 0
    capsys.readouterr()
    assert run(["predict", "--model-file", str(tmp_path / "m" / "model.bin"),
                *wide, "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    kind = estimators.KINDS[model].input[:-1]
    assert err.startswith(f"data error: {wide[1]}: {kind} input must be "
                          f"(n, {width})") and err.count("\n") == 1, err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("model", ["rf", "mlp"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_feature_value_exit_2(tmp_path, capsys, model, value):
    # encode writes none; rf once trained on such a file, exit 0, and mlp
    # reported it as divergence, exit 3
    features = seeded_features(tmp_path)
    lines = features.read_text().splitlines()
    fields = lines[3].split(",")
    fields[4] = value
    lines[3] = ",".join(fields)
    features.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["train", "--model", model, "--features", str(features),
                "--seed", "1", *_SMALL[model],
                "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err == (
        f"data error: {features}: record 'r2': a value that is not "
        f"finite\n")


@pytest.mark.parametrize("model", sorted(_SMALL))
def test_table_without_value_columns_exit_2(tmp_path, capsys, model):
    # a table of two records and no value columns
    tokens = estimators.KINDS[model].input == "tokens"
    if tokens:
        data = seeded_tokens(tmp_path)
        data[1] = str(tmp_path / "tokens.csv")
        (tmp_path / "tokens.csv").write_text(
            "id,label,true_len\nr0,a,0\nr1,b,0\n")
    else:
        data = ["--features", str(tmp_path / "features.csv")]
        (tmp_path / "features.csv").write_text("id,label,scheme\nr0,a,eg\n"
                                               "r1,b,eg\n")
    capsys.readouterr()
    assert run(["train", "--model", model, "--seed", "1", *data,
                "--out", str(tmp_path / "o")]) == 2
    columns = ["id", "label", "true_len" if tokens else "scheme"]
    assert capsys.readouterr().err == (
        f"data error: {data[1]}: no value columns after {columns}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, model", [
    ("train", "rf"), ("nested-cv", "rf"), ("train", "rusboost"),
    ("train", "mlp"), ("nested-cv", "mlp"), ("train", "cnn"),
    ("nested-cv", "transformer")])
def test_one_class_table_exit_2_for_every_kind(tmp_path, capsys, command,
                                               model):
    # train and nested-cv hold every kind to one class-count rule, and the
    # data error names the file
    if estimators.KINDS[model].input == "tokens":
        data = seeded_tokens(tmp_path)
        ids, _, matrix = store.read_tokens_csv(data[1])
        data[1] = str(tmp_path / "one_class.csv")
        store.write_tokens_csv(data[1], ids, ["human"] * len(ids), matrix)
    else:
        path = tmp_path / "one_class.csv"
        store.write_features_csv(path, [f"r{i}" for i in range(10)],
                                 ["human"] * 10, "eg",
                                 np.random.default_rng(1).random((10, 4)))
        data = ["--features", str(path)]
    argv = [command, "--model", model, "--seed", "1", *data, *_SMALL[model]]
    if command == "nested-cv":
        argv += ["--k-outer", "2", "--k-inner", "2", "--grid", "{}"]
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"data error: {data[1]}: need at least 2 classes, found 1\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["grid-file", "grid-inline", "config"])
def test_malformed_json_names_its_source_exit_1(tmp_path, capsys, where):
    features = seeded_features(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_estimators": [2, ')
    argv = ["nested-cv", "--model", "rf", "--seed", "1",
            "--features", str(features), "--out", str(tmp_path / "o")]
    source = {"grid-file": str(bad), "grid-inline": "--grid",
              "config": str(bad)}[where]
    argv += {"grid-file": ["--grid", str(bad)],
             "grid-inline": ["--grid", bad.read_text()],
             "config": ["--config", str(bad)]}[where]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"{source}: Expecting value: line 1 column 22 (char 21)\n")
    assert not (tmp_path / "o").exists()


def test_second_main_call_leaves_no_argparse_cycles(tmp_path):
    # building a parser leaves its help formatters in reference cycles,
    # which only the cyclic collector frees; main builds one per process
    argv = ["synth", "--records", "6", "--seed", "1", "--out"]
    assert run(argv + [str(tmp_path / "a")]) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(argv + [str(tmp_path / "b")]) == 0
        gc.collect()
        left = [type(o).__qualname__ for o in gc.garbage
                if type(o).__module__ == "argparse"
                or isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not left
