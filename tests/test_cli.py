"""Command-line pipeline: exit codes, artifacts, overrides, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hostseq import cli, ensemble, evaluation, ngram, pssm, seqio, store, synth


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


def test_train_divergence_exit_3(tmp_path, capsys):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=24, seed=4)
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--synth-pssms", "--seed", "6", "--out", str(out)]) == 0
    with np.errstate(all="ignore"):
        code = run(["train", "--model", "mlp", "--features",
                    str(out / "features.csv"), "--out", str(out),
                    "--optimizer", "sgd", "--learning-rate", "1e200",
                    "--epochs", "5", "--seed", "1"])
    assert code == 3
    assert "diverged" in capsys.readouterr().err.lower()


def diverging_nested_cv(tmp_path):
    return ["nested-cv", "--model", "mlp", "--optimizer", "sgd",
            "--learning-rate", "1e200", "--epochs", "5",
            "--grid", '{"hidden": [[8]]}',
            "--features", str(seeded_features(tmp_path)),
            "--k-outer", "2", "--k-inner", "2", "--seed", "1",
            "--workers", "2", "--out", str(tmp_path / "o")]


def test_nested_cv_divergence_exit_3_names_inner_fold(tmp_path, capsys):
    assert run(diverging_nested_cv(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "training diverged: outer fold 0, grid point 0, inner fold" in err
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
    assert run(["nested-cv", "--dataset", dataset, "--ngrams", "3",
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


def test_workers_capped_at_usable_cores(tmp_path, monkeypatch):
    features = seeded_features(tmp_path)
    seen = []
    real = evaluation.nested_cv

    def spy(*args, workers, **kwargs):
        seen.append(workers)
        return real(*args, workers=1, **kwargs)

    monkeypatch.setattr(evaluation, "nested_cv", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    grid = json.dumps({"n_estimators": [2], "max_depth": [2]})
    assert run(["nested-cv", "--model", "rf", "--grid", grid,
                "--features", str(features),
                "--k-outer", "2", "--k-inner", "2", "--seed", "1",
                "--workers", "8", "--out", str(tmp_path / "o")]) == 0
    assert seen == [1]


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


@pytest.mark.parametrize("command,table,flag", [
    ("evaluate", "features.csv", "--features"),
    ("report", "predictions.csv", "--predictions"),
])
def test_unknown_label_exit_2(tmp_path, capsys, command, table, flag):
    out = predictions_fixture(tmp_path)
    lines = (out / table).read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = "martian"
    bad = tmp_path / table
    bad.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    argv = [command, flag, str(bad), "--out", str(tmp_path / "o")]
    if command == "evaluate":
        argv += ["--model-file", str(out / "model.bin")]
    assert run(argv) == 2
    assert "martian" in capsys.readouterr().err


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


@pytest.mark.parametrize("grid, key", [
    ('{"hidden": [[8, "wide"]]}', "'hidden'"),
    ('{"max_iter": ["many"]}', "'max_iter'"),
    ('{"learning_rate_init": [[0.1]]}', "'learning_rate_init'"),
])
def test_nested_cv_uncoercible_grid_value_exit_1(tmp_path, capsys, grid, key):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=20, seed=17)
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--synth-pssms", "--seed", "3", "--out", str(out)]) == 0
    assert run(["nested-cv", "--model", "mlp", "--grid", grid,
                "--features", str(out / "features.csv"),
                "--k-outer", "2", "--k-inner", "2", "--seed", "1",
                "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
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
])
def test_config_value_read_like_its_flag(tmp_path, capsys, key, value,
                                         flag_text):
    # A config value goes through its flag's type and choices: one that
    # converts writes the bytes the flag writes, one that does not exits
    # 1 naming the flag.
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
        assert code == 1
        err = capsys.readouterr().err
        assert f"--{key}" in err
        assert "Traceback" not in err
        return
    assert code == 0
    assert run(argv + [f"--{key}", flag_text,
                       "--out", str(tmp_path / "flag")]) == 0
    names = sorted(set(os.listdir(tmp_path / "flag")) - {"run.log"})
    for name in names:
        assert (tmp_path / "cfg" / name).read_bytes() == \
            (tmp_path / "flag" / name).read_bytes(), name


def test_train_tree_checkpoints_match_golden_bytes(tmp_path):
    # Pins model.bin for fixed-seed forest and RUSBoost fits; tree fits
    # use no BLAS, so the bytes depend only on the code.
    features = seeded_features(tmp_path)
    golden = {
        "rf": ("9bf8a3983c5b7dfebeec792b50c5e86431bb0f76a8a9adf427546a5be3e7f35d",
               ("--n-estimators", "5", "--max-depth", "3")),
        "rusboost": ("f8c1fa6ea2a94e732a574515e61d82d8f8b7e30ab86055b10fdc1cc9248e694b",
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
            "cd08bac36c8acb5ebc75ef03865cd2ccf74af7d1012b30816bc57d1da29c1b54",
        "cv/pr_curves.csv":
            "589aa4b58d3041f6c31da1e1f89004f55d12eae95eef3e9a19bb8f241cf15cd9",
        "p_rf/predictions.csv":
            "077d42330d635a230d1f2ecccd31dc077aab384f9af88ee0d2d929f1e4242f8a",
        "p_rb/predictions.csv":
            "a2077c832a191db93e9f4cbc138a26c885c4125f850923a5e290b0cca020f271",
        "ev/metrics.json":
            "86aceb9d82532394c4d983b8edf88d986532ad6fce09697603e38c68205d75a2",
        "ev/pr_curves.csv":
            "bd9d7ce45f75e6e58f1b1c3da8b9bb63efc123d41ab226c51ebad203cee6de69",
        "rep/metrics.csv":
            "41472f630fd3d534ed6176bcc57e0bdeec603a6ca2b37b79ead3e8de9cb8d439",
        "rep/metrics.json":
            "86aceb9d82532394c4d983b8edf88d986532ad6fce09697603e38c68205d75a2",
        "rep/disagreement.json":
            "9add8b9c0d826a97e5a772354a3a54b437d9844b2fd85ba00eaea82e0e65ea9c",
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
    vocab = tmp_path / "vocab.json"
    ngram.save_vocab(ngram.build_vocab([["AA", "AB"]], 2), 2, vocab)
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
    out = ["--out", str(tmp_path / "o")]
    train = ["train", "--model", "mlp", "--seed", "1", "--epochs", "1"] + out
    return {
        "features-cell": train + ["--features", str(features)],
        "predictions-cell": ["report", "--predictions", str(predictions)]
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
    }[case]


@pytest.mark.parametrize("case", [
    "features-cell", "predictions-cell", "dataset-not-json",
    "dataset-no-records", "dataset-unknown-coarse", "vocab-no-tokens",
    "vocab-repeated-token", "vocab-wrong-length-token", "fasta-not-utf8",
    "fasta-directory", "token-id-outside-vocab",
    "tokens-true-len-miscounted"])
def test_malformed_input_file_exit_2(tmp_path, capsys, case):
    assert run(malformed_input(tmp_path, case)) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "Traceback" not in err


def test_dataset_and_encoded_features_agree(tmp_path):
    # prepare orders classes by name, and nested-cv reads the same
    # order from a dataset as from the features encoded from it
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
    assert seqio.load_dataset(dataset).class_names == (
        "avian", "human", "swine")
    eg = ["--scheme", "eg", "--pssm-dir", str(pssms)]
    cv = ["nested-cv", "--model", "rf", "--grid",
          '{"n_estimators": [3], "max_depth": [2]}', "--k-outer", "3",
          "--k-inner", "2", "--seed", "1"]
    assert run(cv + ["--dataset", dataset, *eg,
                     "--out", str(tmp_path / "a")]) == 0
    assert run(["encode", "--dataset", dataset, *eg,
                "--out", str(tmp_path / "enc")]) == 0
    assert run(cv + ["--features", str(tmp_path / "enc" / "features.csv"),
                     "--out", str(tmp_path / "b")]) == 0
    for name in ("cv_plan.json", "metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
