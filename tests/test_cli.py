"""Command-line pipeline: exit codes, artifacts, overrides, determinism."""

import hashlib
import json
import os

import numpy as np
import pytest

from hostseq import cli, ensemble, seqio, store


def run(argv):
    return cli.main(argv)


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


def test_workers_env_cap(tmp_path, monkeypatch):
    out = tmp_path / "run"
    dataset = synth_corpus(out, records=20, seed=19)
    assert run(["encode", "--dataset", dataset, "--scheme", "eg",
                "--synth-pssms", "--seed", "3", "--out", str(out)]) == 0
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    grid = json.dumps({"n_estimators": [2], "max_depth": [2]})
    assert run(["nested-cv", "--model", "rf", "--grid", grid,
                "--features", str(out / "features.csv"),
                "--k-outer", "2", "--k-inner", "2", "--seed", "1",
                "--workers", "8", "--out", str(out)]) == 0


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


def test_evaluate_wrong_width_features_exit_1(tmp_path):
    out = train_flow(tmp_path, "mlp", ("--epochs", "2",))
    other = tmp_path / "other"
    dataset = synth_corpus(other, records=8, seed=29)
    assert run(["encode", "--dataset", dataset, "--scheme", "er",
                "--synth-pssms", "--seed", "1", "--out", str(other)]) == 0
    code = run(["evaluate", "--model-file", str(out / "model.bin"),
                "--features", str(other / "features.csv"),
                "--out", str(out)])
    assert code in (1, 2)


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
    mlp = cli.make_model_factory("mlp", 2, {}, in_dim=3)
    assert mlp({"hidden": 8}, 0).spec.hidden == (8,)
    assert mlp({"hidden": [8, 4]}, 0).spec.hidden == (8, 4)


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


def test_grid_aliases_and_flag_precedence():
    boost = cli.make_model_factory("rusboost", 2, {"base_depth": 4,
                                                   "max_depth": 7}, in_dim=3)
    assert boost({}, 0).config.max_depth == 4
    assert boost({"max_depth": 2}, 0).config.max_depth == 2
    assert boost({"max_depth": 2, "base_depth": 1}, 0).config.max_depth == 1
    mlp = cli.make_model_factory("mlp", 2, {"epochs": 9,
                                            "learning_rate": 0.5}, in_dim=3)
    clf = mlp({"max_iter": 3, "epochs": 5, "learning_rate_init": 0.1}, 0)
    assert (clf.config.epochs, clf.config.learning_rate) == (3, 0.1)
    clf = mlp({"num_filters": 8.0}, 0)
    assert (clf.config.epochs, clf.config.learning_rate) == (9, 0.5)
    assert clf.spec.filters == 8 and isinstance(clf.spec.filters, int)
    assert clf.config.batch_size == 128  # TrainConfig default
    rf = cli.make_model_factory("rf", 2, {"base_depth": 4}, in_dim=3)
    assert rf({}, 0).config.max_depth == 10  # ForestConfig default
    with pytest.raises(cli.UsageError, match="base_depth"):
        rf({"base_depth": 4}, 0)


def test_default_grids_build_through_registry():
    shapes = {"mlp": {"in_dim": 10}, "rf": {"in_dim": 10},
              "rusboost": {"in_dim": 10},
              "cnn": {"vocab_size": 50, "max_len": 60},
              "transformer": {"vocab_size": 50, "max_len": 60}}
    assert set(shapes) == set(cli.DEFAULT_GRIDS)
    for model, shape in shapes.items():
        factory = cli.make_model_factory(model, 3, {}, **shape)
        for params in cli._parse_grid(None, model):
            factory(params, 0)
    assert set(cli.MODELS) == set(shapes)


def test_train_tree_checkpoints_match_golden_bytes(tmp_path):
    # Pins model.bin for fixed-seed forest and RUSBoost fits; tree fits
    # use no BLAS, so the bytes depend only on the code.
    rng = np.random.default_rng(2022)
    X = rng.random((36, 6))
    labels = [("avian", "human", "swine")[i] for i in X[:, :3].argmax(axis=1)]
    features = tmp_path / "features.csv"
    store.write_features_csv(features, [f"r{i}" for i in range(36)], labels,
                             "eg", X)
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
