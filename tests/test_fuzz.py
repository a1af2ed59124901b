"""Seeded input fuzzer (Miller et al., "An empirical study of the
reliability of UNIX utilities", CACM 1990).

Each mutant is one base input with one seeded edit: a flipped bit, a
deleted span, a truncation, an inserted token, a duplicated line or a
replaced digit. It runs in-process through cli.main under a deadline.
A mutant of an input file must exit 0 or 2, and on 2 print exactly one
`data error:` line; a mutant of --config or --grid text must exit 0 or
1. No mutant may raise out of main, hang, print a traceback, or print
anything to stderr on success.
"""

import json
import shutil

import numpy as np

from hostseq import cli

SEEDS = (1, 2, 3)  # seed 3 is the first to edit a grid's num_heads to 0
MUTANTS = 16  # per kind and seed
# bytes an inserted-token edit puts in: signs, numbers, JSON and CSV
# punctuation, and non-finite float text
TOKENS = (b"-", b"0", b"7", b".", b",", b'"', b"{", b"]", b"\n", b" ",
          b"null", b"nan", b"1e999", b"-1")


def flip(data, rng):
    i = int(rng.integers(len(data)))
    return data[:i] + bytes([data[i] ^ 1 << int(rng.integers(8))]) \
        + data[i + 1:]


def delete(data, rng):
    i = int(rng.integers(len(data)))
    return data[:i] + data[i + int(rng.integers(1, 17)):]


def truncate(data, rng):
    return data[:int(rng.integers(len(data)))]


def insert(data, rng):
    i = int(rng.integers(len(data) + 1))
    return data[:i] + TOKENS[int(rng.integers(len(TOKENS)))] + data[i:]


def duplicate_line(data, rng):
    lines = data.splitlines(keepends=True)
    i = int(rng.integers(len(lines)))
    return b"".join(lines[:i + 1] + lines[i:])


def replace_digit(data, rng):
    digits = [i for i, b in enumerate(data) if 48 <= b <= 57]
    if not digits:
        return flip(data, rng)
    i = digits[int(rng.integers(len(digits)))]
    return data[:i] + str(int(rng.integers(10))).encode() + data[i + 1:]


EDITS = (flip, delete, truncate, insert, duplicate_line, replace_digit)


def mutant(data, rng):
    """(edit name, data with one seeded edit)."""
    edit = EDITS[int(rng.integers(len(EDITS)))]
    return edit.__name__, edit(data, rng)


def run(argv):
    assert cli.main(argv) == 0, argv


def base_inputs(root):
    """Builds every base input under root; returns kind -> (base file,
    argv reading the file at the path it is given, exit codes allowed)."""
    syn, tok = root / "syn", root / "tok"
    run(["synth", "--records", "12", "--classes", "3", "--seed", "5",
         "--min-len", "30", "--max-len", "40", "--with-pssms",
         "--out", str(syn)])
    dataset = str(syn / "dataset.json")
    run(["encode", "--dataset", dataset, "--scheme", "eg", "--pssm-dir",
         str(syn / "pssms"), "--out", str(syn)])
    run(["encode", "--dataset", dataset, "--ngrams", "2", "--out", str(tok)])
    features = str(syn / "features.csv")
    tokens = ["--tokens", str(tok / "tokens.csv"),
              "--vocab", str(tok / "vocab.json")]
    rf = ["--model", "rf", "--n-estimators", "2", "--max-depth", "3",
          "--seed", "1"]
    rusboost = ["--model", "rusboost", "--n-estimators", "2",
                "--base-depth", "2", "--seed", "1"]
    mlp = ["--model", "mlp", "--hidden", "4", "--epochs", "1", "--seed", "1"]
    # heads split embed_dim, so an edit can reach the division by num_heads
    transformer = ["--model", "transformer", "--embed-dim", "8",
                   "--num-heads", "2", "--epochs", "1", "--seed", "1"]
    run(["train", *rf, "--features", features, "--out", str(root / "rf")])
    run(["train", *rusboost, "--features", features,
         "--out", str(root / "rusboost")])
    run(["train", *mlp, "--features", features, "--out", str(root / "mlp")])
    run(["train", *transformer, *tokens,
         "--out", str(root / "transformer")])
    run(["predict", "--model-file", str(root / "rf" / "model.bin"),
         "--features", features, "--out", str(root / "pred")])
    config = root / "config.json"
    config.write_text(json.dumps({"model": "rf", "seed": 1,
                                  "n-estimators": 2, "max-depth": 3}))
    grid = root / "grid.json"
    grid.write_text('{"n_estimators": [2], "max_depth": [2, 3]}')
    heads = root / "heads.json"
    heads.write_text('{"embed_dim": [8], "num_heads": [2]}')
    pssm = syn / "pssms" / "synth-03.pssm"
    data = (0, 2)
    usage = (0, 1)
    return {
        "dataset": (syn / "dataset.json", lambda p: [
            "encode", "--dataset", p, "--ngrams", "2"], data),
        # the mutant replaces one of the profiles the dataset names
        "pssm": (pssm, lambda p: [
            "encode", "--dataset", dataset, "--scheme", "er",
            "--pssm-dir", str(syn / "pssms")], data),
        "features": (syn / "features.csv", lambda p: [
            "train", *rf, "--features", p], data),
        "tokens": (tok / "tokens.csv", lambda p: [
            "train", *transformer, "--tokens", p, "--vocab", tokens[3]],
            data),
        "vocab": (tok / "vocab.json", lambda p: [
            "train", *transformer, "--tokens", tokens[1], "--vocab", p],
            data),
        "rf-model": (root / "rf" / "model.bin", lambda p: [
            "predict", "--model-file", p, "--features", features], data),
        "rusboost-model": (root / "rusboost" / "model.bin", lambda p: [
            "predict", "--model-file", p, "--features", features], data),
        "mlp-model": (root / "mlp" / "model.bin", lambda p: [
            "predict", "--model-file", p, "--features", features], data),
        "transformer-model": (root / "transformer" / "model.bin", lambda p: [
            "predict", "--model-file", p, *tokens], data),
        "predictions": (root / "pred" / "predictions.csv", lambda p: [
            "report", "--predictions", p], data),
        "config": (config, lambda p: [
            "train", "--config", p, "--features", features], usage),
        "grid": (grid, lambda p: [
            "nested-cv", "--model", "rf", "--features", features,
            "--grid", p, "--k-outer", "2", "--k-inner", "2",
            "--seed", "1"], usage),
        "transformer-grid": (heads, lambda p: [
            "nested-cv", "--model", "transformer", *tokens, "--grid", p,
            "--epochs", "1", "--k-outer", "2", "--k-inner", "2",
            "--seed", "1"], usage),
    }


def fuzz(root, capture, arm, seeds=SEEDS, mutants=MUTANTS):
    """The faults of mutants of every base input built under root, one
    line each. capture() returns the stderr written since its last call;
    arm(seconds) starts the hang deadline of one run, arm(0) stops it."""
    faults = []
    for kind, (path, argv, allowed) in base_inputs(root).items():
        base = path.read_bytes()
        mutant_path = path if kind == "pssm" else path.with_name(
            "mutant-" + path.name)
        for seed in seeds:
            rng = np.random.default_rng([seed, *kind.encode()])
            for i in range(mutants):
                edit, data = mutant(base, rng)
                mutant_path.write_bytes(data)
                out = root / "out"
                name = f"{kind} seed {seed} mutant {i} ({edit})"
                capture()
                arm(10)
                try:
                    code = cli.main(argv(str(mutant_path))
                                    + ["--out", str(out)])
                except Exception as exc:
                    code = f"raised {type(exc).__name__}: {exc}"
                finally:
                    arm(0)
                err = capture()
                shutil.rmtree(out, ignore_errors=True)
                if code not in allowed:
                    faults.append(f"{name}: exit {code}: {err!r}")
                elif code == 2 and not (err.startswith("data error: ")
                                        and err.count("\n") == 1):
                    faults.append(f"{name}: exit 2 with {err!r}")
                elif code == 0 and err:
                    faults.append(f"{name}: exit 0 with {err!r}")
                elif "Traceback" in err:
                    faults.append(f"{name}: exit {code} with {err!r}")
        path.write_bytes(base)
    return faults


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, capsys,
                                                    deadline):
    faults = fuzz(tmp_path, lambda: capsys.readouterr().err, deadline)
    assert not faults, "\n".join(faults)
