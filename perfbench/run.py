"""hostseq benchmark: seeded workloads run through ``hostseq.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload forest-cv --seed 1 --seconds 25 --trace 0

One client runs the workload's CLI commands one after another in this
process (a closed loop). Set-up writes the seeded input files at least
three times and for at least a second, and reports the median. One
untimed warm-up pass fixes the reference artifacts; timed passes then
repeat until ``--seconds`` have elapsed. Every pass checks its outputs:
each command exits 0, ``metrics.json`` and ``predictions.csv`` are
byte-identical to the warm-up's, prediction rows sum to 1, ``prepare``
reports the duplicates and non-canonical records set-up planted, and
every mean score clears a floor.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. With
``--trace 1`` untraced and traced passes alternate; the traced passes
give the per-layer metrics, and their artifacts must match the untraced
ones byte for byte. ``--workload all`` runs every workload in turn, each
in its own process. The last line of standard output is a JSON result;
the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
MIN_PASSES = 3
SCORE_FLOOR = 0.6
WORKERS = min(2, len(os.sched_getaffinity(0)))
# Per-layer metrics taken from the traced set-up rather than the passes.
SETUP_LAYERS = ("synth.generate.self_s", "pssm.render_psiblast_pssm.self_s")


@dataclass
class Command:
    argv: list
    stage: str                 # "ingest", "fit" or "other"
    artifacts: tuple = ()      # files that must not change between passes
    score: str | None = None   # metrics.json holding the mean score
    check: object = None       # check(out_dir) -> problem text or None


@dataclass
class Workload:
    setup: object              # setup(inputs_dir, seed) -> expected counts
    commands: object           # commands(inputs, out, seed, expected)


def _forest_cv(inp, out, seed, expected):
    feats = os.path.join(out, "feats")
    cv = os.path.join(out, "cv")
    return [
        Command(["encode", "--dataset", os.path.join(inp, "dataset.json"),
                 "--scheme", "er", "--synth-pssms", "--seed", str(seed),
                 "--out", feats], "ingest"),
        Command(["nested-cv", "--model", "rf",
                 "--features", os.path.join(feats, "features.csv"),
                 "--grid", '{"n_estimators": [10], "max_depth": [5, 10]}',
                 "--k-outer", "3", "--k-inner", "3", "--seed", str(seed),
                 "--workers", str(WORKERS), "--out", cv], "fit",
                artifacts=("metrics.json",),
                score=os.path.join(cv, "metrics.json")),
    ]


def _token_cv(inp, out, seed, expected):
    toks = os.path.join(out, "toks")
    data = ["--tokens", os.path.join(toks, "tokens.csv"),
            "--vocab", os.path.join(toks, "vocab.json")]
    common = ["--grid", "{}", "--k-outer", "3", "--k-inner", "2",
              "--learning-rate", "0.01", "--batch-size", "32",
              "--seed", str(seed), "--workers", str(WORKERS)]
    nets = {"transformer": ["--embed-dim", "32", "--num-heads", "1",
                            "--epochs", "3"],
            "cnn": ["--filters", "64", "--kernel-size", "3",
                    "--epochs", "5"]}
    commands = [Command(["encode", "--dataset",
                         os.path.join(inp, "dataset.json"),
                         "--ngrams", "3", "--out", toks], "ingest")]
    for model, flags in nets.items():
        cv = os.path.join(out, f"cv-{model}")
        commands.append(Command(
            ["nested-cv", "--model", model, *data, *common, *flags,
             "--out", cv], "fit", artifacts=("metrics.json",),
            score=os.path.join(cv, "metrics.json")))
    return commands


def _filter_report_check(expected, out_dir):
    with open(os.path.join(out_dir, "filter_report.json"),
              encoding="utf-8") as fh:
        report = json.load(fh)
    got = {key: report.get(key) for key in expected}
    return None if got == expected else f"filter report {got} != {expected}"


def _rows_sum_to_one(out_dir):
    with open(os.path.join(out_dir, "predictions.csv"), newline="",
              encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        total = sum(float(v) for v in row[3:])
        if abs(total - 1.0) > 1e-9:
            return f"prediction row {row[0]} sums to {total!r}"
    return None if len(rows) > 1 else "no prediction rows"


def _ingest_train_predict(inp, out, seed, expected):
    data = os.path.join(out, "data")
    feats = ["--features", os.path.join(out, "feats", "features.csv")]
    model = ["--model-file", os.path.join(out, "model", "model.bin")]
    return [
        Command(["prepare", "--fasta", os.path.join(inp, "corpus.fasta"),
                 "--level", "coarse", "--out", data], "ingest",
                check=partial(_filter_report_check, expected)),
        Command(["encode", "--dataset", os.path.join(data, "dataset.json"),
                 "--scheme", "er", "--pssm-dir", os.path.join(inp, "pssms"),
                 "--out", os.path.join(out, "feats")], "ingest"),
        Command(["train", "--model", "rusboost", *feats,
                 "--n-estimators", "12", "--base-depth", "2",
                 "--seed", str(seed),
                 "--out", os.path.join(out, "model")], "fit"),
        Command(["predict", *model, *feats,
                 "--out", os.path.join(out, "pred")], "other",
                artifacts=("predictions.csv",), check=_rows_sum_to_one),
        Command(["evaluate", *model, *feats,
                 "--out", os.path.join(out, "eval")], "other",
                artifacts=("metrics.json",),
                score=os.path.join(out, "eval", "metrics.json")),
    ]


def _workloads():
    from inputs import write_dataset, write_fasta_and_pssms
    return {
        # Trees only: ensemble.fit_tree dominates; no autograd, no PSSM text.
        "forest-cv": Workload(
            partial(write_dataset, records=200, min_len=40, max_len=60),
            _forest_cv),
        # Nets only: autograd and models dominate; no trees run.
        "token-cv": Workload(
            partial(write_dataset, records=240, min_len=20, max_len=30),
            _token_cv),
        # PSSM parsing, long-profile ER encoding, CSV and checkpoint I/O,
        # and boosted trees that scan every feature. Depth-2 trees on this
        # corpus always grow all three splits, so a pass does the same
        # work on every seed.
        "ingest-train-predict": Workload(
            partial(write_fasta_and_pssms, records=90, min_len=500,
                    max_len=580),
            _ingest_train_predict),
    }


@dataclass
class RunState:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    references: dict = field(default_factory=dict)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _check_outputs(cmd, state):
    out_dir = cmd.argv[cmd.argv.index("--out") + 1]
    for name in cmd.artifacts:
        path = os.path.join(out_dir, name)
        data = _read_bytes(path)
        ref = state.references.setdefault(path, data)
        if data != ref:
            return f"{name} differs from the warm-up pass"
    if cmd.score is not None:
        score = _mean_score(cmd.score)
        if not score >= SCORE_FLOOR:
            return f"mean score {score!r} below floor {SCORE_FLOOR}"
    return cmd.check(out_dir) if cmd.check is not None else None


def _mean_score(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc.get("pooled", doc)["overall"]["mean_score"]


def run_pass(cli, commands, state):
    """Run the command sequence once; returns stage times and the score,
    or None once a command has failed."""
    times = {"wall_s": 0.0, "ingest_s": 0.0, "fit_s": 0.0}
    for cmd in commands:
        state.attempted += 1
        log = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                code = cli.main(cmd.argv)
            except Exception:
                traceback.print_exc()
                code = None
        elapsed = time.perf_counter() - start
        problem = (f"exit {code}: {log.getvalue().strip()[-2000:]}"
                   if code != 0 else _check_outputs(cmd, state))
        if problem:
            state.failed += 1
            state.problems.append(f"{cmd.argv[0]}: {problem}")
            return None
        times["wall_s"] += elapsed
        if cmd.stage != "other":
            times[f"{cmd.stage}_s"] += elapsed
    scores = [_mean_score(c.score) for c in commands if c.score]
    times["mean_score"] = sum(scores) / len(scores)
    return times


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
        "workers": WORKERS,
    }


def _summary(values):
    """(n, median, q1, q3) of one metric's samples."""
    if len(values) == 1:
        return 1, values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return len(values), statistics.median(values), q1, q3


def _print_report(title, env, samples, units, state):
    print(title)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{'metric':45} {'unit':6} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12}")
    for name, values in samples.items():
        n, median, q1, q3 = _summary(values)
        print(f"{name:45} {units[name]:6} {n:3d} {median:12.6g} "
              f"{q1:12.6g} {q3:12.6g}")
    ratio = state.failed / state.attempted if state.attempted else 0.0
    print(f"{'fail_ratio':45} {'1':6} {state.attempted:3d} {ratio:12.6g}"
          f"   ({state.failed} of {state.attempted} commands)")
    for path, data in sorted(state.references.items()):
        print(f"sha256 {hashlib.sha256(data).hexdigest()} "
              f"{os.path.relpath(path, ROOT)}")
    for problem in state.problems:
        print(f"FAILED {problem}")


def run_workload(name, seed, seconds, trace):
    from hostseq import cli
    import tracer as tracing
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    workload = _workloads()[name]
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    inp, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    tracer = tracing.Tracer() if trace else None

    setup_s, setup_layers = [], []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        shutil.rmtree(inp, ignore_errors=True)
        os.makedirs(inp)
        if tracer:
            tracing.install(tracer)
        start = time.perf_counter()
        expected = workload.setup(inp, seed)
        setup_s.append(time.perf_counter() - start)
        if tracer:
            tracer.restore()
            setup_layers.append(tracing.layer_metrics(tracer.take()))

    commands = workload.commands(inp, out, seed, expected)
    state = RunState()
    passes, traced, layers, spans = [], [], [], []
    if run_pass(cli, commands, state) is not None:      # warm-up
        start = time.perf_counter()
        while time.perf_counter() - start < seconds \
                or len(passes) < MIN_PASSES:
            result = run_pass(cli, commands, state)
            if result is None:
                break
            passes.append(result)
            if not tracer:
                continue
            tracing.install(tracer)
            try:
                result = run_pass(cli, commands, state)
            finally:
                tracer.restore()
            pass_spans = tracer.take()
            spans += pass_spans
            if result is None:
                break
            traced.append(result)
            layers.append(tracing.layer_metrics(pass_spans))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = not state.problems
    samples = {}
    if correct and trace:
        tracing.write_spans(spans, os.path.join(work, "trace.jsonl"))
        for metric in units:
            source = setup_layers if metric in SETUP_LAYERS else layers
            if metric != "trace.overhead":
                samples[metric] = [m[metric] for m in source]
        samples["trace.overhead"] = [
            statistics.median(t["wall_s"] for t in traced)
            / statistics.median(p["wall_s"] for p in passes) - 1.0]
    elif correct:
        samples["setup_s"] = setup_s
        for metric in ("wall_s", "ingest_s", "fit_s", "mean_score"):
            samples[metric] = [p[metric] for p in passes]
        samples["peak_rss_mb"] = [peak_rss_mb]
    samples = {k: samples[k] for k in units if k in samples}

    mode = "traced" if trace else "tracing off"
    _print_report(f"hostseq benchmark: workload {name}, seed {seed}, "
                  f"{len(passes)} timed passes, {mode}",
                  environment(seed), samples, units, state)
    return {"correct": correct, "attempted": state.attempted,
            "failed": state.failed,
            "metrics": {k: {"value": _summary(v)[1], "unit": units[k]}
                        for k, v in samples.items()}}


def run_all(args):
    """Each workload in its own process, so peak memory stays per
    workload; the merged result prefixes metrics with the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in _workloads():
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        merged["correct"] &= result["correct"] and done.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hostseq", "cli.py")):
        print(f"no hostseq sources under {src}; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    names = list(_workloads())
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in names:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    else:
        parser.error(f"--workload must be one of {names + ['all']}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
