"""Outside-in span tracer for the benchmark.

The tracer wraps public functions of the ``hostseq`` modules from the
benchmark's own files; nothing under ``src/`` knows it exists. Each span
records its name, start, end and parent. Span stacks are per thread,
because ``nested_cv`` runs inner fits in a thread pool. Spans stay in
memory and are written out once, when the benchmark ends.

A function is patched in every ``hostseq`` module that holds it, so a
name imported with ``from .ensemble import fit_forest`` is traced as well
as ``ensemble.fit_forest`` itself.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# Functions whose self time is reported, as "<module>.<qualname>".
TRACED = {
    "synth": ("generate",),
    "pssm": ("render_psiblast_pssm", "parse_psiblast_pssm",
             "encode_record_features", "synth_pssm"),
    "seqio": ("prepare_corpus", "load_dataset"),
    "ngram": ("tokenize", "build_vocab", "encode_corpus"),
    "store": ("write_features_csv", "read_features_csv", "write_tokens_csv",
              "read_tokens_csv", "save_model", "load_model"),
    "ensemble": ("fit_tree", "fit_forest", "fit_rusboost",
                 "DecisionTree.leaf_distributions"),
    "models": ("train", "predict_proba", "Adam.step"),
    "evaluation": ("compute_report",),
}
AUTOGRAD_OPS = ("conv1d", "maxpool1d", "embedding", "matmul", "layer_norm",
                "softmax", "cross_entropy", "add", "relu")
CLI_COMMANDS = ("prepare", "encode", "train", "predict", "evaluate",
                "nested-cv")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, id_, name, parent):
        self.id = id_
        self.name = name
        self.parent = parent
        self.attrs = {}
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        """Open a span under the innermost open span of this thread, or
        under the thread's root span when none is open."""
        stack = self._stack()
        parent = stack[-1].id if stack else getattr(self._local, "root", None)
        span = Span(next(self._ids), name, parent)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def adopt(self, span: Span) -> None:
        """Make span the parent of this thread's outermost spans."""
        self._local.root = span.id

    def take(self) -> list:
        """Hand over the finished spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, annotate=None):
        """fn inside a span; annotate(span, args, result) adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if annotate is not None:
                annotate(span, args, result)
            return result
        return traced

    def replace(self, target, key, value) -> None:
        """Set target[key] or target.key, remembering the old value."""
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def patch(self, module, qualname: str, make) -> None:
        """Replace module.<qualname> by make(original) wherever a hostseq
        module holds it; a method is replaced on its class."""
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            self.replace(owner, attr, make(vars(owner)[attr]))
            return
        original = getattr(module, attr)
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "hostseq" and not name.startswith("hostseq."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, replacement)

    def restore(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)


def _annotate_fit_tree(span, args, tree):
    span.attrs["nodes"] = len(tree.feature)


def _annotate_rusboost(span, args, model):
    span.attrs["kept"] = len(model.trees)
    span.attrs["requested"] = model.config.n_estimators


def _annotate_train(span, args, result):
    span.attrs["epochs"] = len(result.epoch_losses)


_ANNOTATE = {
    "ensemble.fit_tree": _annotate_fit_tree,
    "ensemble.fit_rusboost": _annotate_rusboost,
    "models.train": _annotate_train,
}


def _traced_op(tracer, name, op):
    fwd, bwd = f"autograd.{name}.fwd", f"autograd.{name}.bwd"

    @functools.wraps(op)
    def traced(*args, **kwargs):
        span = tracer.begin(fwd)
        try:
            out = op(*args, **kwargs)
        finally:
            tracer.end(span)
        backward = out._backward
        if backward is not None:
            def timed_backward(g):
                span = tracer.begin(bwd)
                try:
                    backward(g)
                finally:
                    tracer.end(span)
            out._backward = timed_backward
        return out
    return traced


def _traced_nested_cv(tracer, nested_cv, derive_seed):
    """Times every fit, labelled inner or refit by its seed. Inner fits
    run on pool threads, whose spans are adopted by the nested_cv span."""
    signature = inspect.signature(nested_cv)

    @functools.wraps(nested_cv)
    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        plan = bound.arguments["plan"]
        factory = bound.arguments["model_factory"]
        refit_seeds = {derive_seed(plan.seed, "outer", f, "refit")
                       for f in range(plan.k_outer)}
        span = tracer.begin("evaluation.nested_cv")
        caller = threading.get_ident()

        def traced_factory(params, seed):
            if threading.get_ident() != caller:
                tracer.adopt(span)
            estimator = factory(params, seed)
            fit = estimator.fit
            name = ("evaluation.refit" if seed in refit_seeds
                    else "evaluation.inner_fit")

            def traced_fit(X, y):
                fit_span = tracer.begin(name)
                try:
                    return fit(X, y)
                finally:
                    tracer.end(fit_span)
            estimator.fit = traced_fit
            return estimator

        bound.arguments["model_factory"] = traced_factory
        try:
            return nested_cv(*bound.args, **bound.kwargs)
        finally:
            tracer.end(span)
    return traced


def install(tracer: Tracer) -> None:
    """Patch every traced hostseq function; undo with tracer.restore()."""
    from hostseq import autograd, cli, evaluation, util
    for module_name, names in TRACED.items():
        module = sys.modules[f"hostseq.{module_name}"]
        for qualname in names:
            full = f"{module_name}.{qualname}"
            tracer.patch(module, qualname,
                         lambda fn, full=full: tracer.wrap(
                             full, fn, _ANNOTATE.get(full)))
    for op in AUTOGRAD_OPS:
        tracer.patch(autograd, op,
                     lambda fn, op=op: _traced_op(tracer, op, fn))
    tracer.patch(evaluation, "nested_cv",
                 lambda fn: _traced_nested_cv(tracer, fn, util.derive_seed))
    for command in CLI_COMMANDS:
        tracer.replace(cli._COMMANDS, command,
                        tracer.wrap(f"cli.{command}",
                                    cli._COMMANDS[command]))


def _self_times(spans) -> dict:
    """Per span id: duration minus the union of its children's spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    self_time = _self_times(spans)
    total = defaultdict(float)
    wall = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(int))
    names = {s.id: s.name for s in spans}
    boost_trees = 0
    for s in spans:
        total[s.name] += self_time[s.id]
        wall[s.name] += s.duration
        calls[s.name] += 1
        for key, value in s.attrs.items():
            attrs[s.name][key] += value
        if s.name == "ensemble.fit_tree" \
                and names.get(s.parent) == "ensemble.fit_rusboost":
            boost_trees += 1

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for module_name, qualnames in TRACED.items():
        for qualname in qualnames:
            m[f"{module_name}.{qualname}.self_s"] = \
                total[f"{module_name}.{qualname}"]
    for op in AUTOGRAD_OPS:
        m[f"autograd.{op}.fwd_s"] = total[f"autograd.{op}.fwd"]
        m[f"autograd.{op}.bwd_s"] = total[f"autograd.{op}.bwd"]
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = total[f"cli.{command}"]

    m["pssm.parse_psiblast_pssm.calls"] = calls["pssm.parse_psiblast_pssm"]
    nodes = attrs["ensemble.fit_tree"]["nodes"]
    m["ensemble.fit_tree.calls"] = calls["ensemble.fit_tree"]
    m["ensemble.fit_tree.nodes"] = nodes
    m["ensemble.fit_tree.s_per_node"] = ratio(total["ensemble.fit_tree"],
                                              nodes)
    kept = attrs["ensemble.fit_rusboost"]["kept"]
    m["ensemble.fit_rusboost.rounds_kept_ratio"] = ratio(
        kept, attrs["ensemble.fit_rusboost"]["requested"])
    m["ensemble.fit_rusboost.trees_per_round"] = ratio(boost_trees, kept)
    m["models.epoch_s"] = ratio(wall["models.train"],
                                attrs["models.train"]["epochs"])
    m["evaluation.nested_cv.self_s"] = total["evaluation.nested_cv"]
    m["evaluation.fits"] = (calls["evaluation.inner_fit"]
                            + calls["evaluation.refit"])
    m["evaluation.inner_fit_s"] = wall["evaluation.inner_fit"]
    m["evaluation.refit_s"] = wall["evaluation.refit"]
    m["evaluation.overlap"] = ratio(
        wall["evaluation.inner_fit"] + wall["evaluation.refit"],
        wall["evaluation.nested_cv"])
    return m


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.id, "name": s.name,
                                 "parent": s.parent, "start": s.start,
                                 "end": s.end, **s.attrs}) + "\n")
