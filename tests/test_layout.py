"""Artifact files have one owner. store names every artifact file and
holds every format but seqio's dataset.json and FASTA text; util holds
the atomic writes and the JSON writer they go through. No other module
opens a file to write or append, imports an atomic writer or spells an
artifact file name, and evaluation and ngram do no JSON at all. util
alone defines DataError, so the estimator modules need nothing of
seqio, the FASTA and corpus module."""

import ast
import pathlib

import hostseq
from hostseq import store

PACKAGE = pathlib.Path(hostseq.__file__).parent
WRITERS = {"store.py", "seqio.py", "util.py"}
ATOMIC = {"atomic_write_text", "atomic_write_bytes"}


def sources():
    """(file name, syntax tree) of each module of the package."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path))) for path in paths]


def imported(tree):
    """(line, name) of each module an import names and each name it
    binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module:
                yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, alias.name


def writes(tree):
    """Line of each call that opens a file to write or append (an open
    or fdopen whose mode is not read-only text or bytes, or that cannot
    be told), or that writes a path's text or bytes."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        if name in ("write_text", "write_bytes"):
            yield node.lineno
        elif name in ("open", "fdopen"):
            mode = [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode = (node.args[1:2] or mode or [ast.Constant("r")])[0]
            if not (isinstance(mode, ast.Constant)
                    and mode.value in ("r", "rb", "rt")):
                yield node.lineno


def test_only_store_seqio_and_util_write_files():
    found = [f"{name}:{line} writes a file" for name, tree in sources()
             if name not in WRITERS for line in writes(tree)]
    found += [f"{name}:{line} imports {what}" for name, tree in sources()
              if name not in WRITERS for line, what in imported(tree)
              if what in ATOMIC]
    assert not found, found


def test_evaluation_and_ngram_do_no_json():
    found = [f"{name}:{line} imports {what}" for name, tree in sources()
             if name in ("evaluation.py", "ngram.py")
             for line, what in imported(tree)
             if what in ATOMIC | {"json", "write_json"}]
    assert not found, found


def test_data_error_is_defined_in_util_alone():
    found = [f"{name}:{line} imports {what}" for name, tree in sources()
             if name in ("ensemble.py", "models.py", "evaluation.py")
             for line, what in imported(tree) if what == "seqio"]
    assert not found, found
    defines = [name for name, tree in sources() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "DataError"]
    assert defines == ["util.py"]


def test_each_artifact_file_name_is_defined_once_in_store():
    names = {value for key, value in vars(store).items()
             if key.endswith(("_FILE", "_DIR"))}
    assert {"metrics.json", "manifest.json", "run.log", "pssms/"} <= names
    counts = {}
    for module, tree in sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in names:
                counts.setdefault(node.value, []).append(module)
    assert counts == {name: ["store.py"] for name in names}
