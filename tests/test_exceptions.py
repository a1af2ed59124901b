"""One exception type per error exit code: the package defines exactly
UsageError (exit 1) in estimators, DataError (exit 2) in util, which
every module that reads input imports, and TrainingDivergedError
(exit 3) in models, and no subclass of them."""

import ast
import builtins
import pathlib

import hostseq

PACKAGE = pathlib.Path(hostseq.__file__).parent


def class_bases(path):
    """(class name, last name part of each base) of each class in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name, [ast.unparse(base).rpartition(".")[2]
                              for base in node.bases]


def exception_classes():
    """Module file name of each class the package derives, directly or
    through its own classes, from a built-in exception."""
    classes = [(path.name, name, bases)
               for path in sorted(PACKAGE.glob("*.py"))
               for name, bases in class_bases(path)]
    found = {name: None for name in dir(builtins)
             if isinstance(getattr(builtins, name), type)
             and issubclass(getattr(builtins, name), BaseException)}
    grew = True
    while grew:
        grew = False
        for module, name, bases in classes:
            if name not in found and any(b in found for b in bases):
                found[name] = module
                grew = True
    return {name: module for name, module in found.items()
            if module is not None}


def test_one_exception_class_per_exit_code():
    assert exception_classes() == {"UsageError": "estimators.py",
                                   "DataError": "util.py",
                                   "TrainingDivergedError": "models.py"}
