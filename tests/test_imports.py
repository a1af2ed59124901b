"""The only runtime dependency is numpy: every absolute import of the
package names a standard-library module or numpy."""

import ast
import pathlib
import sys

import hostseq

PACKAGE = pathlib.Path(hostseq.__file__).parent


def absolute_imports(path):
    """(line, top-level module) of each absolute import in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    outside = [f"{path.name}:{line} imports {module}"
               for path in sources for line, module in absolute_imports(path)
               if module != "numpy" and module not in sys.stdlib_module_names]
    assert not outside, outside
