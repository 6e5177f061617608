"""The package's public surface and its dependencies."""

import ast
import sys
from pathlib import Path

import gladcf

SOURCE = Path(gladcf.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in gladcf.__all__ if not hasattr(gladcf, name)]
    assert missing == []
    assert len(set(gladcf.__all__)) == len(gladcf.__all__)


def _imports(tree):
    """``(module, enclosing function)`` for every import under ``tree``;
    a relative import is ``gladcf``."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.Import):
            found.extend((alias.name, function) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append(("gladcf" if node.level else node.module, function))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_numpy_and_the_standard_library_are_imported():
    # SciPy may be installed, but the one declared dependency is NumPy;
    # matplotlib is an optional extra, imported only to render a plot
    allowed = set(sys.stdlib_module_names) | {"numpy", "gladcf"}
    stray = []
    for path in sorted(SOURCE.glob("*.py")):
        for module, function in _imports(ast.parse(path.read_text("utf-8"))):
            top = module.split(".")[0]
            if top in allowed or (top == "matplotlib" and path.name == "cli.py"
                                  and function == "_render_histogram"):
                continue
            stray.append(f"{path.name}: {module} in {function or 'module'}")
    assert stray == []
