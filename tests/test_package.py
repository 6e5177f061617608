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


def _unread_parameters(tree):
    """``function(parameter)`` for each parameter that its function, nested
    functions included, never reads; ``self``, ``cls`` and ``_``-prefixed
    names are exempt."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs, args.vararg, args.kwarg)
                 if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for statement in body for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread.extend(f"{getattr(node, 'name', 'lambda')}({name})"
                      for name in names
                      if name not in read and name not in ("self", "cls")
                      and not name.startswith("_"))
    return unread


def test_every_parameter_is_read():
    # a parameter left behind when its use goes (a mask no readout needs
    # any more) would still be threaded through every caller
    unread = [f"{path.name}: {where}" for path in sorted(SOURCE.glob("*.py"))
              for where in _unread_parameters(
                  ast.parse(path.read_text("utf-8")))]
    assert unread == []


def _unread_imports(tree):
    """Each name an import binds in ``tree`` that the module never reads;
    ``from __future__`` imports are exempt."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_imported_name_is_read():
    # an import left behind when its last use goes (a helper a module no
    # longer calls) still reads as a dependency; __init__ only re-exports
    unread = [f"{path.name}: {name}" for path in sorted(SOURCE.glob("*.py"))
              if path.name != "__init__.py"
              for name in _unread_imports(ast.parse(path.read_text("utf-8")))]
    assert unread == []
