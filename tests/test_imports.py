"""The package's modules import each other at module level only, and without a cycle."""

import ast
from pathlib import Path

import rebalfreq

PACKAGE = Path(rebalfreq.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _package_modules(node):
    """The package modules an import node names, as file stems (``__init__`` for the package)."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names if a.name.split(".")[0] == "rebalfreq"]
        return [n.split(".")[1] if "." in n else "__init__" for n in names]
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "rebalfreq":
            return []
        parts = parts[1:]
    else:
        parts = node.module.split(".") if node.module else []
    if parts:
        return [parts[0]]
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def _is_type_checking(node):
    return isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"


def _run_time_imports(node):
    """The import nodes reached when ``node`` runs, leaving out ``if TYPE_CHECKING`` blocks;
    function bodies are followed as well."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node
    for child in ast.iter_child_nodes(node):
        if not _is_type_checking(child):
            yield from _run_time_imports(child)


def test_no_function_body_imports_a_package_module():
    found = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in _run_time_imports(fn):
                    if _package_modules(node):
                        found.append(f"{name}.py:{node.lineno}")
    assert not found, "imports of package modules inside functions: " + ", ".join(found)


def test_module_level_imports_form_no_cycle():
    edges = {name: {m for node in _run_time_imports(tree) for m in _package_modules(node)} - {name}
             for name, tree in MODULES.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name in done:
            return
        path.append(name)
        for other in sorted(edges[name]):
            visit(other)
        path.pop()
        done.add(name)

    for name in sorted(edges):
        visit(name)
