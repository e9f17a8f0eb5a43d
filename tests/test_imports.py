"""The package's modules import each other at module level only, and without a cycle; the
cross-references of their docstrings name objects that exist."""

import ast
import importlib
import re
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


# a Sphinx cross-reference, ``:func:`~rebalfreq.simulate._trapezoid``` and the like
_REFERENCE = re.compile(r":(func|class|meth|mod|attr):`~?([\w.]+)`")


def _lookup(obj, dotted):
    for name in filter(None, dotted.split(".")):
        obj = getattr(obj, name)
    return obj


def _resolves(role, target, module, cls):
    """Whether ``target`` names an object: by import if absolute, else in ``module``, then in
    the package, then, for ``:meth:`` and ``:attr:``, in the class ``cls`` around it."""
    if target.split(".")[0] == "rebalfreq":
        parts = target.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                base = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            try:
                _lookup(base, ".".join(parts[cut:]))
                return True
            except AttributeError:
                return False
        return False
    scopes = [module, rebalfreq] + ([cls] if role in ("meth", "attr") and cls else [])
    for scope in scopes:
        try:
            _lookup(scope, target)
            return True
        except AttributeError:
            pass
    return False


def test_docstring_cross_references_resolve():
    checked, missing = 0, []
    for name, tree in MODULES.items():
        module = importlib.import_module("rebalfreq" if name == "__init__" else f"rebalfreq.{name}")
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for lineno, line in enumerate((PACKAGE / f"{name}.py").read_text().splitlines(), 1):
            for role, target in _REFERENCE.findall(line):
                around = [c for c in classes if c.lineno <= lineno <= c.end_lineno]
                cls = getattr(module, around[-1].name) if around else None
                checked += 1
                if not _resolves(role, target, module, cls):
                    missing.append(f"{name}.py:{lineno} :{role}:`{target}`")
    assert checked, "no cross-references found"
    assert not missing, "cross-references to nothing: " + ", ".join(missing)
