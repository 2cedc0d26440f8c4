"""The package exposes only what the program itself uses.

Every module-level ``def`` or ``class`` in ``src/triplex`` must be referenced
from ``src/`` or ``perfbench/*.py`` somewhere other than its own body and
``__all__``; every method must be accessed there as ``.name``, unless it
overrides a method of a base class from outside the package (argparse calls
``error`` itself).  Tests do not count: a helper only a test calls belongs in
that test.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "triplex"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


class _References(ast.NodeVisitor):
    """Names and attribute names loaded outside the definition that binds them."""

    def __init__(self):
        self.names = set()
        self.attrs = set()
        self._enclosing = []

    def _visit_def(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def visit_Name(self, node):
        if node.id not in self._enclosing:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._enclosing:
            self.attrs.add(node.attr)
        self.generic_visit(node)

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)


def _references():
    refs = _References()
    for path in CALLERS:
        refs.visit(ast.parse(path.read_text(encoding="utf-8")))
    return refs


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, None, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield path.stem, node.name, item.name


def _overrides_external(module, cls, name):
    bases = getattr(importlib.import_module(f"triplex.{module}"), cls).__mro__[1:]
    return any(name in vars(base) for base in bases if not base.__module__.startswith("triplex"))


def test_every_definition_has_a_caller_outside_the_tests():
    refs = _references()
    unused = []
    for module, cls, name in _definitions():
        if cls is None:
            used = name in refs.names or name in refs.attrs
        else:
            used = name in refs.attrs or _overrides_external(module, cls, name)
        if not used:
            unused.append(f"{module}.{cls + '.' if cls else ''}{name}")
    assert not unused, f"defined but never used outside tests: {unused}"
