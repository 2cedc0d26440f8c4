"""The package exposes only what the program itself uses.

Every module-level ``def`` or ``class`` in ``src/triplex`` must be referenced
from ``src/`` or ``perfbench/*.py`` somewhere other than its own body and
``__all__``; every method must be accessed there as ``.name``, unless it
overrides a method of a base class from outside the package (argparse calls
``error`` itself); every annotated class field (a dataclass field) must be
read there as ``.name``.  Tests do not count: a helper only a test calls
belongs in that test, and a result field only a test reads is not computed.
A name that a function binds itself (a parameter, an assignment target, a
nested definition) is that function's local, so loading it inside the
function is no reference to a module-level definition of the same name.

Methods and fields are matched by attribute name, not by type: a field is
taken as read when any object's attribute of that name is loaded.  So the
check cannot see an unread field that shares its name with a read attribute
of another object, such as a ``delta`` or ``tol`` field: the ``.delta`` and
``.tol`` of other objects are read.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "triplex"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _bound_names(func):
    """Names a function or lambda binds in its own scope, less those declared global or nonlocal."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    declared = set()
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)  # its body is a scope of its own
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif not isinstance(node, ast.Lambda):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                names.add(node.id)
            todo.extend(ast.iter_child_nodes(node))
    return names - declared


class _References(ast.NodeVisitor):
    """Names and attribute names loaded outside the definition that binds them.

    A name loaded inside a function that binds it locally is not counted.
    """

    def __init__(self):
        self.names = set()
        self.attrs = set()
        self._enclosing = []
        self._locals = []

    def _visit_scope(self, node, name, body):
        self._enclosing.append(name)
        self._locals.append(_bound_names(node) if hasattr(node, "args") else set())
        for child in body:
            self.visit(child)
        self._locals.pop()
        self._enclosing.pop()

    def visit_FunctionDef(self, node):
        # decorators, defaults and annotations are evaluated in the enclosing scope
        for child in node.decorator_list + [node.args] + ([node.returns] if node.returns else []):
            self.visit(child)
        self._visit_scope(node, node.name, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        for child in node.decorator_list + node.bases + node.keywords:
            self.visit(child)
        self._visit_scope(node, node.name, node.body)

    def visit_Lambda(self, node):
        self.visit(node.args)
        self._visit_scope(node, None, [node.body])

    def visit_Name(self, node):
        if node.id not in self._enclosing and not any(node.id in bound for bound in self._locals):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self._enclosing:
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
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield path.stem, node.name, item.target.id


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
