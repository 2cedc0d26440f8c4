"""The package exposes only what the program itself uses.

The callers are ``src/`` and ``perfbench/*.py``.  Tests do not count: a
helper only a test calls belongs in that test, a result field only a test
reads is not computed, and an option only a test sets is a constant.

Definitions.  Every module-level ``def`` or ``class`` in ``src/triplex`` must
be referenced by a caller somewhere other than its own body and ``__all__``;
every method must be accessed there as ``.name``, unless it overrides a
method of a base class from outside the package (argparse calls ``error``
itself); every annotated class field (a dataclass field) must be read there
as ``.name``.  A name that a function binds itself (a parameter, an
assignment target, a nested definition) is that function's local, so loading
it inside the function is no reference to a module-level definition of the
same name.

Owners.  A load ``x.name`` counts for class C only when ``x`` resolves to C
or a subclass of C: ``self`` (the first parameter) in C's methods, or a name
that its function binds only from ``C(...)`` or only from calls of a function
whose returns all build C, directly or through a local name bound from
``C(...)``.  Any other receiver (a parameter, an attribute, a subscript, a
call, a module-level name) counts for every class that defines ``name``, so
a field that shares its name with an attribute read through such a receiver
still goes unseen.

Parameters.  Every defaulted parameter of every ``def`` in ``src/triplex``,
nested ones included, must be set by some call in a caller: by keyword, by
position (after the receiver for a method, and for a class called to
construct it), through ``*args``, or through ``**kwargs``, whose keys are
read from a dict display bound to the name (an unknown mapping sets every
default of the callee).  ``functools.partial(f, ...)`` is a call of ``f``.
Calls are matched to definitions by the callee's name.  A call through a
callable its function binds locally (a table entry or a callable argument,
such as ``fn(quick=quick, seed=seed)``) sets by keyword the parameters of
that name of every ``def``.  ``EXEMPT`` lists the two parameters no caller
sets, with the reason each stays.
"""

import ast
import importlib
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "triplex"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

EXEMPT = {
    "A_entries.one": "tests build their dense reference generator A<D> from the one "
                     "definition of A, with the identity matrix as one",
    "Layout.__call__.V": "layouts are called through instances such as self.R(t, V), "
                         "whose owner the check does not resolve",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _parse(paths):
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _callee_name(func):
    """The name a call or base class is matched by: f for f(...) and x.f(...)."""
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _walk_scope(node):
    """Nodes of a scope's own body: nested definitions are yielded but not entered."""
    todo = list(node.body) if isinstance(node.body, list) else [node.body]
    while todo:
        child = todo.pop()
        yield child
        if not isinstance(child, _SCOPES):
            todo.extend(ast.iter_child_nodes(child))


def _scope(node, owner=None):
    """What a function or lambda binds to each of its own names.

    Each name maps to its bindings: the value of a plain ``name = value``
    assignment, the class name owner for a method's first parameter, or None
    for any other binding.  Names declared global or nonlocal are left out.
    """
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    bindings = {}
    for i, name in enumerate(params):
        bindings.setdefault(name, []).append(owner if i == 0 else None)
    plain, declared = {}, set()
    for child in _walk_scope(node):
        if isinstance(child, (ast.Assign, ast.AnnAssign)) and child.value is not None:
            targets = child.targets if isinstance(child, ast.Assign) else [child.target]
            plain.update((id(t), child.value) for t in targets if isinstance(t, ast.Name))
    for child in _walk_scope(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bindings.setdefault(child.name, []).append(None)
        elif isinstance(child, (ast.Global, ast.Nonlocal)):
            declared.update(child.names)
        elif isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load):
            bindings.setdefault(child.id, []).append(plain.get(id(child)))
    return {name: values for name, values in bindings.items() if name not in declared}


def _built_class(value, classes, returns):
    """The class an expression builds: C for C(...), or f's class for f(...)."""
    if isinstance(value, str):
        return value
    if isinstance(value, ast.Call):
        name = _callee_name(value.func)
        return name if name in classes else returns.get(name)
    return None


def _single(kinds):
    kinds = set(kinds)
    return kinds.pop() if len(kinds) == 1 else None


def _classes(trees):
    """Class name -> the names of the class and of all its bases defined in the trees."""
    bases = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_callee_name(b) for b in node.bases]

    def lineage(name):
        return {name}.union(*(lineage(b) for b in bases[name] if b in bases))

    return {name: lineage(name) for name in bases}


def _returns(trees, classes):
    """Function name -> the class that every return of every def of that name builds.

    A return builds C when its value is ``C(...)`` or a local name the
    function binds only from ``C(...)``.
    """
    built = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bindings = _scope(node)
                kinds = built.setdefault(node.name, set())
                values = [c.value for c in _walk_scope(node) if isinstance(c, ast.Return)]
                for value in values or [None]:
                    if isinstance(value, ast.Name):
                        kinds.add(_single(_built_class(v, classes, {})
                                          for v in bindings.get(value.id, [None])))
                    else:
                        kinds.add(_built_class(value, classes, {}))
    return {name: _single(kinds) for name, kinds in built.items()
            if _single(kinds) is not None}


class _References(ast.NodeVisitor):
    """Names, attribute loads and calls outside the definition that binds them.

    names holds the names loaded; a name loaded inside a function that binds
    it locally is not counted.  attrs maps each attribute name loaded to the
    classes its receivers resolve to, with None for a receiver that does not
    resolve.  calls holds one (callee, positional, keywords) record per call:
    callee is the name the call is matched by, or None for a call through a
    local callable; positional is the number of positional arguments
    (unbounded after ``*args``); keywords is the set of keyword names, or None
    when a ``**`` mapping of unknown keys may set any of them.
    """

    def __init__(self, classes, returns):
        self.classes = classes
        self.returns = returns
        self.names = set()
        self.attrs = {}
        self.calls = []
        self._enclosing = []
        self._scopes = []
        self._owner = None

    def _visit_scope(self, name, body, bindings, owner=None):
        saved = self._owner
        self._enclosing.append(name)
        self._scopes.append(bindings)
        self._owner = owner
        for child in body:
            self.visit(child)
        self._owner = saved
        self._scopes.pop()
        self._enclosing.pop()

    def _bindings(self, name):
        """The bindings of a name in the innermost function that binds it, or None."""
        for bindings in reversed(self._scopes):
            if name in bindings:
                return bindings[name]
        return None

    def visit_FunctionDef(self, node):
        # decorators, defaults and annotations are evaluated in the enclosing scope
        for child in node.decorator_list + [node.args] + ([node.returns] if node.returns else []):
            self.visit(child)
        static = any(_callee_name(d) == "staticmethod" for d in node.decorator_list)
        self._visit_scope(node.name, node.body, _scope(node, None if static else self._owner))

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        for child in node.decorator_list + node.bases + node.keywords:
            self.visit(child)
        self._visit_scope(node.name, node.body, {}, owner=node.name)

    def visit_Lambda(self, node):
        self.visit(node.args)
        self._visit_scope(None, [node.body], _scope(node))

    def visit_Name(self, node):
        if node.id not in self._enclosing and self._bindings(node.id) is None:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self._enclosing:
            owner = None
            if isinstance(node.value, ast.Name):
                bindings = self._bindings(node.value.id) or [None]
                owner = _single(_built_class(v, self.classes, self.returns) for v in bindings)
            self.attrs.setdefault(node.attr, set()).add(owner)
        self.generic_visit(node)

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def _mapping_keys(self, value, follow=True):
        """Keys a ``**`` argument may hold, or None when unknown."""
        if isinstance(value, ast.Dict) and all(isinstance(k, ast.Constant) for k in value.keys):
            return {k.value for k in value.keys}
        if isinstance(value, ast.IfExp):
            keys = [self._mapping_keys(v, follow) for v in (value.body, value.orelse)]
            return None if None in keys else set().union(*keys)
        if isinstance(value, ast.Name) and follow:
            keys = [self._mapping_keys(v, False) for v in self._bindings(value.id) or [None]]
            return None if None in keys else set().union(*keys)
        return None

    def visit_Call(self, node):
        func, args = node.func, node.args
        if _callee_name(func) == "partial" and args:
            func, args = args[0], args[1:]
        if isinstance(func, ast.Name) and self._bindings(func.id) is not None:
            callee = None  # a local callable: a table entry or a callable argument
        else:
            callee = _callee_name(func)
        n_pos = float("inf") if any(isinstance(a, ast.Starred) for a in args) else len(args)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        for k in node.keywords:
            if k.arg is None and keywords is not None:
                keys = self._mapping_keys(k.value)
                keywords = None if keys is None else keywords | keys
        self.calls.append((callee, n_pos, keywords))
        self.generic_visit(node)


def _references(callers):
    classes = _classes(callers)
    refs = _References(classes, _returns(callers, classes))
    for _, tree in callers:
        refs.visit(tree)
    return refs


def _definitions(package):
    for module, tree in package:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, None, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield module, node.name, item.name
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield module, node.name, item.target.id


def _overrides_external(module, cls, name):
    bases = getattr(importlib.import_module(f"triplex.{module}"), cls).__mro__[1:]
    return any(name in vars(base) for base in bases if not base.__module__.startswith("triplex"))


def _unused(package, callers, overrides=_overrides_external):
    """module.name or module.Class.name of every definition no caller uses."""
    refs = _references(callers)
    unused = []
    for module, cls, name in _definitions(package):
        if cls is None:
            used = name in refs.names or name in refs.attrs
        else:
            owners = refs.attrs.get(name, set())
            used = (None in owners or any(cls in refs.classes[o] for o in owners - {None})
                    or overrides(module, cls, name))
        if not used:
            unused.append(f"{module}.{cls + '.' if cls else ''}{name}")
    return unused


def _defaulted(package):
    """(qualified name, callee names, parameter, position) per default.

    position is the index among the arguments a call passes by position (after
    the receiver, for a method), or None for a keyword-only parameter.
    """
    for _, tree in package:
        owners = {id(item): node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners.get(id(node))
            static = any(_callee_name(d) == "staticmethod" for d in node.decorator_list)
            offset = 1 if owner and not static else 0
            names = {node.name} | ({owner} if node.name == "__init__" else set())
            qual = f"{owner}.{node.name}" if owner else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            for i in range(len(positional) - len(args.defaults), len(positional)):
                yield qual, names, positional[i].arg, i - offset
            for a, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qual, names, a.arg, None


def _sets(call, names, param, position):
    """Whether a call record sets a parameter of a def called by one of names."""
    callee, n_pos, keywords = call
    if callee is None:  # through a local callable: by keyword only
        return keywords is not None and param in keywords
    return callee in names and (keywords is None or param in keywords
                                or (position is not None and position < n_pos))


def _unset_defaults(package, callers):
    """Class.function.parameter or function.parameter of every default no call sets."""
    calls = _references(callers).calls
    return [f"{qual}.{param}" for qual, names, param, position in _defaulted(package)
            if not any(_sets(call, names, param, position) for call in calls)]


def test_every_definition_has_a_caller_outside_the_tests():
    unused = _unused(_parse(sorted(PACKAGE.glob("*.py"))), _parse(CALLERS))
    assert not unused, f"defined but never used outside tests: {unused}"


def test_every_default_is_set_by_a_caller_outside_the_tests():
    unset = set(_unset_defaults(_parse(sorted(PACKAGE.glob("*.py"))), _parse(CALLERS)))
    assert unset - set(EXEMPT) == set(), f"defaults no caller sets (make them constants): {unset}"
    # an exemption that a caller now sets is stale
    assert set(EXEMPT) <= unset, f"exempt but set by a caller: {set(EXEMPT) - unset}"


def _check(package_source, caller_source):
    """(unset defaults, unused definitions) of an inline package and its caller."""
    package = [("pkg", ast.parse(textwrap.dedent(package_source)))]
    callers = package + [("caller", ast.parse(textwrap.dedent(caller_source)))]
    return (_unset_defaults(package, callers),
            _unused(package, callers, overrides=lambda *_: False))


def test_the_check_flags_a_default_no_call_sets():
    unset, _ = _check("""
        def f(x, y=1, *, z=2):
            return x + y + z
        """, "f(0, z=3)\n")
    assert unset == ["f.y"]


def test_the_check_sees_defaults_set_by_keyword_position_mapping_and_table():
    package = """
        import functools

        def by_keyword(a, b=1):
            return a + b

        def by_position(a, b=1):
            return a + b

        def by_mapping(a, b=1, c=2):
            return a + b + c

        def by_partial(a, b=1):
            return a + b

        def criterion(quick=False, seed=0):
            return quick, seed

        TABLE = (criterion,)

        class C:
            def __init__(self, a=1):
                self.a = a

            def m(self, a=1):
                return a
        """
    caller = """
        def main(cond):
            by_keyword(0, b=2)
            by_position(0, 2)
            opts = {"b": 2} if cond else {"c": 3}
            by_mapping(0, **opts)
            functools.partial(by_partial, 0, 2)()
            for fn in TABLE:
                fn(quick=True, seed=1)
            C(2).m(3)
        """
    unset, _ = _check(package, caller)
    assert unset == []
    # a mapping of unknown keys sets every default; without it, c is unset
    unset, _ = _check(package, caller.replace('{"c": 3}', "{}"))
    assert unset == ["by_mapping.c"]


def test_the_check_resolves_the_owner_of_a_field():
    package = """
        from dataclasses import dataclass

        @dataclass
        class Step:
            elapsed: float

        @dataclass
        class Report:
            steps: tuple
            elapsed: float

        def run():
            steps = (Step(1.0),)
            report = Report(steps, 2.0)
            return report
        """
    # elapsed is read only through run's Report: Step.elapsed is never read
    _, unused = _check(package, """
        def show():
            rep = run()
            return rep.steps, rep.elapsed
        """)
    assert unused == ["pkg.Step.elapsed"]
    # an unresolved receiver (a parameter) reads elapsed on every class
    _, unused = _check(package, """
        def show(rep):
            return run().steps, rep.elapsed
        """)
    assert unused == []
