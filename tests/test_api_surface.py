"""The library is what the CLI and the benchmark run.

A reachability scan over the package's syntax trees: the roots are
``cli.main``, ``cli.entry``, every name that module-level code or a
module-level dunder function (``__getattr__``, which the import system
calls) refers to, and every top-level name whose name appears in
``perfbench/*.py`` as an identifier or an attribute, or as a string in
``perfbench/tracer.py``, which wraps names given as strings.  An edge runs
from a top-level name to every module-level name its code refers to, in
its own module or through an import.  A name bound locally (a parameter,
an assignment, a comprehension variable) hides the module-level name it
shadows.  Import statements alone are no reference.  Dunder names are
protocol, not API, and are not checked.

Any other top-level name is reached by tests only: an oracle belongs under
``tests/``, and the rest goes.  The package namespace is its modules:
``isograd/__init__`` imports nothing from them, so every name is read as
``isograd.<module>.<name>``.
"""

import ast
from pathlib import Path

import isograd

PACKAGE = Path(isograd.__file__).resolve().parent
BENCHMARK = PACKAGE.parents[1] / "perfbench"
#: The one benchmark file whose strings name package attributes.
TRACER = BENCHMARK / "tracer.py"

#: (module, name) -> why a name no root reaches stays in the package.
ALLOWED: dict[tuple[str, str], str] = {}


def _scope_bindings(node) -> tuple[set[str], dict[str, tuple]]:
    """Names a function, lambda or comprehension binds itself, and the
    imports among them (local name -> resolved target)."""
    names, imports = set(), {}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        names.update(arg.arg for arg in (*a.posonlyargs, *a.args,
                                         *a.kwonlyargs, a.vararg, a.kwarg)
                     if arg is not None)
        body = node.body if isinstance(node.body, list) else [node.body]
    else:   # a comprehension binds its targets; its generators are its body
        body = [gen.target for gen in node.generators]
    stack = list(body)
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)):
            names.add(n.name)
            continue
        elif isinstance(n, (ast.Lambda, ast.ListComp, ast.SetComp,
                            ast.DictComp, ast.GeneratorExp)):
            continue
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            for alias, target in _import_targets(n):
                names.add(alias)
                if target is not None:
                    imports[alias] = target
        stack.extend(ast.iter_child_nodes(n))
    return names, imports


def _import_targets(node):
    """(bound name, target) per alias; the target is ("module", m) for a
    package module, (m, name) for a name in one, None for anything else."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0], None
        return
    inside = node.level == 1 or (node.level == 0 and node.module
                                 and node.module.split(".")[0] == "isograd")
    module = node.module or ""
    if node.level == 0:
        module = module.partition(".")[2]
    for alias in node.names:
        bound = alias.asname or alias.name
        if not inside:
            yield bound, None
        elif module:
            yield bound, (module, alias.name)
        else:
            yield bound, ("module", alias.name)


class _References(ast.NodeVisitor):
    """Module-level names one top-level statement refers to."""

    def __init__(self, module: str, top: set[str], imports: dict):
        self.module, self.top, self.imports = module, top, imports
        self.scopes: list[tuple[set[str], dict]] = []
        self.found: set[tuple[str, str]] = set()

    def _resolve(self, name: str):
        for names, imports in reversed(self.scopes):
            if name in names:
                return imports.get(name)
        if name in self.imports:
            return self.imports[name]
        if name in self.top:
            return (self.module, name)
        return None

    def _add(self, target):
        if target is not None and target[0] != "module":
            self.found.add(target)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._add(self._resolve(node.id))

    def visit_Attribute(self, node):
        base = (self._resolve(node.value.id)
                if isinstance(node.value, ast.Name) else None)
        if base is not None and base[0] == "module":
            self._add((base[1], node.attr))
        else:
            self.visit(node.value)

    def _scoped(self, node, inner):
        self.scopes.append(_scope_bindings(node))
        for child in inner:
            self.visit(child)
        self.scopes.pop()

    def visit_FunctionDef(self, node):
        # decorators, defaults and annotations belong to the enclosing scope
        for child in (*node.decorator_list, *node.args.defaults,
                      *[d for d in node.args.kw_defaults if d is not None]):
            self.visit(child)
        for arg in (*node.args.posonlyargs, *node.args.args,
                    *node.args.kwonlyargs, node.args.vararg,
                    node.args.kwarg):
            if arg is not None and arg.annotation is not None:
                self.visit(arg.annotation)
        if node.returns is not None:
            self.visit(node.returns)
        self._scoped(node, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        for child in (*node.args.defaults,
                      *[d for d in node.args.kw_defaults if d is not None]):
            self.visit(child)
        self._scoped(node, [node.body])

    def _comprehension(self, node):
        self.visit(node.generators[0].iter)   # evaluated outside
        inner = [node.generators[0].target, *node.generators[0].ifs]
        for gen in node.generators[1:]:
            inner.extend((gen.iter, gen.target, *gen.ifs))
        inner.extend((node.key, node.value) if isinstance(node, ast.DictComp)
                     else (node.elt,))
        self._scoped(node, inner)

    visit_ListComp = visit_SetComp = visit_DictComp = _comprehension
    visit_GeneratorExp = _comprehension


def _top_level_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _package_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _graph(trees: dict[str, ast.Module]):
    """(every checked top-level name, edges from each, the roots)."""
    defined, edges, roots = set(), {}, set()
    for module, tree in trees.items():
        top, imports = set(), {}
        for stmt in tree.body:
            top.update(_top_level_names(stmt))
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                imports.update((bound, target) for bound, target
                               in _import_targets(stmt) if target is not None)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            refs = _References(module, top, imports)
            refs.visit(stmt)
            names = _top_level_names(stmt)
            # module-level code runs on import, and the import system calls
            # a module's dunder functions
            if not names or (isinstance(stmt, ast.FunctionDef)
                             and _dunder(stmt.name)):
                roots |= refs.found
            for name in names:
                edges.setdefault((module, name), set()).update(refs.found)
        defined |= {(module, name) for name in top if not _dunder(name)}
    return defined, edges, roots


def _benchmark_names() -> set[str]:
    names = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            elif (path == TRACER and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and node.value.isidentifier()):
                names.add(node.value)
    return names


def _unreached() -> set[tuple[str, str]]:
    defined, edges, roots = _graph(_package_trees())
    bench = _benchmark_names()
    todo = [("cli", "main"), ("cli", "entry"), *roots,
            *[key for key in defined if key[1] in bench]]
    seen = set()
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(edges.get(key, ()))
    return defined - seen


def test_every_top_level_name_is_reached_by_the_cli_or_the_benchmark():
    unreached = _unreached()
    extra = sorted(f"{m}.{n}" for m, n in unreached - ALLOWED.keys())
    assert not extra, ("reached by tests only; move an oracle under tests/ "
                       "or delete it: " + ", ".join(extra))
    # an allowed name that a root now reaches no longer needs its entry
    assert [key for key in ALLOWED if key not in unreached] == []


def test_a_local_variable_does_not_reach_the_name_it_shadows():
    tree = ast.parse("def f(z):\n    moments = z\n    return moments\n"
                     "def moments():\n    pass\n")
    refs = _References("m", {"f", "moments"}, {})
    refs.visit(tree.body[0])
    assert refs.found == set()
    refs.visit(ast.parse("def g():\n    return moments()\n").body[0])
    assert refs.found == {("m", "moments")}


def test_a_dunder_function_reaches_what_it_refers_to():
    tree = ast.parse("_MODULES = ('core',)\n"
                     "def __getattr__(name):\n    return _MODULES\n"
                     "def _unused():\n    pass\n")
    defined, _, roots = _graph({"m": tree})
    assert defined == {("m", "_MODULES"), ("m", "_unused")}
    assert roots == {("m", "_MODULES")}


def test_the_package_namespace_imports_nothing_from_its_modules():
    # a re-export would give a name a second path besides
    # isograd.<module>.<name>, and load its module with the package
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    inside = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)
              and any(target is not None
                      for _, target in _import_targets(node))]
    assert inside == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that nothing in its scope reads: the module
    for a top-level import, the enclosing function (nested ones included)
    for an import inside one.  ``__future__`` imports bind no name."""
    unused = []

    def check(scope: ast.AST) -> None:
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name)}
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check(node)
                continue
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused.extend(name for alias in node.names
                              if (name := alias.asname
                                  or alias.name.split(".")[0]) not in read)
            todo.extend(ast.iter_child_nodes(node))
    check(tree)
    return sorted(unused)


def test_every_import_is_used():
    # no linter runs in CI: a leftover import (say numpy in cli) would
    # pass every other test and still load the module it names
    unused = {module: names for module, tree in _package_trees().items()
              if (names := _unused_imports(tree))}
    assert unused == {}


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\nimport os.path\nimport math\n"
                     "from .core import gradient, MODES\n"
                     "def f(x: MODES):\n    from scipy import optimize\n"
                     "    return math.pi + optimize.x + os.sep\n")
    assert _unused_imports(tree) == ["gradient", "np"]


def test_an_import_is_used_only_by_its_own_function():
    # one handler imports dice without reading it; the other handler's
    # read of the name does not reach the first one's import
    tree = ast.parse("def _cmd_game(ns):\n"
                     "    from . import game, dice\n"
                     "    return game.solve(ns)\n"
                     "def _cmd_dice(ns):\n"
                     "    from . import dice\n"
                     "    return dice.maximize(ns)\n")
    assert _unused_imports(tree) == ["dice"]
