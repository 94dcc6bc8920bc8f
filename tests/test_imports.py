"""Every imported name is used, and every top-level name of the package
is used somewhere.

No linter ships with the project, so this walks the syntax tree of each
module under src/tropcount, tests and tropbench (read, never imported): a
name bound by an import must appear somewhere else in the module, as a
name, as the root of an attribute chain, or in the module's __all__ (a
list or tuple of strings; a computed __all__ uses its names as names).
A top-level def, class or assigned name of src/tropcount, and a method or
property of one of its classes (dunders aside), must appear as a word
outside its own definition in a file of src/tropcount or tropbench: code
that only the tests call is dead.
A defaulted parameter of a function of src/tropcount must be passed, by
keyword or by position, by some call in those files to a function of
that name; a call with *args or **kwargs passes every parameter.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/tropcount/*.py"), *ROOT.glob("tests/*.py"),
                *ROOT.glob("tropbench/*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _top_level_names(tree):
    """(name, first line, last line) of each top-level def, class and
    assigned name, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def _methods(node, prefix: str = ""):
    """(qualified name, first line, last line) of each method and property
    of each class under node (nested classes and classes in functions
    included), dunders aside."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            for item in child.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield (f"{prefix}{child.name}.{item.name}", item.lineno,
                           item.end_lineno)
            yield from _methods(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _methods(child, f"{prefix}{child.name}.")
        else:
            yield from _methods(child, prefix)


def dead_names(sources: dict[str, str], exempt=()) -> list[str]:
    """The top-level names, methods and properties of the package's
    modules (the files of sources, {file: source}, under src/), by
    qualified name outside exempt, that no file of sources under src/ or
    tropbench/ names as a word outside the name's own definition."""
    users = {path: text for path, text in sources.items()
             if path.startswith(("src/", "tropbench/"))}
    dead = []
    for path, source in users.items():
        if not path.startswith("src/"):
            continue
        lines = source.splitlines()
        rest = [text for other, text in users.items() if other != path]
        tree = ast.parse(source)
        for qualname, first, last in [*_top_level_names(tree),
                                      *_methods(tree)]:
            if qualname in exempt:
                continue
            name = qualname.rpartition(".")[2]
            word = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
            own = "\n".join(lines[:first - 1] + lines[last:])
            if not any(map(word.search, [own, *rest])):
                dead.append(f"{path}: {qualname} (line {first})")
    return dead


def _functions(node, prefix: str = "", in_class: bool = False):
    """(qualified name, def node, bound) of each function under node,
    nested ones included; bound is 1 for a method whose first parameter
    a call through an instance or class binds (staticmethods aside)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.", True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            yield f"{prefix}{child.name}", child, int(in_class and not static)
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix, in_class)


def _passes(call, index, name: str) -> bool:
    """Whether call passes the parameter name, at position index (None
    for a keyword-only one), or passes *args or **kwargs."""
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(k.arg in (None, name) for k in call.keywords)
            or (index is not None and len(call.args) > index))


def dead_parameters(package: dict[str, str], others: dict[str, str],
                    exempt=()) -> list[str]:
    """The defaulted parameters of the functions of the package's modules
    ({file: source}), by qualified name outside exempt, that no call in
    package or others to a function of that name passes."""
    calls = {}
    for source in {**others, **package}.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                calls.setdefault(name, []).append(node)
    dead = []
    for path, source in package.items():
        for qualname, func, bound in _functions(ast.parse(source)):
            if qualname in exempt:
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i - bound, p) for i, p in enumerate(positional)
                         if i >= first]
            defaulted += [(None, p) for p, default in
                          zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            for index, param in defaulted:
                if not any(_passes(call, index, param.arg)
                           for call in calls.get(func.name, ())):
                    dead.append(f"{path}: {qualname}({param.arg}) "
                                f"(line {func.lineno})")
    return dead


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == \
        ["os (line 1)"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
    assert unused_imports("import os\n__all__ = sorted(NAMES)\n") == \
        ["os (line 1)"]


def test_checker_flags_a_dead_name():
    package = {"src/a.py": "def f():\n    return f()\n\nX = 1\n"
                           "__all__ = []\n",
               "src/b.py": "class C:\n    pass\n\nY, Z = C(), 2\n"}
    assert dead_names({**package,
                       "tropbench/t.py": "from a import X as Z_\n"}) == [
        "src/a.py: f (line 1)", "src/b.py: Y (line 4)", "src/b.py: Z (line 4)"]
    assert dead_names({**package, "tropbench/t.py": "f(X, Y)\nZ\n"}) == []


def test_checker_flags_a_method_only_tests_call():
    package = {"src/a.py": "class C:\n"
                           "    def m(self):\n"
                           "        return self.m()\n"
                           "\n"
                           "    @property\n"
                           "    def p(self):\n"
                           "        return 1\n"
                           "\n"
                           "    def __len__(self):\n"
                           "        return 0\n"
                           "\n"
                           "\n"
                           "def f():\n"
                           "    class D:\n"
                           "        def n(self):\n"
                           "            pass\n"
                           "    return C, D\n"}
    tests = {"tests/t.py": "f()\nC().m()\nC().p\nD().n()\n"}
    assert dead_names({**package, **tests}) == [
        "src/a.py: f (line 13)", "src/a.py: C.m (line 2)",
        "src/a.py: C.p (line 6)", "src/a.py: f.D.n (line 15)"]
    # a use in src or tropbench counts, and an exempt name is not flagged
    users = {"src/b.py": "f()\nC().m()\n", "tropbench/w.py": "C().p\n"}
    assert dead_names({**package, **tests, **users}) == [
        "src/a.py: f.D.n (line 15)"]
    assert dead_names({**package, **users}, exempt=("f.D.n",)) == []


def test_checker_flags_a_dead_parameter():
    package = {"a.py": "def f(x, y=1, *, z=2):\n    pass\n\n"
                       "class C:\n    def m(self, w=3):\n        pass\n\n"
                       "    @staticmethod\n    def s(v=4):\n        pass\n"}
    assert dead_parameters(package, {"t.py": "f(0)\nC().m()\nC.s()\n"}) == [
        "a.py: f(y) (line 1)", "a.py: f(z) (line 1)",
        "a.py: C.m(w) (line 5)", "a.py: C.s(v) (line 9)"]
    assert dead_parameters(package, {"t.py": "f(0, 1, z=2)\nc.m(3)\n"
                                             "C.s(v=4)\n"}) == []
    # *args or **kwargs pass every parameter
    assert dead_parameters(package, {"t.py": "f(*a)\nc.m(**k)\n"},
                           exempt=("C.s",)) == []


def _package_and_sources():
    """({file: source} of src/tropcount, {file: source} of every file)."""
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in FILES}
    package = {path: text for path, text in sources.items()
               if path.startswith("src")}
    return package, sources


def test_no_dead_names():
    # _print_message overrides argparse's, which argparse calls
    assert dead_names(_package_and_sources()[1],
                      exempt=("build_parser.Parser._print_message",)) == []


def test_no_dead_parameters():
    # _print_message overrides argparse's, which argparse calls
    assert dead_parameters(*_package_and_sources(),
                           exempt=("build_parser.Parser._print_message",)) \
        == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
