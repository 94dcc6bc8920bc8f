"""Every imported name is used, and every top-level name of the package
is used somewhere.

No linter ships with the project, so this walks the syntax tree of each
module under src/tropcount, tests and tropbench (read, never imported): a
name bound by an import must appear somewhere else in the module, as a
name, as the root of an attribute chain, or in the module's __all__ (a
list or tuple of strings; a computed __all__ uses its names as names).
A top-level def, class or assigned name of src/tropcount (dunders aside)
must appear as a word in one of those files outside its own definition.
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


def dead_names(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """The top-level names of the package's modules ({file: source}) that
    no file of package or others names as a word outside the name's own
    definition."""
    texts = {**others, **package}
    dead = []
    for path, source in package.items():
        lines = source.splitlines()
        rest = [text for other, text in texts.items() if other != path]
        for name, first, last in _top_level_names(ast.parse(source)):
            word = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
            own = "\n".join(lines[:first - 1] + lines[last:])
            if not any(map(word.search, [own, *rest])):
                dead.append(f"{path}: {name} (line {first})")
    return dead


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == \
        ["os (line 1)"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
    assert unused_imports("import os\n__all__ = sorted(NAMES)\n") == \
        ["os (line 1)"]


def test_checker_flags_a_dead_name():
    package = {"a.py": "def f():\n    return f()\n\nX = 1\n__all__ = []\n",
               "b.py": "class C:\n    pass\n\nY, Z = C(), 2\n"}
    assert dead_names(package, {"t.py": "from a import X as Z_\n"}) == [
        "a.py: f (line 1)", "b.py: Y (line 4)", "b.py: Z (line 4)"]
    assert dead_names(package, {"t.py": "f(X, Y)\nZ\n"}) == []


def test_no_dead_names():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in FILES}
    package = {path: text for path, text in sources.items()
               if path.startswith("src")}
    assert dead_names(package, sources) == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
