"""Every imported name is used.

No linter ships with the project, so this walks the syntax tree of each
module under src/tropcount, tests and tropbench (read, never imported): a
name bound by an import must appear somewhere else in the module, as a
name, as the root of an attribute chain, or in the module's __all__ (a
list or tuple of strings; a computed __all__ uses its names as names).
"""

import ast
import pathlib

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


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == \
        ["os (line 1)"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
    assert unused_imports("import os\n__all__ = sorted(NAMES)\n") == \
        ["os (line 1)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
