"""Static checks on the source tree, with the standard library's ast alone.

  * every public name of kummerlat has a caller: a reference by name in
    src/ outside its own def or class, in the acceptance suite, or a
    mention anywhere in bench/ (the tracer names functions in strings);
  * no module of the package or of the tests imports a name it never
    uses. The package's __init__ is exempt: its imports are the exports.
"""

import ast
import re
from pathlib import Path

import kummerlat

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kummerlat"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(tree, name):
    """Whether tree reads name, as a Name or an attribute, outside a def or class of that name."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_public_name_has_a_caller():
    trees = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    trees.append(_parse(ROOT / "tests" / "test_acceptance.py"))
    bench = "\n".join(path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py")))
    uncalled = [
        name for name in kummerlat.__all__
        if not any(_referenced(tree, name) for tree in trees)
        and not re.search(r"\b%s\b" % re.escape(name), bench)
    ]
    assert uncalled == []


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = {p.relative_to(ROOT).as_posix(): _unused_imports(_parse(p)) for p in paths}
    assert {path: names for path, names in unused.items() if names} == {}
