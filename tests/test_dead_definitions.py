"""Every top-level function, class and constant of the package is named
somewhere outside its own definition: in the package, the tests or the
benchmark."""
import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(ROOT.glob("src/qknn_sim/*.py"))
SEARCHED = sorted({*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py"),
                   *ROOT.glob("perfbench/*.py")})
WORD = re.compile(r"[A-Za-z_]\w*")


def named(source: str) -> list[tuple[str, int]]:
    """(identifier, line) of every name the code reads or writes: names,
    attributes, imported names and the words of string literals (which
    ``getattr`` and the benchmark's tracer plan use), docstrings excepted."""
    tree = ast.parse(source)
    docs = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            found += [(word, node.lineno) for word in WORD.findall(node.value)]
    return found


def definitions(source: str) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each top-level function, class and
    constant, ``__all__`` aside."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno, node.end_lineno) for t in targets
                      if isinstance(t, ast.Name) and t.id != "__all__"]
    return found


def dead_definitions(module: str, outside: set[str]) -> list[str]:
    """The definitions of ``module`` that neither ``outside`` (the names other
    files use) nor ``module`` itself, outside their own lines, name."""
    own = named(module)
    return [f"{name} (line {first})" for name, first, last in definitions(module)
            if name not in outside
            and not any(n == name and not first <= line <= last for n, line in own)]


@functools.cache
def names_in(path: Path) -> frozenset[str]:
    return frozenset(name for name, _ in named(path.read_text()))


def test_detects_a_dead_definition():
    module = ('"""helper is in a docstring only."""\n'
              "LIMIT = 3\n"
              "def used(x):\n    return x < LIMIT\n"
              "def helper(x):\n    return helper(x - 1)  # recursion is no use\n"
              "class Plan:\n    pass\n"
              "__all__ = ['used']\n")
    assert dead_definitions(module, {"used"}) == ["helper (line 5)", "Plan (line 7)"]
    assert dead_definitions(module, {"used", "Plan", "helper"}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_definitions(path):
    outside = set().union(*(names_in(p) for p in SEARCHED if p != path))
    assert dead_definitions(path.read_text(), outside) == []
