"""Every top-level function, class and constant of the package, and every
method and property of a package class, is named outside its own
definition by the program itself (the package or the benchmark), or is
listed with the reason it stays though only the tests name it.

Both checks go by name, so a member whose name other code also uses (an
``append``, an ``M``) passes unseen."""
import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(ROOT.glob("src/qknn_sim/*.py"))
PROGRAM = sorted({*ROOT.glob("src/**/*.py"), *ROOT.glob("perfbench/*.py")})
TESTS = sorted(p for p in ROOT.glob("tests/*.py") if p.name != Path(__file__).name)
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


# Top-level definitions that no program code names, kept for a reason; the
# tests name them.
TEST_ONLY_KEPT = {
    "qubit_accounting": "acceptance criterion 9: the assembled oracle's peak qubit count "
                        "against its closed form, which the acceptance tests report",
}


def unnamed_by_program(path: Path) -> list[str]:
    """The top-level definitions of the module at ``path`` that no other
    program file, nor the module outside their own lines, names."""
    outside = set().union(*(names_in(p) for p in PROGRAM if p != path))
    return [d.split(" ")[0] for d in dead_definitions(path.read_text(), outside)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_definitions(path):
    """A top-level definition that only the tests name is test code: it
    moves to the tests, or is listed in TEST_ONLY_KEPT with its reason."""
    assert [name for name in unnamed_by_program(path) if name not in TEST_ONLY_KEPT] == []


def test_every_test_only_definition_is_still_test_only():
    """An entry of TEST_ONLY_KEPT that the program now names, that is gone,
    or that no test names either is stale."""
    found = {name for path in MODULES for name in unnamed_by_program(path)}
    assert set(TEST_ONLY_KEPT) <= found & set().union(*(names_in(p) for p in TESTS))


# Methods and properties that no program code (src/ or perfbench/) reaches,
# kept for a reason; the tests may still call them.
UNREACHED_KEPT = {
    "Circuit.netlist": "the documented textual export of a circuit (README); the model "
                       "circuit's pinned digest is taken over it",
}


def methods(source: str) -> list[tuple[str, int, int]]:
    """(Class.name, first line, last line) of each method and property of the
    top-level classes, dunder methods aside: Python calls those itself."""
    return [(f"{cls.name}.{node.name}", node.lineno, node.end_lineno)
            for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def unreached_methods(module: str, outside: set[str]) -> list[str]:
    """The methods of ``module`` whose name neither ``outside`` (the names
    the other program files use) nor ``module``, outside their own lines,
    holds."""
    own = named(module)
    return [qualified for qualified, first, last in methods(module)
            if (name := qualified.split(".")[1]) not in outside
            and not any(n == name and not first <= line <= last for n, line in own)]


def test_detects_an_unreached_method():
    module = ("class Report:\n"
              "    def __len__(self):\n        return 0\n"
              "    @property\n    def delta(self):\n        return self.delta\n"
              "    def total(self):\n        return len(self)\n"
              "def use(r):\n    return r.total()\n")
    assert unreached_methods(module, set()) == ["Report.delta"]
    assert unreached_methods(module, {"delta"}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unreached_methods(path):
    """A method or property only the tests call is test code: it moves to
    the tests, or is listed in UNREACHED_KEPT with its reason."""
    outside = set().union(*(names_in(p) for p in PROGRAM if p != path))
    found = unreached_methods(path.read_text(), outside)
    assert [m for m in found if m not in UNREACHED_KEPT] == []


def test_every_kept_method_is_still_unreached():
    """An entry of UNREACHED_KEPT that the program now reaches, or that is
    gone, is stale."""
    found = set()
    for path in MODULES:
        outside = set().union(*(names_in(p) for p in PROGRAM if p != path))
        found.update(unreached_methods(path.read_text(), outside))
    assert set(UNREACHED_KEPT) <= found
