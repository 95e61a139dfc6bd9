"""The package's modules use one another only through public names, and
their imports form no cycle but the one between ``counting`` and ``lifted``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wfomc"


def _private_uses(source: str, name: str) -> list[str]:
    """Each private name of another package module that ``source`` imports
    (``from .m import _x``) or reads as an attribute of a module it imported
    (``from . import m`` then ``m._x``). Importing a private module, as in
    ``from . import _kernels as K``, is allowed."""
    found, modules = [], set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found += [f"{name}: from .{node.module} import {a.name}"
                          for a in node.names if a.name.startswith("_")]
            else:
                modules.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{name}: {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _private_uses(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_both_forms_of_private_use_are_found():
    source = ("from . import counting, _kernels as K\nfrom .grounding import _Grounder, ground\n"
              "counting._clause_set(K.OP_AND, counting.wmc_dpll)\n")
    assert _private_uses(source, "m.py") == [
        "m.py: from .grounding import _Grounder", "m.py: counting._clause_set"]


def _imports(source: str) -> set[str]:
    """The package modules that ``source`` imports, at any depth of the
    code: ``from .m import x`` and ``from . import m``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else (a.name for a in node.names))
    return found


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the import graph as a path of modules that ends where
    it starts, or [] if there is none; a depth-first search."""
    done: set[str] = set()

    def visit(path: list[str]) -> list[str]:
        for m in sorted(graph.get(path[-1], ())):
            if m in path:
                return path[path.index(m):] + [m]
            if m not in done:
                found = visit(path + [m])
                if found:
                    return found
        done.add(path[-1])
        return []

    for m in sorted(graph):
        found = [] if m in done else visit([m])
        if found:
            return found
    return []


def _graph() -> dict[str, set[str]]:
    return {path.stem: _imports(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def test_imports_are_acyclic_apart_from_counting_and_lifted():
    # The dpll engine is lifted.count, and lifted's ground leaf counts
    # through counting.wmc_dpll: that one pair imports each other.
    graph = _graph()
    assert "lifted" in graph["counting"] and "counting" in graph["lifted"]
    graph["lifted"].discard("counting")
    assert _cycle(graph) == []


def test_grounding_imports_only_errors_and_logic():
    assert _graph()["grounding"] == {"errors", "logic"}


def test_a_cycle_is_found():
    assert _imports("from . import counting, _kernels as K\nfrom .grounding import ground\n"
                    "def f():\n    from .transform import clause_form\n") == {
        "counting", "_kernels", "grounding", "transform"}
    assert _cycle({"a": {"b"}, "b": {"c", "d"}, "c": set(), "d": {"b"}}) == ["b", "d", "b"]
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
