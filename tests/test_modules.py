"""The package's modules use one another only through public names."""

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
