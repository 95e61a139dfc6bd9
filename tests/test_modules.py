"""The package's modules use one another only through public names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wfomc"


def test_no_module_imports_a_private_name_of_another():
    # ``from . import _kernels`` imports a module, not a name, and is allowed.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [f"{path.name}: from .{node.module} import {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []
