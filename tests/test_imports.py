"""Module boundaries: no package module imports another's private names
(a leading underscore; dunders such as __version__ are public)."""

import ast
from pathlib import Path

import deltalab

PACKAGE = Path(deltalab.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_cross_module_imports():
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                bad += [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} "
                        f"import {a.name}" for a in node.names if _private(a.name)]
    assert not bad, "private names imported across modules:\n" + "\n".join(bad)
