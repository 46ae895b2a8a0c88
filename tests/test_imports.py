"""Module boundaries: no package module imports another's private names
(a leading underscore; dunders such as __version__ are public), and the
runtime needs no library beyond numpy and mpmath."""

import ast
import json
import subprocess
import sys
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


# Runs in a child whose import system refuses scipy; prints the exit codes
# and the scipy modules that got loaded anyway as one JSON line.
_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from deltalab.cli import run
codes = {}
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv] = run(argv.split())
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_cli_runs_without_scipy():
    argvs = ["lfunction --disc -163 --derivative",
             "psi-short --x 1e7 --alpha 0.4923 --disc 13",
             "tables --disc -4 --limit 2000",
             "verify-all --quick --seed 0"]
    child = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argvs],
                           capture_output=True, text=True, timeout=280)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    assert got == {"codes": dict.fromkeys(argvs, 0), "loaded": []}
