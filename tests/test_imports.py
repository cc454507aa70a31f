"""Every name a package module imports is used in that module, and the
package imports nothing heavy that it does not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "turanlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_sees_an_unused_import():
    assert unused_imports("import numpy as np\nimport math\nmath.pi\n") == ["np"]
    assert unused_imports("from .x import a, b as c\nc()\n") == ["a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_package_import_leaves_scipy_out():
    # scipy is a test-only dependency; importing it costs about half a
    # second and 40 MB at start-up
    code = ("import sys, turanlab, turanlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_oracles_share_no_code_with_the_package():
    # the oracles evaluate P and P' by their own zero-list products; only the
    # Interval container comes from turanlab
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text())
    names = [(node.module, a.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names]
    names += [(a.name, None) for node in ast.walk(tree)
              if isinstance(node, ast.Import) for a in node.names]
    assert [n for n in names if n[0].split(".")[0] == "turanlab"] == [("turanlab.poly", "Interval")]
