"""The runtime imports nothing outside the Python standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hsagg"


def test_runtime_imports_are_stdlib_only():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay inside the package
                continue
            outside += [
                (path.name, name) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S skips site, whose .pth files may preload typing on some hosts, so
    # what is loaded here is what the package itself imports.
    probe = "import sys, hsagg.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "hsagg.cli" in out
    assert [m for m in ("dataclasses", "inspect", "typing") if m in out] == []
