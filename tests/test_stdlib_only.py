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


def _loaded_by(argv, cwd):
    """The modules loaded once ``main(argv)`` has returned 0, under -S."""
    probe = (
        "import sys; from hsagg.cli import main; code = main(sys.argv[1:]); "
        "print(code, *sorted(sys.modules), file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    stderr = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    ).stderr
    code, *modules = stderr.split()
    assert code == "0", stderr
    return set(modules)


def test_commands_load_only_the_modules_they_run(tmp_path):
    # the package resolves its names lazily and the CLI imports the audit and
    # the protocol inside the commands that call them; the audit needs no
    # protocol.  A well-formed command line, a rate grid included, is parsed
    # without argparse, and no command reads or writes its files through
    # pathlib.
    unused = {"argparse", "gettext", "locale", "pathlib"}
    built = _loaded_by(["build", "--U", "4", "--V", "4", "--T", "6", "--out", "s.json"], tmp_path)
    assert "hsagg.schemes" in built
    assert {"hsagg.security", "hsagg.protocol", "random"} & built == set()
    rated = _loaded_by(["rates", "--U", "4", "--V", "4", "--T", "6"], tmp_path)
    assert {"hsagg.security", "hsagg.protocol"} & rated == set()
    grid = _loaded_by(["rates", "--U", "2..4", "--V", "1..3", "--T", "0..6"], tmp_path)
    simulated = _loaded_by(["simulate", "--scheme", "s.json"], tmp_path)
    assert "hsagg.protocol" in simulated and "hsagg.security" not in simulated
    # (3,2,3) passes its audit, which runs no protocol
    _loaded_by(["build", "--U", "3", "--V", "2", "--T", "3", "--out", "a.json"], tmp_path)
    audited = _loaded_by(["audit", "--scheme", "a.json"], tmp_path)
    assert "hsagg.security" in audited
    assert {"hsagg.protocol", "random"} & audited == set()
    # (2,2,1) over F_5 passes the exact oracle under the default cap
    _loaded_by(["build", "--U", "2", "--V", "2", "--T", "1", "--q", "5", "--out", "e.json"],
               tmp_path)
    exact = _loaded_by(["audit", "--scheme", "e.json", "--exact"], tmp_path)
    for loaded in (built, rated, grid, simulated, audited, exact):
        assert unused & loaded == set()


def test_help_is_argparse_help(monkeypatch):
    # help is left to argparse, which the process then imports
    from hsagg import cli

    monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the child
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "hsagg.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == cli._build_parser().format_help()
    assert proc.stdout.startswith("usage: hsa [-h] {rates,build,simulate,audit,attack} ...")
