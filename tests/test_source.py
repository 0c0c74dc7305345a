"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "w52").glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert, so no check in the package may rely on one
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_process_pool_imports():
    # no flag or parameter can ask the package for worker processes
    assert SOURCES
    pools = ("concurrent", "multiprocessing")
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}:{name}"
                for name in names
                if name.split(".")[0] in pools
            ]
    assert found == []


def test_census_command_does_not_import_numpy(tmp_path):
    # numpy serves only the dense test oracle; every w52 process would pay its import
    code = (
        "import sys; from w52.cli import main; "
        f"code = main(['census', '--out', {str(tmp_path / 'census.csv')!r}]); "
        "print('numpy' in sys.modules); sys.exit(code)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
