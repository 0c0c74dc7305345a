"""Checks on the package source itself."""

import ast
import functools
import os
import re
import subprocess
import sys

import pytest

from conftest import SRC

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


def imported_modules(path):
    """(line, top-level module name) of every import statement in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        yield from ((node.lineno, name.split(".")[0]) for name in names)


def imports_of(*modules):
    """``file:line:module`` of every import of the given top-level modules."""
    assert SOURCES
    return [
        f"{path.name}:{lineno}:{name}"
        for path in SOURCES
        for lineno, name in imported_modules(path)
        if name in modules
    ]


def test_no_process_pool_imports():
    # no flag or parameter can ask the package for worker processes
    assert imports_of("concurrent", "multiprocessing") == []


def test_no_dataclasses_imports():
    # importing dataclasses pulls in inspect, and building the classes costs
    # every w52 process tens of milliseconds; the records are
    # collections.namedtuple classes
    assert imports_of("dataclasses") == []


def test_no_typing_imports():
    # typing costs every w52 process milliseconds of start-up; the records
    # are collections.namedtuple classes and annotations name collections.abc
    assert imports_of("typing") == []


def test_no_numpy_imports():
    # numpy is a test dependency only: the package installs without it, and
    # the dense oracle lives in tests/conftest.py
    assert imports_of("numpy") == []


# numpy comes with the test extra, for the dense oracle, and is not installed
# with the package; dataclasses and inspect cost tens of milliseconds of
# start-up; every w52 process would pay for any of them
HEAVY_MODULES = ("numpy", "dataclasses", "inspect")


@pytest.mark.parametrize(
    "argv",
    [["census", "--out", "{tmp}/census.csv"], ["enumerate", "points"]],
    ids=["census", "enumerate points"],
)
def test_commands_load_no_heavy_modules(tmp_path, argv):
    # The -O -S child of test_cli.py runs every command without site-packages,
    # where a soft `try: import numpy` fails silently and loads nothing.  This
    # child runs with site on, where numpy is importable, so only it sees one.
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = (
        "import sys; from w52.cli import main; "
        f"code = main({argv!r}); "
        f"print(sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules)); sys.exit(code)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def peak_mb(code):
    """The peak resident memory (VmHWM) in MB of a ``python -S`` process
    that runs ``code``."""
    code += "; import sys; sys.stderr.write(open('/proc/self/status').read())"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return int(re.search(r"^VmHWM:\s+(\d+) kB", result.stderr, re.M).group(1)) / 1024


@functools.cache
def import_peak_mb():
    """:func:`peak_mb` of a process that only imports ``w52.cli``, measured once."""
    return peak_mb("import w52.cli")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_census_streams_the_pentads(tmp_path):
    # the census holds one lowest-plane group of pentads at a time, not all
    # 12,096 (about 6 MB above an import when they were built in one list)
    out = str(tmp_path / "census.csv")
    census = peak_mb(f"from w52.cli import main; main(['census', '--out', {out!r}])")
    assert census - import_peak_mb() < 4


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_json_export_streams_the_pentads(tmp_path):
    # the JSON writer holds one record and the per-call flag slots, not the
    # 39 MB document or all 12,096 pentads
    out = str(tmp_path / "pentads.json")
    args = ["enumerate", "pentads", "--format", "json", "--out", out]
    export = peak_mb(f"from w52.cli import main; main({args!r})")
    assert export - import_peak_mb() < 4


def names_in(path):
    """Every imported name, defined function or class name, variable name and
    attribute name in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_contexts_are_multiplied_only_in_pauli():
    # pauli's one fold is the only code that multiplies a context, so the
    # phase table is read nowhere else, and the verifier reads neither table
    readers = [path.name for path in SOURCES if "PHASE" in names_in(path)]
    assert readers == ["pauli.py"]
    contextuality = SRC / "w52" / "contextuality.py"
    assert {"PHASE", "COMMUTE_MASK"}.isdisjoint(names_in(contextuality))


def test_only_taxonomy_knows_the_packed_census_table():
    # the census's packed per-flag fields are one module's format, so no
    # other module builds the table or reads a field of it by shift
    readers = [path.name for path in SOURCES if "_pair_table" in names_in(path)]
    assert readers == ["taxonomy.py"]


def test_only_main_reports_errors():
    # a command raises every error, and main alone writes it to stderr and
    # picks the exit code, so each of the CLI's checks is a raise
    tree = ast.parse((SRC / "w52" / "cli.py").read_text(encoding="utf-8"))
    reporters = {
        getattr(top, "name", f"line {top.lineno}")
        for top in tree.body
        for node in ast.walk(top)
        if (isinstance(node, ast.Attribute) and node.attr == "stderr")
        or (isinstance(node, ast.Name) and node.id == "EXIT_USAGE"
            and isinstance(node.ctx, ast.Load))
    }
    assert reporters == {"main"}
