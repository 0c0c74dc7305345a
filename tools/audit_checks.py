"""Mutation audit of the checks in ``src/w52``: does every raise decide?

Each raise site in the package is switched off in turn, in a copy of the
tree: for a raise directly under an ``if``, the ``if`` test becomes
``False``; any other raise becomes ``pass``.  Tier-1 then runs on the copy
with ``-x``.  ``tests/test_source.py`` is deselected: it reads the source
text, so its failing on an edited file says nothing about the check.  A
site survives when tier-1 still passes, as then no test fails through its
check.  Each survivor is printed as ``file:line``, the line of the ``if``
or of the raise that was switched off, and the exit status is 1 if there
is any.

The script needs only the standard library, and tier-1 its usual test
dependencies.  It never edits the working tree.  Run it from anywhere::

    python tools/audit_checks.py

A full audit is one tier-1 run per raise site, so it is kept out of tier-1.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--deselect", "tests/test_source.py"]


def mutants(source: bytes) -> list[tuple[int, bytes]]:
    """(line, source with that raise switched off) for every raise, by line."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):  # ast offsets count UTF-8 bytes
        starts.append(starts[-1] + len(line))
    guard = {id(s): node.test for node in ast.walk(tree) if isinstance(node, ast.If)
             for s in node.body}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            target, text = (guard[id(node)], b"False") if id(node) in guard else (node, b"pass")
            begin = starts[target.lineno - 1] + target.col_offset
            end = starts[target.end_lineno - 1] + target.end_col_offset
            out.append((target.lineno, source[:begin] + text + source[end:]))
    return sorted(out, key=lambda m: m[0])


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

        def passes() -> bool:
            return subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode == 0

        if not passes():
            print("tier-1 fails on the unmutated tree; nothing to audit", file=sys.stderr)
            return 2
        survivors = sites = 0
        for path in sorted((tree / "src" / "w52").glob("*.py")):
            source = path.read_bytes()
            for line, mutant in mutants(source):
                sites += 1
                path.write_bytes(mutant)
                try:
                    if passes():
                        survivors += 1
                        print(f"{path.relative_to(tree).as_posix()}:{line}", flush=True)
                finally:
                    path.write_bytes(source)
        print(f"{survivors} of {sites} raise sites survive", file=sys.stderr)
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
