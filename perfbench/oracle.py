"""Output checks that do not trust the program under test.

Signs and verdicts come from dense 8x8 Pauli matrices built here from the
letters of each word; the census is compared with a copy of the paper's
Table 1; the CLI files must match the digests of the reference outputs
byte for byte.  Every check raises ``Mismatch``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np

#: SHA-256 of the reference outputs of ``w52 census --out``,
#: ``w52 enumerate pentads --format json --out`` and ``--format csv --out``.
CENSUS_CSV_SHA256 = "00f28379865f6354d846e5c1a42ef19e54906fd3a424cbc58dd763e820280779"
EXPORT_JSON_SHA256 = "939bef33ecdef0a12c84955c1ea4f4f7a05dd81899ae6fdcf40214dd2fb4022f"
EXPORT_CSV_SHA256 = "58719f3250e1cc28137cd6a2a9d8661d44e76ac53fd54948c3ca6950a41d29c1"

PENTADS = 12096

#: Table 1's eight parameters per type: C-, O_A, O_B, O_C, F-, F+a, F+b, F+c.
TABLE1 = (
    (17, 2, 11, 12, 3, 2, 0, 0), (15, 0, 15, 10, 5, 0, 0, 0), (15, 1, 15, 9, 3, 2, 0, 0),
    (13, 0, 11, 14, 5, 0, 0, 0), (13, 1, 10, 14, 4, 1, 0, 0), (13, 1, 11, 13, 3, 2, 0, 0),
    (13, 2, 11, 12, 3, 1, 1, 0), (13, 3, 10, 12, 2, 2, 1, 0), (11, 1, 10, 14, 4, 0, 1, 0),
    (11, 2, 10, 13, 2, 2, 1, 0), (11, 2, 11, 12, 3, 1, 1, 0), (11, 3, 11, 11, 3, 1, 0, 1),
    (11, 4, 10, 11, 2, 2, 0, 1), (11, 5, 11, 9, 1, 2, 1, 1), (9, 1, 11, 13, 3, 0, 2, 0),
    (9, 2, 10, 13, 2, 1, 2, 0), (9, 2, 11, 12, 3, 0, 2, 0), (9, 2, 11, 12, 1, 2, 2, 0),
    (9, 3, 10, 12, 2, 1, 2, 0), (9, 3, 11, 11, 3, 0, 1, 1), (9, 4, 10, 11, 2, 1, 1, 1),
    (9, 4, 10, 11, 2, 1, 1, 1), (9, 4, 11, 10, 1, 2, 1, 1), (9, 4, 11, 10, 1, 2, 1, 1),
    (9, 5, 10, 10, 2, 1, 0, 2), (9, 1, 15, 9, 3, 0, 2, 0), (9, 5, 11, 9, 3, 0, 0, 2),
    (9, 5, 11, 9, 1, 2, 0, 2), (9, 5, 11, 9, 1, 2, 1, 1), (9, 3, 15, 7, 1, 2, 1, 1),
    (7, 1, 11, 13, 3, 0, 2, 0), (7, 3, 11, 11, 3, 0, 1, 1), (7, 4, 11, 10, 1, 1, 2, 1),
    (7, 5, 10, 10, 2, 1, 0, 2), (7, 5, 11, 9, 3, 0, 0, 2), (7, 6, 10, 9, 0, 2, 1, 2),
    (5, 4, 10, 11, 2, 0, 2, 1), (5, 4, 11, 10, 1, 1, 2, 1), (5, 5, 10, 10, 2, 0, 1, 2),
    (5, 5, 11, 9, 1, 1, 1, 2), (5, 6, 11, 8, 1, 1, 0, 3), (3, 5, 11, 9, 1, 0, 3, 1),
    (3, 5, 11, 9, 1, 0, 2, 2), (3, 6, 10, 9, 0, 1, 2, 2), (3, 6, 11, 8, 1, 0, 1, 3),
    (3, 3, 15, 7, 1, 0, 3, 1), (3, 6, 15, 4, 1, 0, 0, 4),
)

VALID = "ValidParityProof"
NOT_CONTEXTUAL = "NotContextual"
MALFORMED = "MalformedContext"

_PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_IDENTITY = np.eye(8, dtype=complex)


class Mismatch(Exception):
    """An output of the program disagrees with the benchmark's own answer."""


@functools.lru_cache(maxsize=None)
def matrix(word: str) -> np.ndarray:
    """The 8x8 matrix of a three-letter Pauli word."""
    a, b, c = (_PAULI[letter] for letter in word)
    return np.kron(np.kron(a, b), c)


@functools.lru_cache(maxsize=None)
def context_sign(words: tuple[str, ...]) -> int | None:
    """+1 or -1 if the words commute pairwise and multiply to that multiple of
    the identity, else None (a malformed context).  Entries stay in
    {0, +-1, +-i}, so exact comparison is safe."""
    mats = [matrix(w) for w in words]
    for i, a in enumerate(mats):
        for b in mats[i + 1 :]:
            if not np.array_equal(a @ b, b @ a):
                return None
    product = _IDENTITY
    for m in mats:
        product = product @ m
    for sign in (1, -1):
        if np.array_equal(product, sign * _IDENTITY):
            return sign
    return None


def expected_report(rows: list[list[str]]) -> list:
    """[verdict, negative count, point part, context part] of a context set."""
    signs = [context_sign(tuple(row)) for row in rows]
    occurrences = Counter(w for row in rows for w in row)
    negative = sum(1 for s in signs if s == -1)
    if any(s is None for s in signs):
        verdict = MALFORMED
    elif all(c % 2 == 0 for c in occurrences.values()) and negative % 2 == 1:
        verdict = VALID
    else:
        verdict = NOT_CONTEXTUAL
    point_part = sorted(Counter(occurrences.values()).items(), reverse=True)
    context_part = sorted(Counter(len(row) for row in rows).items(), reverse=True)
    return [verdict, negative, [list(x) for x in point_part], [list(x) for x in context_part]]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_digest(path: Path, expected: str) -> None:
    actual = sha256(path)
    if actual != expected:
        raise Mismatch(f"{path.name}: SHA-256 {actual} differs from the reference {expected}")


def check_census_csv(path: Path) -> None:
    """Byte identity with the reference, then Table 1's multiset and the total."""
    check_digest(path, CENSUS_CSV_SHA256)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    params = ("C-", "O_A", "O_B", "O_C", "F-", "Fa", "Fb", "Fc")
    found = Counter(tuple(int(row[p]) for p in params) for row in rows)
    if found != Counter(TABLE1):
        raise Mismatch("census rows do not match Table 1's 47 parameter rows")
    total = sum(int(row["count"]) for row in rows)
    if total != PENTADS:
        raise Mismatch(f"census counts sum to {total}, not {PENTADS}")


def spot_check_export(json_path: Path, csv_path: Path, ids: list[int]) -> None:
    """Re-derive the edge and context signs of the sampled records with the
    dense oracle and compare them with both exported files."""
    with open(json_path) as f:
        records = json.load(f)["records"]
    with open(csv_path, newline="") as f:
        csv_rows = list(csv.DictReader(f))
    if len(records) != PENTADS or len(csv_rows) != PENTADS:
        raise Mismatch(f"export holds {len(records)} JSON and {len(csv_rows)} CSV records")
    for i in ids:
        record, row = records[i], csv_rows[i]
        edges = record["pentagram"]["edges"]
        contexts = record["config"]["contexts"]
        for name, rows, size, count in (("pentagram", edges, 4, 5), ("config", contexts, 3, 30)):
            if len(rows) != count or any(len(r) != size for r in rows):
                raise Mismatch(f"record {i}: {name} is not {count} contexts of {size}")
            verdict = expected_report(rows)[0]
            if verdict != VALID:
                raise Mismatch(f"record {i}: the oracle finds the {name} {verdict}")
        negative_edges = sum(1 for e in edges if context_sign(tuple(e)) == -1)
        negative_contexts = sum(1 for c in contexts if context_sign(tuple(c)) == -1)
        exported = (
            record["id"], record["pentagram"]["negative_edges"], record["config"]["negative_contexts"],
            int(row["id"]), int(row["negative_edges"]), int(row["negative_contexts"]),
        )
        if exported != (i, negative_edges, negative_contexts) * 2:
            raise Mismatch(f"record {i}: exported {exported}, oracle ({negative_edges}, {negative_contexts})")
        if row["planes"] != " ".join(str(p) for p in record["planes"]):
            raise Mismatch(f"record {i}: JSON and CSV list different planes")
