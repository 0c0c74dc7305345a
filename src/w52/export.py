"""Deterministic JSON/CSV export of the space tables and the pentad census.

All output is byte-deterministic: rows follow canonical ids, JSON keys are
emitted in a fixed order, and every file ends with a newline.  Every CSV
table except the streamed pentad CSV goes through :func:`render_csv`.

The pentad census has two export forms, both streamed one pentad at a
time.  Both writers number the pentads they are given in their order: a
pentad's id is its position in the canonical stream, which every command
passes.  The JSON document carries both contextual sets of every pentad as
Pauli words; :func:`dump_pentads` derives both in one pass over the pentad's
five flags (:func:`~w52.pentads._derive`), which runs the checks of both
sets on every record, and joins the record from JSON text rendered once per
call for every line and for every affine quadruple met.  It reads the
flags afresh on every call, into a memo that lives only as long as the
call.  The CSV table (:func:`dump_pentad_csv`) carries no words: one row
per pentad with its plane ids and its negative edge and context counts
(:func:`~w52.pentads.negative_counts`).

Files are written through :func:`atomic_open`, so a failed write leaves an
existing regular file as it was.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from functools import cache

from .contextuality import ContextSet
from .geometry import Space
from .pentads import Pentad, _derive, negative_counts
from .pauli import TYPE_OF, WORDS, PauliError

__all__ = [
    "points_table",
    "lines_table",
    "planes_table",
    "render_csv",
    "render_json",
    "census_csv",
    "atomic_open",
    "dump_pentads",
    "dump_pentad_csv",
    "load_context_file",
]


def _coords(point_id: int) -> str:
    return format(point_id, "06b")


def points_table(space: Space, coords: bool = False) -> list[dict]:
    rows = []
    for o in space.points:
        row = {"id": o.point_id, "word": o.word, "type": TYPE_OF[o.point_id].value}
        if coords:
            row["coords"] = _coords(o.point_id)
        rows.append(row)
    return rows


def lines_table(space: Space) -> list[dict]:
    return [
        {"id": line_id, "points": [WORDS[p - 1] for p in line.points], "sign": line.sign}
        for line_id, line in enumerate(space.lines)
    ]


def planes_table(space: Space) -> list[dict]:
    return [
        {
            "id": plane_id,
            "points": [WORDS[p - 1] for p in plane.points],
            "sign": plane.sign,
            "class": plane.plane_class.value,
            "b_line": plane.b_line,
        }
        for plane_id, plane in enumerate(space.planes)
    ]


def render_json(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def render_csv(rows: Sequence[dict]) -> str:
    """CSV with the first row's keys as columns and list-valued fields joined
    by single spaces; no rows give an empty text."""
    if not rows:
        return ""
    columns = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            [
                " ".join(str(x) for x in row[col]) if isinstance(row[col], list) else row[col]
                for col in columns
            ]
        )
    return buf.getvalue()


_CENSUS_COLUMNS = (
    "type",
    "count",
    "C-",
    "O_A",
    "O_B",
    "O_C",
    "F-",
    "Fa",
    "Fb",
    "Fc",
    "P_C-",
    "P_OA",
    "P_OB",
    "P_OC",
    "A_on_neg",
    "example_pentad",
)


def census_csv(census) -> str:
    """The census summary table, one row per type in canonical order, numbered
    from 1."""
    rows = []
    for type_id, record in enumerate(census.records, 1):
        sig = record.signature
        fields = (type_id, record.multiplicity, *sig.table_row, *sig.pentagram,
                  record.example_pentad)
        rows.append(dict(zip(_CENSUS_COLUMNS, fields)))
    return render_csv(rows)


@contextmanager
def atomic_open(path: str | os.PathLike[str]) -> Iterator[io.TextIOBase]:
    """Open a UTF-8 text file that replaces ``path`` only if the block completes.

    The data goes to a new temporary file in the directory of the file that
    ``path`` resolves to, symlinks followed, which ``os.replace`` moves over
    that file at the end, so a symlink stays a symlink; on any exception the
    temporary file is removed and an existing file is left untouched.  A
    replaced file keeps its permission bits; a new one gets the umask's
    default.  An existing ``path`` that is not a regular file, such as a
    FIFO, a device or ``/dev/stdout``, cannot be replaced and is written in
    place.
    """
    path = os.fspath(path)
    try:
        mode = os.stat(path).st_mode
    except OSError:  # no such file yet; any other error is raised by the open below
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as f:
            yield f
        return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        f = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the file the caller asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with f:
            yield f
        try:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


def dump_pentads(fp: io.TextIOBase, space: Space, pentads: Iterable[Pentad]) -> int:
    """Stream the pentad census document, one record per pentad, to ``fp``,
    and return the number of records written.

    Writes what ``json.dump(document, fp, indent=2, ensure_ascii=False)``
    and a newline would, each record as soon as it is built.  A record's id
    is the pentad's position in ``pentads``.  A record joins
    word arrays rendered once per call: the pentad's edges and contexts come
    from one pass over its five flags (:func:`~w52.pentads._derive`), which
    reads each flag's facts once per call into the call's memo and runs the
    pentagram's and the configuration's checks on every record.
    """
    header = {
        "format": "w52-pentad-census",
        "version": 1,
        "generator": {"package": "w52", "points": 63, "lines": 315, "planes": 135},
        "records": [],
    }
    head, tail = json.dumps(header, indent=2, ensure_ascii=False).rsplit("[]", 1)

    # each line triple and each flag's affine quadruple as a word array
    # indented as an item of "edges" or "contexts"; words need no escaping
    indent = "\n" + " " * 10
    word_sep = ",\n" + " " * 12

    @cache  # by line triple or affine edge, so each is rendered once per call
    def fragment(points: tuple[int, ...]) -> str:
        words = word_sep.join([f'"{WORDS[p - 1]}"' for p in points])
        return f"[\n{' ' * 12}{words}{indent}]"

    contexts_by_line = [fragment(line.points) for line in space.lines]
    seen: dict = {}  # the flags _derive has read
    item = "," + indent
    fp.write(f"{head}[")
    sep, end = "\n    ", "]"
    count = 0
    for count, pentad in enumerate(pentads, 1):
        edges, signs, line_ids, negative_contexts = _derive(space, pentad, seen)
        planes = ",\n        ".join(map(str, pentad.planes))
        edges = item.join(map(fragment, edges))
        contexts = item.join([contexts_by_line[lid] for lid in line_ids])
        fp.write(
            f'{sep}{{\n      "id": {count - 1},\n'
            f'      "planes": [\n        {planes}\n      ],\n'
            f'      "pentagram": {{\n        "edges": [\n          {edges}\n        ],\n'
            f'        "negative_edges": {signs.count(-1)}\n      }},\n'
            f'      "config": {{\n        "contexts": [\n          {contexts}\n        ],\n'
            f'        "negative_contexts": {negative_contexts}\n      }}\n    }}'
        )
        sep, end = ",\n    ", "\n  ]"
    fp.write(end + tail + "\n")
    return count


def dump_pentad_csv(fp: io.TextIOBase, space: Space, pentads: Iterable[Pentad]) -> int:
    """Stream the pentad CSV to ``fp``: a header, then one row per pentad with
    its id (its position in ``pentads``), its plane ids and its negative edge
    and context counts (:func:`~w52.pentads.negative_counts`).  Returns the
    number of rows after the header."""
    fp.write("id,planes,negative_edges,negative_contexts\n")
    count = 0
    for count, pentad in enumerate(pentads, 1):
        a, b, c, d, e = pentad.planes
        edges, contexts = negative_counts(space, pentad)
        fp.write(f"{count - 1},{a} {b} {c} {d} {e},{edges},{contexts}\n")
    return count


def load_context_file(path: str | os.PathLike[str]) -> ContextSet:
    """Read a context file: {"contexts": [["XXI", "YYI", "ZZI"], ...]}; OSError if
    it cannot be opened or read, PauliError for any fault in what it holds."""
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except UnicodeDecodeError as exc:
            raise PauliError(f"{path} is not valid UTF-8: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
            raise PauliError(f"{path} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise PauliError(f"{path} is not valid JSON: nested too deeply") from None
    return ContextSet.from_json_obj(obj)
