"""Classification of the pentad configurations into their 47 types.

Every pentad's configuration gets a signature: the number of negative
contexts, the A/B/C distribution of its 25 observables, the class
partition of its five planes, plus the signature of the pentagram living
in the same pentad (negative edges, A/B/C distribution of the ten
pentagram observables, and how many of its type-A observables touch a
negative edge).  The census reads signatures without deriving either
contextual set: this module's packed per-flag table (:func:`_pair_table`)
holds what each flag of ``Space.flags`` (a plane with one line singled out)
adds to a signature as one integer; the census sums these over each
pentad's five (plane, distinguished line) flags, groups the pentads by that
sum, and unpacks one signature per group: exactly 47 types in eight
families keyed by negative-context count.

Census ordinals are assigned by a canonical sort of the signatures and are
not claimed to match the reference table's numbering; agreement with the
published classification is established by comparing the multiset of
8-parameter rows instead.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable

from .geometry import PlaneClass, Space, TaxonomyViolation, _mask_of
from .pauli import TYPE_OF, ObservableType, _checked_record
from .pentads import Pentad

__all__ = [
    "PentagramSignature",
    "ConfigSignature",
    "TypeRecord",
    "Census",
    "TypeCountMismatch",
    "classify_census",
    "Table1Row",
    "table1_fixture",
    "Table1Diff",
    "compare_with_table1",
    "LawViolation",
    "LawReport",
    "structural_laws",
    "LAW_DESCRIPTIONS",
]


class PentagramSignature(
    _checked_record("PentagramSignature", "negative_edges obs_a obs_b obs_c a_on_negative")
):
    """Parameters of a Mermin pentagram, all ints: ``negative_edges`` (odd,
    1..5); ``obs_a``, ``obs_b`` and ``obs_c``, its observables of each type,
    summing to 10; and ``a_on_negative``, its type-A observables incident
    with a negative edge."""

    __slots__ = ()

    def __new__(cls, *args: int, **kwargs: int) -> "PentagramSignature":
        self = super().__new__(cls, *args, **kwargs)
        if self.obs_a + self.obs_b + self.obs_c != 10:
            raise ValueError("pentagram observable types must sum to 10")
        if self.negative_edges % 2 == 0 or not 1 <= self.negative_edges <= 5:
            raise ValueError("negative edge count must be odd in 1..5")
        return self


class ConfigSignature(
    _checked_record(
        "ConfigSignature",
        "negative_contexts obs_a obs_b obs_c neg_planes planes_a planes_b planes_c pentagram",
    )
):
    """Full type signature of a pentad configuration: the eight ints of a
    reference table row, ``negative_contexts`` (odd), the observables of
    each type ``obs_a``, ``obs_b`` and ``obs_c`` (summing to 25), and the
    negative planes and positive planes of each class ``neg_planes``,
    ``planes_a``, ``planes_b`` and ``planes_c`` (summing to 5); then the
    ``pentagram`` in the same pentad, as a :class:`PentagramSignature`."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "ConfigSignature":
        self = super().__new__(cls, *args, **kwargs)
        if self.obs_a + self.obs_b + self.obs_c != 25:
            raise ValueError("observable types must sum to 25")
        if self.neg_planes + self.planes_a + self.planes_b + self.planes_c != 5:
            raise ValueError("plane classes must sum to 5")
        if self.negative_contexts % 2 == 0:
            raise ValueError("negative context count must be odd")
        return self

    @property
    def table_row(self) -> tuple[int, int, int, int, int, int, int, int]:
        """The 8 parameters printed in the reference table."""
        return self[:8]

    @property
    def sort_key(self) -> tuple:
        """Canonical census order: most negative contexts first, then by field."""
        return (-self.negative_contexts, *self[1:])


class TypeRecord(namedtuple("TypeRecord", "assigned_type signature multiplicity example_pentad")):
    """One census type: ``assigned_type`` (int) is its ordinal from 1,
    ``signature`` its :class:`ConfigSignature`, ``multiplicity`` (int) its
    number of pentads and ``example_pentad`` (int) the lowest of their ids."""

    __slots__ = ()


class Census(namedtuple("Census", "records total")):
    """The aggregated classification: ``records`` holds one
    :class:`TypeRecord` per type, in canonical order, and ``total`` (int) is
    the number of pentads classified."""

    __slots__ = ()

    @property
    def family_sizes(self) -> dict[int, int]:
        """Number of types per negative-context count."""
        sizes: Counter[int] = Counter(
            r.signature.negative_contexts for r in self.records
        )
        return dict(sorted(sizes.items()))


class TypeCountMismatch(RuntimeError):
    """The signature grouping did not produce the expected 47 types.

    Carries the offending census so callers can inspect witnesses.
    """

    def __init__(self, census: Census):
        super().__init__(
            f"classification produced {len(census.records)} types, expected 47"
        )
        self.census = census


def _pair_table(space: Space) -> list[dict[int, tuple[int, int]]]:
    """Census fields of every flag (plane P, line L), as ``rows[P][L]``.

    Each entry is a pair.  The first is packed 8 bits a field: the negative
    contexts; 2|P∩T| - |(P∖L)∩T| for T = A, B, C, whose sums are twice the
    configuration's type counts, as each meet point lies in two planes'
    affine parts; the plane-class one-hots; the negative-edge flag;
    |(P∖L)∩T|, whose sums are twice the pentagram's.  The second is the mask
    of (P∖L)∩A on negative edges, else 0.  Only :func:`classify_census`
    reads the table, and each of its calls builds its own.
    """
    by_type = [_mask_of(p for p, t in enumerate(TYPE_OF) if t is k) for k in ObservableType]
    rows: list[dict[int, tuple[int, int]]] = []
    for plane_id, plane in enumerate(space.planes):
        plane_mask = space.plane_masks[plane_id]
        plane_types = [(plane_mask & t).bit_count() for t in by_type]
        class_flags = [plane.plane_class is c for c in PlaneClass]
        row = {}
        for line_id in plane.lines:
            flag = space.flags[plane_id, line_id]
            shared = _mask_of(flag.affine)
            negative = flag.sign < 0
            shared_types = [(shared & t).bit_count() for t in by_type]
            fields = [flag.negative_lines]
            fields += [2 * n - m for n, m in zip(plane_types, shared_types)]
            fields += [*class_flags, negative, *shared_types]
            packed = sum(int(f) << (8 * k) for k, f in enumerate(fields))
            row[line_id] = packed, shared & by_type[0] if negative else 0
        rows.append(row)
    return rows


def classify_census(space: Space, pentads: Iterable[Pentad]) -> Census:
    """Group all pentads by full signature and assign canonical ordinals.

    A group's key is the sum of its pentads' entries in the per-flag table
    (:func:`_pair_table`, built once per call) and the count of their
    type-A meet points on negative edges, its signature is unpacked from
    that key, and its example is its lowest pentad id.  Raises
    ValueError naming the first pentad that has no id,
    :class:`TypeCountMismatch` (with the census attached) if the number of
    distinct signatures is not 47, and then :class:`TaxonomyViolation` if the
    types hold other than the paper's 12,096 pentads.
    """
    rows = _pair_table(space)
    groups: dict[tuple[int, int], list[int]] = {}
    for pentad in pentads:
        (a, b, c, d, e), (la, lb, lc, ld, le) = pentad.planes, pentad.distinguished_lines
        pa, na = rows[a][la]
        pb, nb = rows[b][lb]
        pc, nc = rows[c][lc]
        pd, nd = rows[d][ld]
        pe, ne = rows[e][le]
        key = pa + pb + pc + pd + pe, (na | nb | nc | nd | ne).bit_count()
        pentad_id = pentad.pentad_id
        if pentad_id is None:
            raise ValueError(f"pentad {pentad.planes} has no id to stand as its type's example")
        group = groups.setdefault(key, [0, pentad_id])
        group[0] += 1
        group[1] = min(group[1], pentad_id)
    signed = []
    for (total, a_count), (count, example) in groups.items():
        f = [(total >> (8 * k)) & 255 for k in range(12)]
        pent_sig = PentagramSignature(f[8], f[9] // 2, f[10] // 2, f[11] // 2, a_count)
        sig = ConfigSignature(f[0], f[1] // 2, f[2] // 2, f[3] // 2, *f[4:8], pent_sig)
        signed.append((sig, count, example))
    signed.sort(key=lambda item: item[0].sort_key)
    records = tuple(TypeRecord(i + 1, *item) for i, item in enumerate(signed))
    census = Census(records, sum(r.multiplicity for r in records))
    if len(records) != 47:
        raise TypeCountMismatch(census)
    if census.total != _PENTAD_COUNT:
        raise TaxonomyViolation(f"census holds {census.total} pentads, expected {_PENTAD_COUNT}")
    return census


# ---------------------------------------------------------------------------
# reference table


class Table1Row(
    namedtuple(
        "Table1Row",
        "type_id negative_contexts obs_a obs_b obs_c"
        " neg_planes planes_a planes_b planes_c pentagram_type",
    )
):
    """A row of the published classification table: ``type_id`` (int) is its
    number, the next eight ints are :attr:`ConfigSignature.table_row`, and
    ``pentagram_type`` (str), the pentagram label, is not compared."""

    __slots__ = ()

    @property
    def table_row(self) -> tuple[int, int, int, int, int, int, int, int]:
        return self[1:9]


_PENTAD_COUNT = 12096  # the paper's number of Fano pentads, which the 47 types share

# The published 47-type classification: (T, C-, O_A, O_B, O_C, F-, F+a, F+b,
# F+c, pentagram type).  The last column is kept for documentation only.
_TABLE1 = (
    (1, 17, 2, 11, 12, 3, 2, 0, 0, "5"),
    (2, 15, 0, 15, 10, 5, 0, 0, 0, "1"),
    (3, 15, 1, 15, 9, 3, 2, 0, 0, "2"),
    (4, 13, 0, 11, 14, 5, 0, 0, 0, "4"),
    (5, 13, 1, 10, 14, 4, 1, 0, 0, "21"),
    (6, 13, 1, 11, 13, 3, 2, 0, 0, "9"),
    (7, 13, 2, 11, 12, 3, 1, 1, 0, "6"),
    (8, 13, 3, 10, 12, 2, 2, 1, 0, "22"),
    (9, 11, 1, 10, 14, 4, 0, 1, 0, "3"),
    (10, 11, 2, 10, 13, 2, 2, 1, 0, "14"),
    (11, 11, 2, 11, 12, 3, 1, 1, 0, "24"),
    (12, 11, 3, 11, 11, 3, 1, 0, 1, "10"),
    (13, 11, 4, 10, 11, 2, 2, 0, 1, "30"),
    (14, 11, 5, 11, 9, 1, 2, 1, 1, "28b"),
    (15, 9, 1, 11, 13, 3, 0, 2, 0, "11"),
    (16, 9, 2, 10, 13, 2, 1, 2, 0, "31"),
    (17, 9, 2, 11, 12, 3, 0, 2, 0, "7"),
    (18, 9, 2, 11, 12, 1, 2, 2, 0, "17"),
    (19, 9, 3, 10, 12, 2, 1, 2, 0, "23"),
    (20, 9, 3, 11, 11, 3, 0, 1, 1, "12"),
    (21, 9, 4, 10, 11, 2, 1, 1, 1, "15"),
    (22, 9, 4, 10, 11, 2, 1, 1, 1, "32"),
    (23, 9, 4, 11, 10, 1, 2, 1, 1, "18"),
    (24, 9, 4, 11, 10, 1, 2, 1, 1, "36"),
    (25, 9, 5, 10, 10, 2, 1, 0, 2, "16"),
    (26, 9, 1, 15, 9, 3, 0, 2, 0, "8"),
    (27, 9, 5, 11, 9, 3, 0, 0, 2, "13"),
    (28, 9, 5, 11, 9, 1, 2, 0, 2, "20"),
    (29, 9, 5, 11, 9, 1, 2, 1, 1, "28a"),
    (30, 9, 3, 15, 7, 1, 2, 1, 1, "19"),
    (31, 7, 1, 11, 13, 3, 0, 2, 0, "25"),
    (32, 7, 3, 11, 11, 3, 0, 1, 1, "26"),
    (33, 7, 4, 11, 10, 1, 1, 2, 1, "37b"),
    (34, 7, 5, 10, 10, 2, 1, 0, 2, "34"),
    (35, 7, 5, 11, 9, 3, 0, 0, 2, "27"),
    (36, 7, 6, 10, 9, 0, 2, 1, 2, "41"),
    (37, 5, 4, 10, 11, 2, 0, 2, 1, "33"),
    (38, 5, 4, 11, 10, 1, 1, 2, 1, "37a"),
    (39, 5, 5, 10, 10, 2, 0, 1, 2, "35"),
    (40, 5, 5, 11, 9, 1, 1, 1, 2, "39"),
    (41, 5, 6, 11, 8, 1, 1, 0, 3, "43"),
    (42, 3, 5, 11, 9, 1, 0, 3, 1, "29"),
    (43, 3, 5, 11, 9, 1, 0, 2, 2, "40"),
    (44, 3, 6, 10, 9, 0, 1, 2, 2, "42"),
    (45, 3, 6, 11, 8, 1, 0, 1, 3, "44"),
    (46, 3, 3, 15, 7, 1, 0, 3, 1, "38"),
    (47, 3, 6, 15, 4, 1, 0, 0, 4, "45"),
)


def table1_fixture() -> tuple[Table1Row, ...]:
    """The 47 rows of the published classification table."""
    return tuple(Table1Row(*row) for row in _TABLE1)


class Table1Diff(namedtuple("Table1Diff", "missing unexpected")):
    """Multiset difference between census rows and the reference rows:
    ``missing`` holds the reference rows not in the census and ``unexpected``
    the census rows not in the reference, as sorted (row, count) int pairs."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.missing and not self.unexpected

    def render(self) -> str:
        if self.ok:
            return "census matches all 47 reference rows"
        lines = []
        for row, count in self.missing:
            lines.append(f"missing from census (x{count}): {row}")
        for row, count in self.unexpected:
            lines.append(f"not in reference table (x{count}): {row}")
        return "\n".join(lines)


def compare_with_table1(census: Census) -> Table1Diff:
    """Compare the census 8-parameter rows, with multiplicity, against the
    reference table.  Pentagram refinements and type numbering are excluded
    from the comparison on purpose."""
    ours = Counter(r.signature.table_row for r in census.records)
    reference = Counter(row.table_row for row in table1_fixture())
    missing = tuple(sorted((row, n) for row, n in (reference - ours).items()))
    unexpected = tuple(sorted((row, n) for row, n in (ours - reference).items()))
    return Table1Diff(missing, unexpected)


# ---------------------------------------------------------------------------
# structural laws


LAW_DESCRIPTIONS = {
    "L1": "one type-A observable: positive planes of exactly one class",
    "L2": "two type-A observables: no positive plane of class c",
    "L3": "four type-A observables: exactly one positive plane of class c",
    "L4": "type-B observable count and negative plane count have equal parity",
    "L5": "negative context count is odd and lies in 3..17",
}


def _row_violations(row: tuple[int, int, int, int, int, int, int, int]) -> list[str]:
    c_minus, o_a, _o_b, _o_c, f_minus, f_a, f_b, f_c = row
    broken = []
    if o_a == 1 and sum(1 for f in (f_a, f_b, f_c) if f) != 1:
        broken.append("L1")
    if o_a == 2 and f_c != 0:
        broken.append("L2")
    if o_a == 4 and f_c != 1:
        broken.append("L3")
    if (_o_b % 2) != (f_minus % 2):
        broken.append("L4")
    if c_minus % 2 == 0 or not 3 <= c_minus <= 17:
        broken.append("L5")
    return broken


class LawViolation(namedtuple("LawViolation", "law description row example_pentad")):
    """A census row breaking a structural law: ``law`` (str) is the key in
    :data:`LAW_DESCRIPTIONS` and ``description`` (str) its text, ``row`` the
    type's eight ints and ``example_pentad`` (int) the type's example."""

    __slots__ = ()


class LawReport(namedtuple("LawReport", "violations")):
    """The structural laws over a census: ``violations`` holds one
    :class:`LawViolation` per broken law and row, empty when all hold."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = []
        for law, description in LAW_DESCRIPTIONS.items():
            hits = [v for v in self.violations if v.law == law]
            if hits:
                for v in hits:
                    lines.append(
                        f"{law} VIOLATED by row {v.row} (pentad {v.example_pentad}): {description}"
                    )
            else:
                lines.append(f"{law} satisfied: {description}")
        return "\n".join(lines)


def structural_laws(census: Census) -> LawReport:
    """Evaluate the five structural laws over every census record."""
    violations = []
    for record in census.records:
        row = record.signature.table_row
        for law in _row_violations(row):
            violations.append(
                LawViolation(law, LAW_DESCRIPTIONS[law], row, record.example_pentad)
            )
    return LawReport(tuple(violations))
