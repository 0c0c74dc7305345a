"""Isotropic lines and Fano planes of W(5,2), with signs and plane classes.

The space has 63 points (the observables), 315 totally isotropic lines and
135 Fano planes, with 15 lines and 15 planes through every point and 3
planes through every line.  Every line and plane carries the sign of the
product of its observables, and every plane falls into one of four classes:

* ``negative``  -- plane sign -1; its affine part is all type C and it
  contains exactly three concurrent negative lines;
* ``a``         -- positive, affine part 1 A + 3 C, with negative lines
  (always four, no three concurrent);
* ``b``         -- positive, affine part 1 A + 3 C, no negative lines;
* ``c``         -- positive, affine part 3 A + 1 C.

A line's id is its position in ``Space.lines`` and a plane's its position
in ``Space.planes``, both sorted by point tuple; a :class:`Line` or
:class:`Plane` does not carry it.

Each incidence fact has one table in ``Space``.  ``Space.pair_lines`` (the
line through two points) is built with the lines and gives the planes their
lines.  ``Space.flags`` holds all 945 flags (a plane with one line singled
out): the plane's four points off the line, their sign, the plane's other
negative lines and its six other lines.  The four points' sign is the
plane's sign times the line's, as the seven commuting points of the plane
multiply to the product of those four and the line's three; the fold that
signs each line and plane checks their points, so a flag needs no fold of
its own.  No two flags share an affine quadruple, as the four points of a
Fano plane off a line span the plane.  A Fano pentad is five flags; its
counts and its configuration's contexts are read from them.  Three tables
are built on first use, so building a ``Space`` does not pay for them:
``Space.plane_meets`` (by plane, a row of the single points where it meets
the others) for the pentad search and check; and ``Space.line_tally`` and
``Space.plane_tally`` (the points of each line and plane, packed by
:func:`_tally`) for the configuration check.

Classification failures raise :class:`TaxonomyViolation`: these facts are
structural, so a violation signals a bug or a corrupted table, never bad
input.  What no argument can change has no runtime check, as it could never
fire: the counts 63/315/135 and the three type-B points of every plane follow
from the constant ``COMMUTE_MASK`` and ``TYPE_OF``, and tier-1 pins them
(``test_geometry.py::TestCounts`` and ``TestPlanes::test_b_points_collinear``,
``test_acceptance.py`` criteria 1 and 3).
"""

from __future__ import annotations

import enum
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import permutations

from .pauli import (
    COMMUTE_MASK,
    OBSERVABLES,
    TYPE_OF,
    Observable,
    ObservableType,
    _fold,
    _is_id,
    sign_from_phase,
)

__all__ = [
    "Line",
    "Plane",
    "PlaneClass",
    "Space",
    "TaxonomyViolation",
    "LineNotInPlane",
    "UnknownId",
    "enumerate_lines",
    "enumerate_planes",
    "affine_part",
    "classify_plane",
]

def _mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


#: bit offset of the negative-line count in a line's tally (``Space.line_tally``)
NEGATIVE_BIT = 256

#: by point id, the tally of that point alone
_POINT_TALLY = tuple(1 << 4 * p for p in range(64))


def _tally(points: Iterable[int]) -> int:
    """Point counts packed four bits a point, point p at bit 4p, so tallies add
    up field by field; a line's tally also holds 1 at ``NEGATIVE_BIT`` if the
    line is negative."""
    tally = 0
    for p in points:  # a loop adds large ints faster than sum() does
        tally += _POINT_TALLY[p]
    return tally


def _mask_points(mask: int) -> tuple[int, ...]:
    """The set bits of a mask in increasing order; inverts :func:`_mask_of`."""
    pts = []
    while mask:
        low = mask & -mask
        mask ^= low
        pts.append(low.bit_length() - 1)
    return tuple(pts)


def _span_mask(a: int, b: int, c: int) -> int:
    """Mask of the XOR closure of three points; a plane's mask when they are
    independent, otherwise fewer than seven bits or bit 0 set."""
    ab = a ^ b
    return 1 << a | 1 << b | 1 << c | 1 << ab | 1 << (a ^ c) | 1 << (b ^ c) | 1 << (ab ^ c)


class TaxonomyViolation(RuntimeError):
    """A structural fact of the space failed to hold; indicates a bug."""


class LineNotInPlane(ValueError):
    """The given line does not lie in the given plane."""


class UnknownId(KeyError):
    """No point/line/plane with the requested id."""


class PlaneClass(enum.Enum):
    NEGATIVE = "negative"
    POS_A = "a"
    POS_B = "b"
    POS_C = "c"

    def __str__(self) -> str:
        return self.value


class Line(namedtuple("Line", "points sign")):
    """A totally isotropic line: ``points`` holds its three mutually
    commuting point ids (ints), closed under XOR and sorted, and ``sign``
    (+1 or -1) is the sign of their product.  A line's id is its position
    in ``Space.lines``, 0..314."""

    __slots__ = ()

    @property
    def mask(self) -> int:
        return _mask_of(self.points)


class Plane(namedtuple("Plane", "points lines sign b_line plane_class")):
    """A Fano plane, seven mutually commuting points forming a 2-subspace:
    ``points`` and ``lines`` hold its point ids and line ids (ints), sorted;
    ``sign`` (+1 or -1) is the sign of the points' product; ``b_line`` (int)
    the line of its three type-B points; ``plane_class`` its
    :class:`PlaneClass`.  A plane's id is its position in ``Space.planes``,
    0..134."""

    __slots__ = ()

    @property
    def mask(self) -> int:
        return _mask_of(self.points)


class Flag(namedtuple("Flag", "affine sign negative_lines lines")):
    """A plane with one of its lines singled out, as a pentad reads it:
    ``affine`` holds the plane's four point ids (ints) off the line, sorted;
    ``sign`` (+1 or -1) is the sign of their product, the plane's sign times
    the line's; ``negative_lines`` (int) counts the plane's negative lines
    other than this one; ``lines`` holds its six other line ids (ints), in
    ``Plane.lines`` order."""

    __slots__ = ()


def _sign_of_points(points: Sequence[int]) -> int:
    commuting, xor, k = _fold(points)
    if not commuting or xor:
        raise TaxonomyViolation(f"points {points} do not commute and multiply to +/-identity")
    return sign_from_phase(k)


def enumerate_lines() -> tuple[Line, ...]:
    """All 315 isotropic lines, sorted by point triple; a line's id is its rank.

    The lines depend on the constant ``COMMUTE_MASK`` alone, so their count
    has no runtime check: ``test_geometry.py::TestCounts::test_315_lines``
    and ``test_acceptance.py::test_criterion_1_space_structure`` pin it.
    """
    triples = set()
    for a in range(1, 64):
        for b in _mask_points(COMMUTE_MASK[a] >> (a + 1) << (a + 1)):
            triples.add(tuple(sorted((a, b, a ^ b))))
    return tuple(Line(pts, _sign_of_points(pts)) for pts in sorted(triples))


def enumerate_planes(lines: Sequence[Line], pair_lines: Sequence[Sequence]) -> tuple[Plane, ...]:
    """All 135 Fano planes, sorted by point tuple; a plane's id is its rank.

    ``lines`` must be all 315 lines, as :func:`enumerate_lines` returns
    them; any other count raises :class:`ValueError`.  Each line is
    extended by the lowest point commuting with both generators and not yet
    in a plane through the line, closed under XOR, until no such point is
    left; the three planes through each line collapse by point set.  A
    plane's lines are read off ``Space.pair_lines`` by its point pairs.

    The planes are spans of the constant ``COMMUTE_MASK``, so their count
    has no runtime check: ``test_geometry.py::TestCounts::test_135_planes``
    and ``test_acceptance.py::test_criterion_1_space_structure`` pin it.
    Each plane's class is checked (:func:`_classify`), so a line list with a
    wrong sign raises :class:`TaxonomyViolation`.
    """
    if len(lines) != 315:
        raise ValueError(f"enumerate_planes takes all 315 lines, got {len(lines)}")
    seen: set[int] = set()
    for line in lines:
        a, b, _ = line.points
        # bit 0 is the identity, which commutes with everything
        cand = COMMUTE_MASK[a] & COMMUTE_MASK[b] & ~(line.mask | 1)
        while cand:
            span = _span_mask(a, b, (cand & -cand).bit_length() - 1)
            seen.add(span)
            cand &= ~span
    planes = []
    for pts in sorted(map(_mask_points, seen)):
        line_ids = {pair_lines[p][q] for i, p in enumerate(pts) for q in pts[i + 1 :]}
        if None in line_ids or len(line_ids) != 7:
            raise TaxonomyViolation(f"plane {pts} does not contain exactly 7 lines")
        line_ids = tuple(sorted(line_ids))
        sign = _sign_of_points(pts)
        b_line = _b_line_of(pts, pair_lines)
        plane_class = _classify(pts, line_ids, sign, b_line, lines)
        planes.append(Plane(pts, line_ids, sign, b_line, plane_class))
    return tuple(planes)


def _b_line_of(points: Sequence[int], pair_lines: Sequence[Sequence]) -> int:
    """The line of a plane's three type-B points, read from ``pair_lines``.

    Every plane holds three type-B points, a fact of the constant space that
    ``test_geometry.py::TestPlanes::test_b_points_collinear`` and
    ``test_acceptance.py::test_criterion_3_plane_taxonomy`` pin; any other
    count fails the unpacking into three.  Raises :class:`TaxonomyViolation`
    unless the three lie on a line of ``pair_lines``.
    """
    b_points = [p for p in points if TYPE_OF[p] is ObservableType.B]
    p, q, r = b_points
    line_id = pair_lines[p][q]
    if line_id is None or p ^ q != r:
        raise TaxonomyViolation(f"type-B points {b_points} are not collinear")
    return line_id


def _common_points(lines: Sequence[Line], line_ids: Iterable[int]) -> set[int]:
    sets = [set(lines[lid].points) for lid in line_ids]
    return set.intersection(*sets)


def _classify(
    points: Sequence[int],
    line_ids: Sequence[int],
    sign: int,
    b_line: int,
    lines: Sequence[Line],
) -> PlaneClass:
    b_points = set(lines[b_line].points)
    affine = [p for p in points if p not in b_points]
    counts = Counter(TYPE_OF[p] for p in affine)
    n_a, n_c = counts[ObservableType.A], counts[ObservableType.C]
    negative = [lid for lid in line_ids if lines[lid].sign < 0]
    if sign < 0:
        if n_a != 0 or n_c != 4:
            raise TaxonomyViolation(
                f"negative plane {points} has affine types {n_a}A/{n_c}C, expected 0A/4C"
            )
        if len(negative) != 3 or len(_common_points(lines, negative)) != 1:
            raise TaxonomyViolation(
                f"negative plane {points} lacks exactly 3 concurrent negative lines"
            )
        return PlaneClass.NEGATIVE
    if n_a == 1 and n_c == 3:
        if not negative:
            return PlaneClass.POS_B
        if len(negative) != 4:
            raise TaxonomyViolation(
                f"positive plane {points} has {len(negative)} negative lines, expected 0 or 4"
            )
        for skip in range(4):
            triple = [lid for i, lid in enumerate(negative) if i != skip]
            if _common_points(lines, triple):
                raise TaxonomyViolation(
                    f"plane {points}: three of its negative lines are concurrent"
                )
        return PlaneClass.POS_A
    if n_a == 3 and n_c == 1:
        return PlaneClass.POS_C
    raise TaxonomyViolation(
        f"positive plane {points} has affine types {n_a}A/{n_c}C, outside the taxonomy"
    )


def classify_plane(space: "Space", plane: Plane) -> PlaneClass:
    """Recompute a plane's class from scratch, checking every structural claim."""
    return _classify(plane.points, plane.lines, plane.sign, plane.b_line, space.lines)


def affine_part(plane: Plane, line: Line) -> tuple[int, int, int, int]:
    """The four points of the plane not on the line (an affine plane of order two)."""
    if line.mask & ~plane.mask:
        raise LineNotInPlane(f"line {line.points} does not lie in plane {plane.points}")
    return tuple(p for p in plane.points if p not in line.points)  # type: ignore[return-value]


class Space:
    """The labeled polar space: points, lines, planes, flags, incidence queries.

    Construction enumerates everything once, except ``plane_meets``,
    ``line_tally`` and ``plane_tally``, which are built on first use;
    afterwards the object is immutable in practice and safe to share.
    Nothing derived from a pentad is kept here: a caller that derives many
    pentads keeps its own memo of the flags it has read.
    """

    points: tuple[Observable, ...]
    lines: tuple[Line, ...]
    planes: tuple[Plane, ...]

    def __init__(self) -> None:
        self.points = OBSERVABLES
        self.lines = enumerate_lines()
        #: ``pair_lines[p][q]`` is the line through points p and q, and None
        #: when they are not two distinct points of a line (0 included)
        pair_lines: list[list[int | None]] = [[None] * 64 for _ in range(64)]
        for line_id, line in enumerate(self.lines):
            for p, q in permutations(line.points, 2):
                pair_lines[p][q] = line_id
        self.pair_lines = tuple(map(tuple, pair_lines))
        self.planes = enumerate_planes(self.lines, self.pair_lines)
        self.plane_masks = tuple(plane.mask for plane in self.planes)
        #: the 945 flags, keyed by (plane id, line id); a pentad is five of
        #: them, so its edges, signs, negative counts and contexts are read here
        self.flags: dict[tuple[int, int], Flag] = {}
        for plane_id, plane in enumerate(self.planes):
            negative = {lid for lid in plane.lines if self.lines[lid].sign < 0}
            for i, lid in enumerate(plane.lines):
                line = self.lines[lid]
                quad = _mask_points(self.plane_masks[plane_id] ^ line.mask)
                n = len(negative) - (lid in negative)
                others = plane.lines[:i] + plane.lines[i + 1 :]
                self.flags[plane_id, lid] = Flag(quad, plane.sign * line.sign, n, others)
        self._plane_id_by_mask = {m: i for i, m in enumerate(self.plane_masks)}

    @cached_property
    def plane_meets(self) -> list[bytes]:
        """The 135x135 table of the points where two planes meet alone:
        ``plane_meets[i][j]`` is the one point planes i and j share, and 0
        (the identity) when they share none or a line."""
        masks = self.plane_masks
        n = len(masks)
        meet = [bytearray(n) for _ in range(n)]
        for i in range(n):
            mi = masks[i]
            for j in range(i + 1, n):
                inter = mi & masks[j]
                if inter and inter.bit_count() == 1:
                    meet[i][j] = meet[j][i] = inter.bit_length() - 1
        return [bytes(row) for row in meet]

    @cached_property
    def line_tally(self) -> list[int]:
        """By line id, the :func:`_tally` of its three points, with 1 at
        ``NEGATIVE_BIT`` if the line is negative."""
        return [_tally(line.points) | (line.sign < 0) << NEGATIVE_BIT for line in self.lines]

    @cached_property
    def plane_tally(self) -> list[int]:
        """By plane id, the :func:`_tally` of its seven points."""
        return [_tally(plane.points) for plane in self.planes]

    # -- incidence queries ---------------------------------------------------

    def lines_through(self, point_id: int) -> tuple[int, ...]:
        self._check_point(point_id)
        return tuple(i for i, line in enumerate(self.lines) if point_id in line.points)

    def planes_through(self, point_id: int) -> tuple[int, ...]:
        self._check_point(point_id)
        return tuple(i for i, plane in enumerate(self.planes) if point_id in plane.points)

    def planes_on_line(self, line_id: int) -> tuple[int, ...]:
        if not _is_id(line_id, 0, 314):
            raise UnknownId(f"no line with id {line_id!r}")
        return tuple(i for i, plane in enumerate(self.planes) if line_id in plane.lines)

    def line_id_of(self, points: Iterable[int | Observable]) -> int:
        ids = self._as_ids(points)
        distinct = set(ids)
        if len(distinct) == 3:
            p, q, r = distinct
            line_id = self.pair_lines[p][q]
            if line_id is not None and p ^ q == r:
                return line_id
        raise UnknownId(f"no line with point set {sorted(ids)}")

    def plane_id_of(self, points: Iterable[int | Observable]) -> int:
        ids = self._as_ids(points)
        try:
            return self._plane_id_by_mask[_mask_of(ids)]
        except KeyError:
            raise UnknownId(f"no plane with point set {sorted(ids)}") from None

    def plane_spanned_by(
        self, a: int | Observable, b: int | Observable, c: int | Observable
    ) -> int:
        """Plane id of the closure of three independent commuting points."""
        mask = _span_mask(*self._as_ids((a, b, c)))
        if mask & 1 or mask.bit_count() != 7:
            raise ValueError("generators are not independent")
        try:
            return self._plane_id_by_mask[mask]
        except KeyError:
            raise UnknownId(f"no plane with point set {list(_mask_points(mask))}") from None

    @classmethod
    def _as_ids(cls, points: Iterable[int | Observable]) -> list[int]:
        ids = [p.point_id if isinstance(p, Observable) else p for p in points]
        for p in ids:
            cls._check_point(p)
        return ids

    @staticmethod
    def _check_point(point_id: int) -> None:
        if not _is_id(point_id, 1, 63):
            raise UnknownId(f"no point with id {point_id!r}")
