"""Fano pentads and the two contextual sets every pentad hosts.

A Fano pentad is a set of five Fano planes of W(5,2) whose pairwise
intersections are ten distinct single points, such that inside each plane
the four shared points are the complement of one of its lines (the
*distinguished* line).  Each pentad yields

* a Mermin pentagram: the 10 meet points on 5 four-element contexts (the
  distinguished affine quadruples), and
* a 25-observable / 30-context configuration: keep all 35 plane points
  (25 after identification) and take the 6 non-distinguished lines of each
  plane as contexts.

Enumeration finds every pentad once, from its lowest plane: the planes
meeting it at the first three points off its distinguished line are picked
among the planes above it that meet it there alone, and the fifth plane is
forced, as the closure of their fourth shared points (four points of a Fano
plane are the complement of a line exactly when their XOR is 0).  Every
found 5-set still passes the full pentad check, which works on point ids
alone: it reads the ten meets from ``Space.plane_meets``, requires each
plane's four to XOR to 0, and reads the distinguished lines from
``Space.pair_lines`` (the line through two points).  The canonical output order
is lexicographic on the sorted plane id 5-tuples, and pentad ids are the
ranks in that order.  The search is a stream: it walks the lowest planes in
id order, sorts one plane's finds (at most 448 pentads) and yields each as
soon as it passes the check, so a command that reads every pentad once never
holds all 12,096; :func:`enumerate_pentads` collects the stream in a tuple.

Each plane of a pentad with its distinguished line is a flag of
``Space.flags``, which holds that plane's pentagram edge, its sign, the
plane's other negative lines and its six other lines.  Both sets come from
one pass over the pentad's five flags (:func:`_derive`), which reads each
flag's edge, sign, lines and their summed point tallies, orders the five by
edge and runs every check of both sets once.  What it reads of a flag goes
into a memo dict that the caller keeps: :func:`pentad_to_pentagram` and
:func:`pentad_to_config` pass a new one, and the JSON export keeps one for
the whole call, so it reads each flag once and no memo outlives its call.
The derived sets are views for display, export and verification.
:func:`negative_counts` sums a pentad's two negative counts, which the
pentad CSV writes, from its five ``Space.flags`` entries without building
either set; the census sums its signatures over the same five flags
(:mod:`w52.taxonomy`).  The tests check the census and the CSV against both
sets derived for every pentad, so the derivations' checks still cover the
whole census.

The pentagram round trip has no context check of its own: the parity-proof
verifier (:mod:`w52.contextuality`) checks :func:`pentagram_from_edges`, and
the flag table checks :func:`pentagram_to_pentad`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter

from .geometry import NEGATIVE_BIT, Space, TaxonomyViolation, _span_mask, _tally
from .contextuality import ContextSet, Verdict, WASymbol, analyze, wa_symbol
from .pauli import Observable, PauliError, _is_id, parse_observable

__all__ = [
    "Pentad",
    "Pentagram",
    "ContextualConfig",
    "NotAPentagram",
    "ClosureNotIsotropicPlane",
    "enumerate_pentads",
    "negative_counts",
    "pentad_from_planes",
    "pentad_to_pentagram",
    "pentad_to_config",
    "pentagram_from_edges",
    "pentagram_to_pentad",
]

# positions of the 10 unordered pairs within a sorted plane 5-tuple
_PAIRS = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


# the point-count fields of a context tally, below its negative count
_COUNT_BITS = (1 << NEGATIVE_BIT) - 1

# ten observables on two contexts each, five contexts of four: 10_2 − 5_4
_PENTAGRAM_SYMBOL = WASymbol(((2, 10),), ((4, 5),))

# by point id, the bit of that point in a point mask
_POINT_BIT = tuple(1 << p for p in range(64))


class NotAPentagram(ValueError):
    """The context set is not a Mermin pentagram."""


class ClosureNotIsotropicPlane(ValueError):
    """An edge's XOR closure is not a totally isotropic Fano plane."""


class Pentad(
    namedtuple("Pentad", "planes meet_points distinguished_lines pentad_id", defaults=(None,))
):
    """Five planes with ten distinct single-point meets and affine shared parts.

    ``planes`` holds the five plane ids (ints), sorted; ``meet_points`` the
    ten pairwise intersection point ids in the fixed pair order (0,1), (0,2),
    ..., (3,4) over ``planes``; ``distinguished_lines[i]`` is the line id of
    ``planes[i]`` whose complement is that plane's four shared points.
    ``pentad_id`` (int, or None by default) is the census rank and is
    excluded from equality so that reconstructed pentads compare equal to
    enumerated ones.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Pentad):
            return self[:3] == other[:3]
        return NotImplemented

    # tuple's own != would compare pentad_id too
    def __ne__(self, other: object) -> bool:
        if isinstance(other, Pentad):
            return self[:3] != other[:3]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self[:3])

    def meet(self, plane_a: int, plane_b: int) -> int:
        """The single intersection point of two of the pentad's planes."""
        i, j = sorted((self._position(plane_a), self._position(plane_b)))
        if i == j:
            raise ValueError(f"plane {plane_a!r} given twice for a meet in pentad {self.planes}")
        return self.meet_points[_PAIRS.index((i, j))]

    def shared_points(self, plane_id: int) -> tuple[int, int, int, int]:
        """The four meet points lying in the given plane, sorted."""
        pos = self._position(plane_id)
        pts = [m for (i, j), m in zip(_PAIRS, self.meet_points) if pos in (i, j)]
        return tuple(sorted(pts))  # type: ignore[return-value]

    def distinguished_line(self, plane_id: int) -> int:
        """Line id whose complement in the plane equals the shared points."""
        return self.distinguished_lines[self._position(plane_id)]

    def _position(self, plane_id: int) -> int:
        try:
            return self.planes.index(_check_plane_id(plane_id))
        except ValueError:
            raise ValueError(f"plane {plane_id!r} is not in pentad {self.planes}") from None


class Pentagram(namedtuple("Pentagram", "observables edges edge_signs")):
    """Ten observables on five 4-element contexts, each observable on two:
    ``observables`` holds the ten point ids (ints), sorted; ``edges`` the
    contexts as sorted quadruples of point ids, in sorted order; and
    ``edge_signs`` the sign (+1 or -1) of each edge, aligned with ``edges``."""

    __slots__ = ()

    @property
    def negative_edges(self) -> int:
        return sum(1 for s in self.edge_signs if s < 0)


class ContextualConfig(namedtuple("ContextualConfig", "observables contexts context_signs")):
    """Twenty-five observables on thirty 3-element contexts (isotropic lines):
    ``observables`` holds the point ids (ints), sorted; ``contexts`` the
    contexts as sorted triples of point ids, in sorted order; and
    ``context_signs`` the sign (+1 or -1) of each, aligned with ``contexts``."""

    __slots__ = ()

    @property
    def negative_contexts(self) -> int:
        return sum(1 for s in self.context_signs if s < 0)


# ---------------------------------------------------------------------------
# enumeration


def _build_pentad(
    space: Space, plane_ids: Sequence[int], pentad_id: int | None = None
) -> Pentad | None:
    """Assemble a Pentad from five plane ids, or None if they are not one.

    The ids must be sorted and distinct, and each pair must meet in a single
    point of ``Space.plane_meets``.  Four distinct points of a Fano plane are
    the complement of one of its lines exactly when their XOR is 0, and the
    line is then ``{p^q, p^r, q^r}``: so each plane's four meets must XOR to
    0, and ``Space.pair_lines`` must hold the line through two such XORs.
    That also makes the ten meets distinct, with no test of its own: four
    points of a plane with a repeat fail the XOR or the lookup (see
    ``test_a_repeated_meet_fails_the_xor_or_the_line``), and a point that is
    the meet of two disjoint pairs ``{a, b}`` and ``{c, d}`` lies in ``a``
    and ``c``, so it is also ``a``'s meet with ``c``.
    """
    ids = tuple(plane_ids)
    if len(ids) != 5:
        return None
    a, b, c, d, e = ids
    if not a < b < c < d < e:
        return None
    meet = space.plane_meets
    ma, mb, mc, md = meet[a], meet[b], meet[c], meet[d]
    meets = ab, ac, ad, ae, bc, bd, be, cd, ce, de = (
        ma[b], ma[c], ma[d], ma[e], mb[c], mb[d], mb[e], mc[d], mc[e], md[e]
    )
    # A 0 meet would pass the XOR as no point at all (see
    # test_a_zero_meet_is_rejected_even_when_every_xor_holds).  Each meet lies
    # in two planes, so e's XOR is the XOR of the other four and is not tested.
    if 0 in meets or (
        ab ^ ac ^ ad ^ ae or ab ^ bc ^ bd ^ be or ac ^ bc ^ cd ^ ce or ad ^ bd ^ cd ^ de
    ):
        return None
    line = space.pair_lines
    distinguished = (
        line[ab ^ ac][ab ^ ad],
        line[ab ^ bc][ab ^ bd],
        line[ac ^ bc][ac ^ cd],
        line[ad ^ bd][ad ^ cd],
        line[ae ^ be][ae ^ ce],
    )
    if None in distinguished:
        return None
    return Pentad(ids, meets, distinguished, pentad_id)


def _search(space: Space) -> Iterator[Pentad]:
    """Yield all pentads in canonical order, each found once from its lowest plane.

    The other four planes of a pentad meet its lowest plane ``a`` at the four
    points ``q1 < q2 < q3 < q4`` off its distinguished line, one each.  So for
    each line of ``a``, ``b``, ``c`` and ``d`` run over the planes above ``a``
    meeting it only at ``q1``, ``q2`` and ``q3``, and must meet each other in
    three distinct single points.  Each then needs its fourth shared point to
    be the XOR of its three meets, and ``e`` is the closure of those points.

    The planes are walked in id order, and each plane's finds are sorted and
    yielded before the next plane is searched, so one plane's group (at most
    448 pentads) is held at a time; the ids are ranks over the whole stream.
    A 5-set that fails :func:`_build_pentad`, or is found twice (a repeat
    has the same lowest plane, so it lands in the same group), raises
    :class:`TaxonomyViolation` when the stream reaches it.
    """
    meet = space.plane_meets
    plane_id_by_mask = space._plane_id_by_mask
    bit = _POINT_BIT
    rank = 0
    for a, plane in enumerate(space.planes):
        meet_a = meet[a]
        partners: dict[int, list[int]] = {p: [] for p in plane.points}
        for x, p in enumerate(meet_a[a + 1 :], a + 1):
            if p:
                partners[p].append(x)
        found = []
        for line_id in plane.lines:
            q1, q2, q3, _ = space.flags[a, line_id].affine
            for b in partners[q1]:
                meet_b = meet[b]
                for c in partners[q2]:
                    bc = meet_b[c]
                    if not bc:
                        continue
                    meet_c = meet[c]
                    for d in partners[q3]:
                        bd, cd = meet_b[d], meet_c[d]
                        if not bd or not cd or bd == cd or bd == bc or cd == bc:
                            continue
                        # the closure of the fourth shared points: _span_mask, from a table
                        x, y, z = q1 ^ bc ^ bd, q2 ^ bc ^ cd, q3 ^ bd ^ cd
                        xy = x ^ y
                        e = plane_id_by_mask.get(
                            bit[x] | bit[y] | bit[z] | bit[xy] | bit[x ^ z] | bit[y ^ z]
                            | bit[xy ^ z]
                        )
                        if e is not None and e > a:
                            found.append(tuple(sorted((a, b, c, d, e))))
        found.sort()
        previous = None
        for ids in found:
            pentad = _build_pentad(space, ids, rank)
            if pentad is None or ids == previous:
                raise TaxonomyViolation(f"pentad search proposed planes {ids}, not a new pentad")
            yield pentad
            previous = ids
            rank += 1


def enumerate_pentads(space: Space) -> tuple[Pentad, ...]:
    """All Fano pentads, in lexicographic order of their plane 5-tuples.

    The search numbers the pentads in that order, so their ids are their
    ranks.
    """
    return tuple(_search(space))


def pentad_from_planes(
    space: Space, plane_ids: Sequence[int], pentad_id: int | None = None
) -> Pentad:
    """Validate five plane ids as a Fano pentad and assemble it.

    Raises ValueError for anything else, ``plane_ids`` that cannot be
    iterated included.
    """
    try:
        ids = sorted(map(_check_plane_id, plane_ids))
    except TypeError:
        raise ValueError(f"plane ids must be a list of ints, got {plane_ids!r}") from None
    pentad = _build_pentad(space, ids, pentad_id)
    if pentad is None:
        raise ValueError(f"planes {ids} do not form a Fano pentad")
    return pentad


def _check_plane_id(plane_id: object) -> int:
    if not _is_id(plane_id, 0, 134):
        raise ValueError(f"plane id must be an integer in 0..134, got {plane_id!r}")
    return plane_id


# ---------------------------------------------------------------------------
# derived contextual sets


def _derive(space: Space, pentad: Pentad, seen: dict) -> tuple:
    """Both contextual sets of a pentad, in one pass over its five flags.

    ``seen`` is the caller's memo of the flags read so far: the first time
    it meets a flag, keyed as in ``Space.flags``, the pass stores ``(affine,
    sign, lines, tally, mask, plane_tally)``: the flag's affine quadruple,
    its sign, its six other line ids, the sum of their ``Space.line_tally``
    entries, their 315-bit line mask (bit ``line_id`` set for each) and the
    plane's ``Space.plane_tally``.  Returns ``(edges, signs, line_ids,
    negative_contexts)``: the pentagram's edges, as affine quadruples in
    sorted order, and their signs; the configuration's 30 context line ids,
    sorted, and its number of negative contexts.

    Raises :class:`TaxonomyViolation` unless the number of negative edges is
    odd, the contexts are 30 distinct lines, the five planes cover 25 points,
    the contexts hold each meet point six times and every other covered point
    twice, and the number of negative contexts is odd.  The occurrences and
    the negative count are summed from the tallies of the contexts' own
    lines, read with them from the flags, so they check the lines returned.
    """
    facts = []
    for key in zip(pentad.planes, pentad.distinguished_lines):
        fact = seen.get(key)
        if fact is None:
            affine, sign, _, lines = space.flags[key]
            line_tally = space.line_tally
            tally = mask = 0
            for other in lines:  # a loop adds large ints faster than sum() does
                tally += line_tally[other]
                mask |= 1 << other
            fact = seen[key] = affine, sign, lines, tally, mask, space.plane_tally[key[0]]
        facts.append(fact)
    # no two flags share an affine quadruple, so the facts sort by it alone
    f0, f1, f2, f3, f4 = sorted(facts)
    edges = f0[0], f1[0], f2[0], f3[0], f4[0]
    signs = f0[1], f1[1], f2[1], f3[1], f4[1]
    if signs.count(-1) % 2 == 0:
        raise TaxonomyViolation(f"pentagram of pentad {pentad.planes} has even negative count")
    if (f0[4] | f1[4] | f2[4] | f3[4] | f4[4]).bit_count() != 30:  # as len(set(line_ids)) != 30
        raise TaxonomyViolation(f"pentad {pentad.planes} yields repeated contexts")
    covered = f0[5] | f1[5] | f2[5] | f3[5] | f4[5]  # 1 in the field of each covered point
    if covered.bit_count() != 25:
        raise TaxonomyViolation(
            f"pentad {pentad.planes} covers {covered.bit_count()} points, expected 25"
        )
    tally = f0[3] + f1[3] + f2[3] + f3[3] + f4[3]
    counts, negative = tally & _COUNT_BITS, tally >> NEGATIVE_BIT
    expected = 2 * covered + 4 * _tally(pentad.meet_points)
    if counts != expected:
        p = next(p for p in range(64) if (counts ^ expected) >> 4 * p & 15)
        raise TaxonomyViolation(
            f"point {p} occurs in {counts >> 4 * p & 15} contexts of pentad {pentad.planes}, "
            f"expected {expected >> 4 * p & 15}"
        )
    if negative % 2 == 0:
        raise TaxonomyViolation(f"config of pentad {pentad.planes} has even negative count")
    return edges, signs, sorted(f0[2] + f1[2] + f2[2] + f3[2] + f4[2]), negative


def negative_counts(space: Space, pentad: Pentad) -> tuple[int, int]:
    """The pentagram's negative edges and the configuration's negative contexts.

    Equal to ``(pentad_to_pentagram(...).negative_edges,
    pentad_to_config(...).negative_contexts)``, summed over the pentad's five
    ``Space.flags`` entries without building either set: each flag gives one
    edge and the plane's negative lines other than the distinguished one.
    """
    flags = space.flags
    edges = contexts = 0
    for key in zip(pentad.planes, pentad.distinguished_lines):
        flag = flags[key]
        edges += flag.sign < 0
        contexts += flag.negative_lines
    return edges, contexts


def pentad_to_pentagram(space: Space, pentad: Pentad) -> Pentagram:
    """The Mermin pentagram on the pentad's ten meet points.

    Edges are the five distinguished affine quadruples, listed in
    lexicographic order.  The pentad's configuration is derived with it, and
    all the checks of :func:`pentad_to_config` run.
    """
    edges, signs, _, _ = _derive(space, pentad, {})
    return Pentagram(tuple(sorted(pentad.meet_points)), edges, signs)


def pentad_to_config(space: Space, pentad: Pentad) -> ContextualConfig:
    """The 25-observable / 30-context configuration hosted by the pentad.

    Contexts are the six non-distinguished lines of each plane, in line-id
    order; observables are the union of the five planes' points, sorted:
    the ten meet points, which occur in six contexts each, and the fifteen
    distinguished-line points, which occur in two.

    Both of the pentad's sets are derived in one pass over its five flags,
    which raises :class:`TaxonomyViolation` unless the pentagram's number of
    negative edges is odd, the contexts are 30 distinct lines, the five
    planes cover 25 points, the contexts hold each meet point six times and
    every other covered point twice, and the number of negative contexts is
    odd.  The occurrences and the negative count are summed from the
    tallies of the contexts' own line ids (``Space.line_tally``), so they
    check the lines the caller gets back.
    """
    _, _, line_ids, _ = _derive(space, pentad, {})
    _, contexts, signs = zip(*itemgetter(*line_ids)(space.lines))  # the Line fields as columns
    a, b, c, d, e = itemgetter(*pentad.planes)(space.planes)
    observables = sorted({*a.points, *b.points, *c.points, *d.points, *e.points})
    return ContextualConfig(tuple(observables), contexts, signs)


# ---------------------------------------------------------------------------
# pentagram round trip


def pentagram_from_edges(edges: Iterable[Iterable[Observable | str | int]]) -> Pentagram:
    """Build a Pentagram from five 4-element contexts, validating everything.

    An edge item is an :class:`Observable`, a Pauli word or a point id in
    1..63, the form ``Pentagram.edges`` itself uses.  The edges are a
    pentagram exactly when :func:`analyze` finds a valid parity proof and
    :func:`wa_symbol` reads ``10_2 − 5_4``; otherwise, and for any other
    item, :class:`NotAPentagram`.  A word that does not parse raises the
    parser's own error.
    """
    rows = sorted(tuple(sorted(map(_edge_point, _items(edge)))) for edge in _items(edges))
    try:
        context_set = ContextSet.from_point_ids(rows)
    except PauliError as exc:
        raise NotAPentagram(f"edges {rows}: {exc}") from None
    report, symbol = analyze(context_set), wa_symbol(context_set)
    if report.verdict is not Verdict.VALID_PARITY_PROOF or symbol != _PENTAGRAM_SYMBOL:
        raise NotAPentagram(f"edges {rows} are {report.verdict} with symbol {symbol}")
    return Pentagram(
        tuple(o.point_id for o in report.occurrence_counts),
        tuple(rows),
        tuple(r.sign for r in report.contexts),
    )


def pentagram_to_pentad(space: Space, pentagram: Pentagram) -> Pentad:
    """Close each edge under XOR into a Fano plane and assemble the pentad.

    Inverts :func:`pentad_to_pentagram` and is checked by it: the pentad's
    own pentagram, read from ``Space.flags``, must equal the input up to the
    order of the edges and of the points in an edge, signs and observables
    included.  Edges that are not five sets of four point ids, or that do not
    close into the planes of a pentad, are rejected before that.
    """
    rows = [_items(edge) for edge in _items(pentagram.edges)]
    if len(rows) != 5 or any(
        len(row) != 4 or not all(_is_id(p, 1, 63) for p in row) or len(set(row)) != 4
        for row in rows
    ):
        raise NotAPentagram(f"edges {rows} are not five sets of four point ids")
    rows = [tuple(sorted(row)) for row in rows]
    plane_ids = []
    for row in rows:
        plane_id = space._plane_id_by_mask.get(_span_mask(*row[:3]))
        if plane_id is None:
            raise ClosureNotIsotropicPlane(
                f"closure of edge {row} is not a totally isotropic plane"
            )
        plane_ids.append(plane_id)
    pentad = _build_pentad(space, sorted(plane_ids))
    if pentad is None:
        raise NotAPentagram(f"edge closures {sorted(plane_ids)} do not form a Fano pentad")
    derived = pentad_to_pentagram(space, pentad)
    signs = _items(pentagram.edge_signs)
    if (
        len(signs) != 5
        or sorted(zip(rows, signs)) != list(zip(derived.edges, derived.edge_signs))
        or pentagram.observables != derived.observables
    ):
        raise NotAPentagram(f"signs or observables of {pentagram} contradict {pentad.planes}")
    return pentad


def _items(value: object) -> tuple:
    """The items of an edge list, an edge or a sign list."""
    try:
        return tuple(value)  # type: ignore[call-overload]
    except TypeError:
        raise NotAPentagram(f"{value!r} is not a sequence") from None


def _edge_point(item: object) -> int:
    """The point id of an edge item: an Observable, a Pauli word or an id."""
    if isinstance(item, Observable):
        return item.point_id
    if isinstance(item, str):
        return parse_observable(item).point_id
    if not _is_id(item, 1, 63):
        raise NotAPentagram(f"edge item {item!r} is not an observable, a Pauli word or a point id")
    return item  # type: ignore[return-value]
