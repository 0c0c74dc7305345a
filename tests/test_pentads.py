"""Pentad enumeration and the pentagram / configuration derivations."""

import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from w52.geometry import Space, TaxonomyViolation, _mask_of
from w52.pauli import OBSERVABLES, WORDS
from w52.pentads import (
    ClosureNotIsotropicPlane,
    NotAPentagram,
    Pentad,
    Pentagram,
    enumerate_pentads,
    pentad_from_planes,
    pentad_to_pentagram,
    pentagram_from_edges,
    pentagram_to_pentad,
    _PAIRS,
    _build_pentad,
)

from conftest import dense_sign

# the worked-example pentagram on a GHZ-style observable set; the last edge
# is the negative one
CANONICAL_EDGES = [
    ["XII", "IYI", "IIY", "XYY"],
    ["YII", "IXI", "IIY", "YXY"],
    ["YII", "IYI", "IIX", "YYX"],
    ["XII", "IXI", "IIX", "XXX"],
    ["XYY", "YXY", "YYX", "XXX"],
]


@functools.cache
def line_id_by_mask(space):
    """The line ids by point mask, built from ``space.lines`` once per space."""
    return {line.mask: line.line_id for line in space.lines}


def reference_check(space, plane_ids, pentad_id=None):
    """Reference pentad check from the plane masks alone: the Pentad, or why
    the five ids are not one."""
    ids = tuple(plane_ids)
    if len(ids) != 5 or list(ids) != sorted(set(ids)):
        return "unsorted or repeated ids"
    masks = [space.plane_masks[p] for p in ids]
    meets = []
    shared = [0] * 5
    seen = 0
    for i, j in _PAIRS:
        inter = masks[i] & masks[j]
        if inter.bit_count() != 1:
            return "planes meeting in a line" if inter else "disjoint planes"
        if seen & inter:
            return "repeated meet"
        seen |= inter
        shared[i] |= inter
        shared[j] |= inter
        meets.append(inter.bit_length() - 1)
    distinguished = []
    line_ids = line_id_by_mask(space)
    for mask, part in zip(masks, shared):
        line_id = line_ids.get(mask ^ part)
        if line_id is None:
            return "shared points include a line"
        distinguished.append(line_id)
    return Pentad(ids, tuple(meets), tuple(distinguished), pentad_id)


def set_meet(space, i, j, point):
    """Overwrite both halves of the meet of planes i and j in ``space.plane_meets``."""
    meet = space.plane_meets
    for x, y in ((i, j), (j, i)):
        row = bytearray(meet[x])
        row[y] = point
        meet[x] = bytes(row)


def depth5_search(space):
    """Reference: ordered clique search over all five planes, pruning on repeated
    meets; every completed 5-set goes to :func:`reference_check`.  It reads
    only the plane masks, not the search's tables."""
    masks = space.plane_masks
    n = len(masks)
    single = [sum(1 << j for j, mj in enumerate(masks) if (mi & mj).bit_count() == 1)
              for mi in masks]
    above = [~((1 << (j + 1)) - 1) & ((1 << n) - 1) for j in range(n)]
    out = []

    def extend(chosen, cand, used):
        depth = len(chosen)
        while cand:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            bits = 0
            for c in chosen:
                b = masks[c] & masks[j]
                if (used | bits) & b:
                    break
                bits |= b
            else:
                if depth == 4:
                    pentad = reference_check(space, chosen + [j], len(out))
                    if isinstance(pentad, Pentad):
                        out.append(pentad)
                else:
                    extend(chosen + [j], cand & single[j] & above[j], used | bits)

    for i in range(n):
        extend([i], single[i] & above[i], 0)
    return tuple(out)


def rejected_sample(space, pentads, per_reason=20):
    """Seeded 5-sets that are not pentads, ``per_reason`` for each reason
    :func:`reference_check` gives: pentads with one plane replaced at random,
    and pentads with their ids reversed or one id repeated."""
    rng = random.Random(52)
    found = {"unsorted or repeated ids": []}
    for pentad in rng.sample(pentads, per_reason // 2):
        ids = pentad.planes
        found["unsorted or repeated ids"] += [ids[::-1], ids[:4] + ids[3:4]]
    while len(found) < 5 or min(map(len, found.values())) < per_reason:
        ids = list(rng.choice(pentads).planes)
        ids[rng.randrange(5)] = rng.randrange(len(space.planes))
        if len(set(ids)) < 5:
            continue
        ids.sort()
        reason = reference_check(space, ids)
        if isinstance(reason, str) and len(found.setdefault(reason, [])) < per_reason:
            found[reason].append(tuple(ids))
    return found


class TestEnumeration:
    def test_count_is_12096(self, pentads):
        assert len(pentads) == 12096

    def test_ids_are_ranks_in_lexicographic_order(self, pentads):
        tuples = [p.planes for p in pentads]
        assert tuples == sorted(tuples)
        assert [p.pentad_id for p in pentads] == list(range(12096))

    def test_meet_points_pairwise_distinct(self, pentads):
        for p in pentads:
            assert len(set(p.meet_points)) == 10

    def test_pairwise_single_point_intersections(self, space, pentads):
        for p in pentads[:200]:
            for a, b in itertools.combinations(p.planes, 2):
                inter = space.plane_masks[a] & space.plane_masks[b]
                assert inter.bit_count() == 1
                assert inter == 1 << p.meet(a, b)

    def test_shared_points_complement_distinguished_line(self, space, pentads):
        for p in pentads[:200]:
            for plane_id in p.planes:
                plane = space.planes[plane_id]
                line = space.lines[p.distinguished_line(plane_id)]
                shared = p.shared_points(plane_id)
                assert set(plane.points) - set(line.points) == set(shared)

    def test_rerun_is_identical(self, space, pentads):
        assert enumerate_pentads(space) == pentads

    def test_matches_the_depth5_reference_search(self, space, pentads):
        reference = depth5_search(space)
        assert reference == pentads
        assert [p.pentad_id for p in reference] == [p.pentad_id for p in pentads]

    def test_pentad_check_agrees_with_the_reference(self, space, pentads):
        for pentad in pentads:
            built = _build_pentad(space, pentad.planes, pentad.pentad_id)
            reference = reference_check(space, pentad.planes, pentad.pentad_id)
            assert built == reference == pentad
            assert built.pentad_id == reference.pentad_id
        rejected = rejected_sample(space, pentads)
        assert sorted(rejected) == [
            "disjoint planes",
            "planes meeting in a line",
            "repeated meet",
            "shared points include a line",
            "unsorted or repeated ids",
        ]
        for reason, sample in rejected.items():
            assert len(sample) == 20
            for ids in sample:
                assert reference_check(space, ids) == reason
                assert _build_pentad(space, ids) is None

    def test_a_repeated_meet_fails_the_xor_or_the_line(self, space):
        # why _build_pentad needs no test of its own that the ten meets are
        # distinct: four points of a plane with a repeat never pass its check
        line = space.pair_lines
        for plane in space.planes:
            for four in itertools.product(plane.points, repeat=4):
                p, q, r, s = four
                xor = p ^ q ^ r ^ s
                found = None if xor else line[p ^ q][p ^ r]
                if len(set(four)) < 4:
                    assert found is None
                elif not xor:
                    # four distinct points: the line is the rest of the plane
                    assert found is not None
                    assert space.lines[found].mask == plane.mask ^ _mask_of(four)

    @pytest.mark.parametrize("to", ["0", "a point of the plane", "a point off the plane"])
    def test_corrupt_meet_fails_exactly_the_pentads_reading_it(self, pentads, to):
        space = Space()
        a, b = pentads[4321].planes[:2]
        right = space.plane_meets[a][b]
        points = space.planes[a].points
        wrong = {
            "0": 0,
            "a point of the plane": min(p for p in points if p != right),
            "a point off the plane": min(set(range(1, 64)) - set(points)),
        }[to]
        set_meet(space, a, b, wrong)
        rejected = {p.pentad_id for p in pentads if _build_pentad(space, p.planes) is None}
        assert rejected == {p.pentad_id for p in pentads if {a, b} <= set(p.planes)}
        assert len(rejected) == 32

    def test_a_zero_meet_is_rejected_even_when_every_xor_holds(self, pentads):
        # moving the meet of a and b into their meets with c keeps every XOR
        # at 0 and every lookup a line, so only the test for a 0 meet is left
        space = Space()
        pentad = pentads[4321]
        a, b, c = pentad.planes[:3]
        ab, ac, bc = pentad.meet(a, b), pentad.meet(a, c), pentad.meet(b, c)
        for i, j, point in ((a, b, 0), (a, c, ac ^ ab), (b, c, bc ^ ab)):
            set_meet(space, i, j, point)
        assert _build_pentad(space, pentad.planes) is None

    def test_five_planes_through_one_point_are_rejected(self, space):
        # their ten meets are all that point, so every XOR holds and only the
        # line lookup (of row 0) is left to reject them
        masks = space.plane_masks
        spread = next(
            five
            for five in itertools.combinations(space.planes_through(1), 5)
            if all((masks[i] & masks[j]).bit_count() == 1
                   for i, j in itertools.combinations(five, 2))
        )
        assert reference_check(space, spread) == "repeated meet"
        assert _build_pentad(space, spread) is None

    def test_a_5_set_found_twice_is_an_error(self):
        # each line of plane 0 searched twice: every 5-set of its group is
        # found twice, and the repeat is rejected
        space = Space()
        plane = space.planes[0]
        space.planes = [plane._replace(lines=plane.lines * 2), *space.planes[1:]]
        with pytest.raises(TaxonomyViolation, match="not a new pentad"):
            enumerate_pentads(space)

    def test_every_plane_in_448_pentads(self, pentads):
        counts = Counter(plane for p in pentads for plane in p.planes)
        assert len(counts) == 135
        assert set(counts.values()) == {448}

    def test_every_point_a_meet_of_1920_pentads(self, pentads):
        counts = Counter(m for p in pentads for m in p.meet_points)
        assert sorted(counts) == list(range(1, 64))
        assert set(counts.values()) == {1920}

    def test_pentad_from_planes_round_trip(self, space, pentads):
        sample = pentads[4321]
        rebuilt = pentad_from_planes(space, sample.planes, pentad_id=sample.pentad_id)
        assert rebuilt == sample

    def test_pentad_from_planes_rejects_non_pentads(self, space):
        with pytest.raises(ValueError):
            pentad_from_planes(space, [0, 1, 2, 3, 4])
        with pytest.raises(ValueError):
            pentad_from_planes(space, [0, 0, 1, 2, 3])

    @pytest.mark.parametrize("plane_ids", [None, 5, 1.0])
    def test_pentad_from_planes_rejects_a_non_list(self, space, plane_ids):
        with pytest.raises(ValueError, match="plane ids must be a list of ints"):
            pentad_from_planes(space, plane_ids)

    @pytest.mark.parametrize("bad", [True, -1, 135, "XII"])
    def test_pentad_from_planes_rejects_bad_ids(self, space, bad):
        # -1 would wrap to plane 134, and (2, 4, 16, 82, 134) is a pentad
        pentad_from_planes(space, [2, 4, 16, 82, 134])
        with pytest.raises(ValueError, match="plane id must be an integer in 0..134"):
            pentad_from_planes(space, [bad, 2, 4, 16, 82])

    @pytest.mark.parametrize(
        "method, args, named",
        [
            ("meet", (2, 2), "plane 2 "),
            ("meet", (2, 3), "plane 3 "),
            ("shared_points", (3,), "plane 3 "),
            ("distinguished_line", (3,), "plane 3 "),
        ],
    )
    def test_plane_queries_name_a_bad_plane(self, space, method, args, named):
        pentad = pentad_from_planes(space, [2, 4, 16, 82, 134])
        with pytest.raises(ValueError, match=named) as excinfo:
            getattr(pentad, method)(*args)
        assert "(2, 4, 16, 82, 134)" in str(excinfo.value)

    @pytest.mark.parametrize("method", ["meet", "shared_points", "distinguished_line"])
    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_plane_queries_reject_a_plane_one_that_is_not_an_int(self, pentads, method, bad):
        # True == 1.0 == 1, so a bare tuple.index would take either for plane 1
        pentad = next(p for p in pentads if 1 in p.planes)
        rest = (max(pentad.planes),) if method == "meet" else ()
        getattr(pentad, method)(1, *rest)
        with pytest.raises(ValueError, match=f"plane {bad!r} is not in pentad"):
            getattr(pentad, method)(bad, *rest)


class TestPentagrams:
    def test_every_observable_on_exactly_two_edges(self, pentagrams):
        for g in pentagrams:
            counts = {}
            for edge in g.edges:
                for p in edge:
                    counts[p] = counts.get(p, 0) + 1
            assert set(counts) == set(g.observables)
            assert all(c == 2 for c in counts.values())

    def test_negative_edge_count_is_odd(self, pentagrams):
        for g in pentagrams:
            assert g.negative_edges % 2 == 1
            assert 1 <= g.negative_edges <= 5

    def test_edge_signs_sampled_against_oracle(self, pentagrams):
        for g in pentagrams[::481]:
            for edge, sign in zip(g.edges, g.edge_signs):
                assert dense_sign(edge) == sign

    def test_bijection_onto_distinct_pentagrams(self, pentagrams):
        assert len(set(pentagrams)) == 12096


class TestConfigs:
    def test_25_observables_30_contexts(self, configs):
        for c in configs:
            assert len(c.observables) == 25
            assert len(c.contexts) == 30

    def test_occurrence_profile_10_by_6_and_15_by_2(self, pentads, configs):
        for pentad, config in zip(pentads, configs):
            counts = {p: 0 for p in config.observables}
            for ctx in config.contexts:
                for p in ctx:
                    counts[p] += 1
            meets = set(pentad.meet_points)
            assert sum(1 for p, n in counts.items() if n == 6) == 10
            assert sum(1 for p, n in counts.items() if n == 2) == 15
            for p, n in counts.items():
                assert n == (6 if p in meets else 2)

    def test_observables_are_meets_plus_distinguished_points(self, space, pentads, configs):
        for pentad, config in zip(pentads[:300], configs[:300]):
            meets = set(pentad.meet_points)
            line_pts = set()
            for plane_id in pentad.planes:
                line_pts.update(space.lines[pentad.distinguished_line(plane_id)].points)
            assert len(line_pts) == 15
            assert not (meets & line_pts)
            assert meets | line_pts == set(config.observables)

    def test_contexts_are_30_distinct_lines(self, space, configs):
        line_ids = {line.points: line.line_id for line in space.lines}
        for c in configs[:300]:
            ids = {line_ids[ctx] for ctx in c.contexts}
            assert len(ids) == 30

    def test_negative_context_count_odd_between_3_and_17(self, configs):
        seen = set()
        for c in configs:
            n = c.negative_contexts
            assert n % 2 == 1
            assert 3 <= n <= 17
            seen.add(n)
        assert seen == {3, 5, 7, 9, 11, 13, 15, 17}

    def test_context_signs_sampled_against_oracle(self, configs):
        for c in configs[::1511]:
            for ctx, sign in zip(c.contexts, c.context_signs):
                assert dense_sign(ctx) == sign


class TestCanonicalPentagram:
    def test_edge_signs_against_oracle(self):
        g = pentagram_from_edges(CANONICAL_EDGES)
        for edge, sign in zip(g.edges, g.edge_signs):
            assert dense_sign(edge) == sign
        assert g.negative_edges == 1

    def test_maps_to_a_census_pentad_and_back(self, space, pentads):
        g = pentagram_from_edges(CANONICAL_EDGES)
        pentad = pentagram_to_pentad(space, g)
        assert pentad_to_pentagram(space, pentad) == g
        by_planes = {p.planes: p for p in pentads}
        assert pentad.planes in by_planes
        assert by_planes[pentad.planes] == pentad  # pentad_id excluded from equality


class TestRoundTrip:
    def test_pentad_pentagram_pentad_identity_for_all(self, space, pentads, pentagrams):
        for pentad, g in zip(pentads, pentagrams):
            assert pentagram_to_pentad(space, g) == pentad

    def test_edges_as_point_ids_rebuild_the_pentagram(self, pentagrams):
        g = pentagrams[4321]
        assert pentagram_from_edges(g.edges) == g


class TestPentagramValidation:
    def test_wrong_edge_count(self):
        with pytest.raises(NotAPentagram):
            pentagram_from_edges(CANONICAL_EDGES[:4])

    def test_edges_that_are_no_sequence(self):
        with pytest.raises(NotAPentagram):
            pentagram_from_edges(None)

    def test_non_commuting_edge(self):
        bad = [list(e) for e in CANONICAL_EDGES]
        bad[0] = ["XII", "ZII", "IIY", "XYY"]
        with pytest.raises(NotAPentagram):
            pentagram_from_edges(bad)

    def test_broken_occurrence_profile(self):
        bad = [list(e) for e in CANONICAL_EDGES[:4]] + [["XYY", "YXY", "YYX", "XXX"]]
        bad[0][0] = "ZII"  # no longer closed either
        with pytest.raises(NotAPentagram):
            pentagram_from_edges(bad)

    def test_closure_checked_when_bypassing_the_validator(self, space):
        # a hand-built Pentagram with a tampered edge must not survive
        g = pentagram_from_edges(CANONICAL_EDGES)
        tampered = Pentagram(g.observables, g.edges[:4] + ((1, 2, 3, 4),), g.edge_signs)
        with pytest.raises((NotAPentagram, ClosureNotIsotropicPlane)):
            pentagram_to_pentad(space, tampered)

    @pytest.mark.parametrize(
        "changes",
        [
            {"edge_signs": (1, 1, 1, 1, 1)},
            {"observables": (1, 2, 3)},
            {"edge_signs": None},
            {"edges": None},
            # pentad 4321's edges, with one point written as its word
            {"edges": ((17, 20, 43, 46), (17, 21, 26, 30), (20, 21, 38, 39),
                       (22, 26, 39, 43), (22, 30, 38, "YXZ"))},
        ],
        ids=["no negative edge", "three observables", "no signs", "no edges", "a word among ids"],
    )
    def test_signs_and_observables_must_match_the_edges(self, space, pentads, changes):
        g = pentad_to_pentagram(space, pentads[4321])
        with pytest.raises(NotAPentagram):
            pentagram_to_pentad(space, g._replace(**changes))

    def test_edge_and_point_order_do_not_matter(self, space, pentads):
        g = pentad_to_pentagram(space, pentads[4321])
        reversed_g = Pentagram(
            g.observables, tuple(edge[::-1] for edge in g.edges[::-1]), g.edge_signs[::-1]
        )
        assert pentagram_to_pentad(space, reversed_g) == pentads[4321]

    @given(
        position=st.integers(0, 4),
        edge=st.one_of(
            st.lists(
                st.one_of(
                    st.integers(-3, 69),
                    st.sampled_from(WORDS),
                    st.sampled_from(OBSERVABLES),
                    st.none(),
                    st.booleans(),
                    st.lists(st.integers(1, 63), max_size=2),
                ),
                max_size=5,
            ).map(tuple),
            st.none(),
            st.integers(),
        ),
        kept=st.integers(0, 5),
    )
    @example(position=4, edge=(30, 38, 46, 64), kept=5)  # 64 is past the last point id
    @example(position=0, edge=(-1, 17, 20, 43), kept=5)  # a negative shift raises ValueError
    @example(position=4, edge=(22, 30, 38, "YXZ"), kept=5)  # the right edge, one word in it
    @example(position=4, edge=(22, 30, 38, [46]), kept=5)
    @example(position=4, edge=(22, 30, 38, True), kept=5)
    @example(position=4, edge=None, kept=5)
    def test_a_malformed_edge_raises_only_pentagram_errors(
        self, space, pentads, position, edge, kept
    ):
        # one edge replaced, then only the first ``kept`` edges kept; the
        # edges must build pentad 4321's pentagram or be rejected, whether
        # their items are point ids, words or observables
        g = pentad_to_pentagram(space, pentads[4321])
        edges = (g.edges[:position] + (edge,) + g.edges[position + 1 :])[:kept]
        try:
            assert pentagram_from_edges(edges) == g
        except NotAPentagram:
            pass
        try:
            pentad = pentagram_to_pentad(space, g._replace(edges=edges))
        except (NotAPentagram, ClosureNotIsotropicPlane):
            return
        assert sorted(map(sorted, edges)) == sorted(map(sorted, g.edges))
        assert pentad == pentads[4321]
