"""Lines, planes, incidence, sign valuations, and the plane taxonomy."""

import itertools

import pytest

from w52.geometry import (
    LineNotInPlane,
    PlaneClass,
    TaxonomyViolation,
    UnknownId,
    _b_line_of,
    _mask_points,
    _sign_of_points,
    affine_part,
    classify_plane,
    enumerate_planes,
)
from w52.pauli import ObservableType, TYPE_OF, parse_observable

from conftest import dense_sign


def O(word):  # noqa: E743
    return parse_observable(word)


class TestCounts:
    def test_63_points(self, space):
        assert len(space.points) == 63

    def test_315_lines(self, space):
        assert len(space.lines) == 315

    def test_135_planes(self, space):
        assert len(space.planes) == 135

    def test_15_lines_through_every_point(self, space):
        for p in range(1, 64):
            assert len(space.lines_through(p)) == 15

    def test_15_planes_through_every_point(self, space):
        for p in range(1, 64):
            assert len(space.planes_through(p)) == 15

    def test_3_planes_through_every_line(self, space):
        for lid in range(315):
            assert len(space.planes_on_line(lid)) == 3


class TestLines:
    def test_closed_and_isotropic(self, space):
        for line in space.lines:
            a, b, c = line.points
            assert a ^ b ^ c == 0
            for p, q in itertools.combinations(line.points, 2):
                from w52.pauli import commutes, from_point_id

                assert commutes(from_point_id(p), from_point_id(q))

    def test_signs_match_dense_oracle(self, space):
        # the count of negative lines is not fixed a priori; the oracle is
        negative = 0
        for line in space.lines:
            oracle = dense_sign(line.points)
            assert line.sign == oracle
            negative += oracle < 0
        assert negative == sum(1 for line in space.lines if line.sign < 0)

    def test_canonical_ids_are_ranks(self, space):
        triples = [line.points for line in space.lines]
        assert triples == sorted(triples)

    def test_pair_lines_name_the_line_through_two_points(self, space):
        expected = {}
        for line in space.lines:
            for p, q in itertools.permutations(_mask_points(line.mask), 2):
                expected[p, q] = line.line_id
        assert len(expected) == 315 * 6
        assert len(space.pair_lines) == 64
        for p, row in enumerate(space.pair_lines):
            assert len(row) == 64
            for q, line_id in enumerate(row):
                # None off the 1,890 pairs, row and column 0 included
                assert line_id == expected.get((p, q))


class TestPlanes:
    def test_closed_under_xor(self, space):
        for plane in space.planes:
            pts = set(plane.points)
            for p, q in itertools.combinations(plane.points, 2):
                assert p ^ q in pts

    def test_seven_lines_each_point_on_three(self, space):
        for plane in space.planes:
            assert len(plane.lines) == 7
            for p in plane.points:
                incident = [
                    lid for lid in plane.lines if p in space.lines[lid].points
                ]
                assert len(incident) == 3

    def test_signs_match_dense_oracle(self, space):
        for plane in space.planes:
            assert plane.sign == dense_sign(plane.points)

    def test_sign_equals_product_of_line_signs_through_any_point(self, space):
        # the chosen point is covered three times and squares away; every
        # other point exactly once
        for plane in space.planes:
            for p in plane.points:
                product = 1
                for lid in plane.lines:
                    if p in space.lines[lid].points:
                        product *= space.lines[lid].sign
                assert product == plane.sign

    def test_b_points_collinear(self, space):
        for plane in space.planes:
            b_points = [p for p in plane.points if TYPE_OF[p] is ObservableType.B]
            assert len(b_points) == 3
            assert space.lines[plane.b_line].points == tuple(sorted(b_points))
            assert plane.b_line in plane.lines

    def test_a_pair_table_missing_a_line_is_a_violation(self, space):
        # a plane whose pairs miss one of its lines reads None for them, which
        # must fail the line count, not stand in for the seventh line
        line = space.lines[space.planes[0].lines[0]]
        table = [list(row) for row in space.pair_lines]
        for p, q in itertools.permutations(line.points, 2):
            table[p][q] = None
        with pytest.raises(TaxonomyViolation, match="does not contain exactly 7 lines"):
            enumerate_planes(space.lines, table)

    def test_b_points_off_a_line_are_a_violation(self, space):
        # the B line is read from the pair table by the first two B points;
        # no line through them, or a third B point off it, must not pass
        plane = space.planes[0]
        p, q, r = (x for x in plane.points if TYPE_OF[x] is ObservableType.B)
        table = [list(row) for row in space.pair_lines]
        table[p][q] = None
        with pytest.raises(TaxonomyViolation, match="are not collinear"):
            _b_line_of(plane.points, table)
        off = next(x for x in range(1, 64) if TYPE_OF[x] is ObservableType.B and x not in (p, q, r))
        with pytest.raises(TaxonomyViolation, match="are not collinear"):
            _b_line_of((p, q, off), space.pair_lines)

    def test_span_of_single_qubit_xs_is_positive_with_positive_lines(self, space):
        pid = space.plane_spanned_by(O("XII"), O("IXI"), O("IIX"))
        plane = space.planes[pid]
        assert plane.sign == 1
        for lid in plane.lines:
            assert dense_sign(space.lines[lid].points) == 1

    def test_first_negative_plane_in_canonical_order(self, space):
        first = next(p for p in space.planes if p.plane_class is PlaneClass.NEGATIVE)
        assert first.sign == -1
        assert dense_sign(first.points) == -1


class TestSignOfPoints:
    def test_a_line_has_its_sign(self):
        points = tuple(O(w).point_id for w in ("XXI", "YYI", "ZZI"))
        assert _sign_of_points(points) == -1 == dense_sign(points)

    @pytest.mark.parametrize(
        "words",
        [
            # closed with an even phase, -1, but XII and YII anticommute
            ("XII", "YII", "XZI", "YZI"),
            # commuting, not closed
            ("XII", "IXI", "IIX"),
        ],
        ids=["not commuting", "not closed"],
    )
    def test_a_set_that_is_not_a_context_is_a_violation(self, words):
        points = tuple(O(w).point_id for w in words)
        with pytest.raises(TaxonomyViolation, match="do not commute and multiply"):
            _sign_of_points(points)


class TestAffinePart:
    def test_example_span_xs(self, space):
        plane = space.planes[space.plane_spanned_by(O("XII"), O("IXI"), O("IIX"))]
        b_line = space.lines[plane.b_line]
        assert b_line.points == tuple(
            sorted(o.point_id for o in (O("XXI"), O("XIX"), O("IXX")))
        )
        quad = affine_part(plane, b_line)
        assert set(quad) == {o.point_id for o in (O("XII"), O("IXI"), O("IIX"), O("XXX"))}

    def test_always_four_points_with_zero_xor(self, space):
        # also checks every flag of space.flags against routes that share
        # no code with it: affine_part, the dense oracle and direct counts
        assert len(space.flags) == 945
        for plane in space.planes:
            negative = [lid for lid in plane.lines if space.lines[lid].sign < 0]
            for lid in plane.lines:
                line = space.lines[lid]
                quad = affine_part(plane, line)
                assert len(quad) == 4
                x = 0
                for p in quad:
                    x ^= p
                assert x == 0
                flag = space.flags[plane.plane_id, lid]
                assert flag.affine == quad
                assert flag.sign == dense_sign(quad) == plane.sign * line.sign
                assert flag.negative_lines == sum(1 for n in negative if n != lid)

    def test_no_two_flags_share_an_affine_quadruple(self, space):
        # a pentad's derivation sorts its five flags' facts by this alone
        assert len({flag.affine for flag in space.flags.values()}) == 945

    def test_line_not_in_plane(self, space):
        plane = space.planes[0]
        outside = next(
            line for line in space.lines if line.line_id not in plane.lines
        )
        with pytest.raises(LineNotInPlane):
            affine_part(plane, outside)


class TestPlaneClasses:
    def test_partition_is_exhaustive(self, space):
        # classify_plane raises TaxonomyViolation on any structural failure
        for plane in space.planes:
            assert classify_plane(space, plane) is plane.plane_class

    def test_negative_iff_sign_negative(self, space):
        for plane in space.planes:
            assert (plane.plane_class is PlaneClass.NEGATIVE) == (plane.sign == -1)

    def test_span_xs_is_class_c(self, space):
        pid = space.plane_spanned_by(O("XII"), O("IXI"), O("IIX"))
        assert space.planes[pid].plane_class is PlaneClass.POS_C

    def test_example_class_a_plane(self, space):
        pid = space.plane_spanned_by(O("XXI"), O("YYI"), O("IIX"))
        plane = space.planes[pid]
        assert plane.plane_class is PlaneClass.POS_A
        negative = [lid for lid in plane.lines if space.lines[lid].sign < 0]
        assert len(negative) == 4
        expected = {
            frozenset(o.point_id for o in map(O, words))
            for words in (
                ("XXI", "YYI", "ZZI"),
                ("XXX", "YYX", "ZZI"),
                ("XXX", "ZZX", "YYI"),
                ("YYX", "ZZX", "XXI"),
            )
        }
        assert {frozenset(space.lines[lid].points) for lid in negative} == expected
        for lid in negative:
            assert dense_sign(space.lines[lid].points) == -1

    def test_negative_plane_structure(self, space):
        for plane in space.planes:
            if plane.plane_class is not PlaneClass.NEGATIVE:
                continue
            negative = [lid for lid in plane.lines if space.lines[lid].sign < 0]
            assert len(negative) == 3
            common = set.intersection(*(set(space.lines[lid].points) for lid in negative))
            assert len(common) == 1
            quad = affine_part(plane, space.lines[plane.b_line])
            assert all(TYPE_OF[p] is ObservableType.C for p in quad)

    def test_class_a_planes_have_four_negative_lines_no_three_concurrent(self, space):
        for plane in space.planes:
            if plane.plane_class is not PlaneClass.POS_A:
                continue
            negative = [lid for lid in plane.lines if space.lines[lid].sign < 0]
            assert len(negative) == 4
            for triple in itertools.combinations(negative, 3):
                common = set.intersection(
                    *(set(space.lines[lid].points) for lid in triple)
                )
                assert not common

    def test_negative_line_incidence_per_point(self, space):
        # positive planes: every point on 0 or 2 negative lines; negative
        # planes: 3 through the common point, 1 through the rest
        for plane in space.planes:
            negative = [lid for lid in plane.lines if space.lines[lid].sign < 0]
            for p in plane.points:
                n = sum(1 for lid in negative if p in space.lines[lid].points)
                if plane.sign > 0:
                    assert n in (0, 2)
                else:
                    assert n in (1, 3)


class TestIncidence:
    def test_line_in_plane_consistency(self, space):
        for plane in space.planes:
            for lid in plane.lines:
                assert plane.plane_id in space.planes_on_line(lid)
        for lid in range(315):
            for pid in space.planes_on_line(lid):
                assert lid in space.planes[pid].lines

    def test_line_id_of_names_every_line(self, space):
        for line in space.lines:
            a, b, c = line.points
            assert space.line_id_of((c, a, b)) == line.line_id
            # a repeated point collapses, as in the point set it names
            assert space.line_id_of((a, b, c, a)) == line.line_id
        observables = [O("XII"), O("IXI"), O("XXI")]
        found = space.lines[space.line_id_of(observables)]
        assert found.points == tuple(sorted(o.point_id for o in observables))

    def test_line_id_of_takes_exactly_a_line_point_set(self, space):
        # the point set must be a line's three points, no fewer and no more
        line = space.lines[0]
        a, b, c = line.points
        off = min(set(range(1, 64)) - set(line.points))
        for points in ([a, b], [a, b, a], [a, b, c, off], [], [a]):
            with pytest.raises(UnknownId):
                space.line_id_of(points)

    def test_unknown_ids(self, space):
        with pytest.raises(UnknownId):
            space.lines_through(0)
        with pytest.raises(UnknownId):
            space.planes_through(64)
        with pytest.raises(UnknownId):
            space.planes_on_line(315)
        with pytest.raises(UnknownId):
            space.line_id_of([1, 2, 4])  # not a line: 1^2=3 not 4

    @pytest.mark.parametrize("bad", [True, -1, 64, 1.0, "XII"])
    def test_bad_point_ids_are_unknown(self, space, bad):
        # bool is an int subclass, and a negative id indexes or shifts from the end
        calls = [
            lambda: space.lines_through(bad),
            lambda: space.planes_through(bad),
            lambda: space.line_id_of([bad, 2, 3]),
            lambda: space.plane_id_of([bad, 2, 3, 4, 5, 6, 7]),
            lambda: space.plane_spanned_by(1, 2, bad),
        ]
        for call in calls:
            with pytest.raises(UnknownId):
                call()

    @pytest.mark.parametrize("bad", [True, False, -1, 315, 1.0, "XII"])
    def test_bad_line_ids_are_unknown(self, space, bad):
        with pytest.raises(UnknownId):
            space.planes_on_line(bad)


class TestDerivedStatistics:
    """Global sign statistics; recorded, not asserted against any source."""

    def test_negative_line_count_agrees_with_oracle(self, space):
        engine = sum(1 for line in space.lines if line.sign < 0)
        oracle = sum(1 for line in space.lines if dense_sign(line.points) < 0)
        assert engine == oracle
        print(f"negative lines: {engine} of 315")

    def test_negative_plane_count_agrees_with_oracle(self, space):
        engine = sum(1 for plane in space.planes if plane.sign < 0)
        oracle = sum(1 for plane in space.planes if dense_sign(plane.points) < 0)
        assert engine == oracle
        print(f"negative planes: {engine} of 135")
