"""Signatures, the 47-type census, the reference table, and structural laws."""

from collections import Counter

import pytest

from w52.geometry import PlaneClass, TaxonomyViolation
from w52.pauli import TYPE_OF, ObservableType
from w52.pentads import negative_counts
from w52.taxonomy import (
    Census,
    ConfigSignature,
    PentagramSignature,
    TypeCountMismatch,
    classify_census,
    compare_with_table1,
    structural_laws,
    table1_fixture,
    _row_violations,
)


class TestTable1Fixture:
    def test_47_rows(self):
        assert len(table1_fixture()) == 47

    def test_row_1(self):
        row = table1_fixture()[0]
        assert row.type_id == 1
        assert row.table_row == (17, 2, 11, 12, 3, 2, 0, 0)

    def test_row_47(self):
        row = table1_fixture()[46]
        assert row.type_id == 47
        assert row.table_row == (3, 6, 15, 4, 1, 0, 0, 4)

    def test_rows_21_and_22_share_parameters(self):
        rows = table1_fixture()
        assert rows[20].table_row == rows[21].table_row == (9, 4, 10, 11, 2, 1, 1, 1)
        assert rows[20].pentagram_type != rows[21].pentagram_type

    def test_exactly_two_duplicated_rows(self):
        counts = Counter(row.table_row for row in table1_fixture())
        doubled = {row: n for row, n in counts.items() if n > 1}
        assert doubled == {
            (9, 4, 10, 11, 2, 1, 1, 1): 2,
            (9, 4, 11, 10, 1, 2, 1, 1): 2,
        }

    def test_family_sizes(self):
        families = Counter(row.negative_contexts for row in table1_fixture())
        assert dict(families) == {17: 1, 15: 2, 13: 5, 11: 6, 9: 16, 7: 6, 5: 5, 3: 6}

    def test_fixture_rows_satisfy_the_laws(self):
        for row in table1_fixture():
            assert _row_violations(row.table_row) == []


def object_signature(space, pentad, pentagram, config):
    """Reference: the signature read off the derived pentagram and configuration."""
    obs_types = Counter(TYPE_OF[p] for p in config.observables)
    plane_classes = Counter(space.planes[pid].plane_class for pid in pentad.planes)
    pent_types = Counter(TYPE_OF[p] for p in pentagram.observables)
    on_negative = set()
    for edge, sign in zip(pentagram.edges, pentagram.edge_signs):
        if sign < 0:
            on_negative.update(edge)
    a_on_negative = sum(
        1 for p in pentagram.observables if TYPE_OF[p] is ObservableType.A and p in on_negative
    )
    pent_sig = PentagramSignature(
        pentagram.negative_edges,
        pent_types[ObservableType.A],
        pent_types[ObservableType.B],
        pent_types[ObservableType.C],
        a_on_negative,
    )
    return ConfigSignature(
        config.negative_contexts,
        obs_types[ObservableType.A],
        obs_types[ObservableType.B],
        obs_types[ObservableType.C],
        plane_classes[PlaneClass.NEGATIVE],
        plane_classes[PlaneClass.POS_A],
        plane_classes[PlaneClass.POS_B],
        plane_classes[PlaneClass.POS_C],
        pent_sig,
    )


class TestSignatures:
    def test_tables_match_derived_sets_for_every_pentad(self, space, pentads, pentagrams, configs):
        for pentad, pentagram, config in zip(pentads, pentagrams, configs):
            # the derived pentagram reads its signs from space.flags too, so
            # the edge side counts them from the plane and line signs
            negative_edges = sum(
                space.planes[plane_id].sign * space.lines[line_id].sign < 0
                for plane_id, line_id in zip(pentad.planes, pentad.distinguished_lines)
            )
            assert negative_counts(space, pentad) == (negative_edges, config.negative_contexts)
            assert pentagram.negative_edges == negative_edges

    def test_partition_identities(self, census):
        for record in census.records:
            sig = record.signature
            assert sig.obs_a + sig.obs_b + sig.obs_c == 25
            assert sig.neg_planes + sig.planes_a + sig.planes_b + sig.planes_c == 5
            assert sig.pentagram.obs_a + sig.pentagram.obs_b + sig.pentagram.obs_c == 10
            assert sig.pentagram.negative_edges % 2 == 1

    def test_census_contains_the_extreme_rows(self, census):
        rows = {r.signature.table_row for r in census.records}
        assert (17, 2, 11, 12, 3, 2, 0, 0) in rows
        assert (15, 0, 15, 10, 5, 0, 0, 0) in rows


class TestCensus:
    def test_47_types(self, census):
        assert len(census.records) == 47

    def test_multiplicities_sum_to_12096(self, census):
        assert census.total == 12096
        assert sum(r.multiplicity for r in census.records) == 12096

    def test_eight_families_with_expected_sizes(self, census):
        assert census.family_sizes == {3: 6, 5: 5, 7: 6, 9: 16, 11: 6, 13: 5, 15: 2, 17: 1}

    def test_ordinals_are_canonical(self, census):
        keys = [r.signature.sort_key for r in census.records]
        assert keys == sorted(keys)

    def test_deterministic(self, space, pentads, census):
        assert classify_census(space, pentads) == census

    def test_exactly_two_pairs_share_an_8_tuple(self, census):
        counts = Counter(r.signature.table_row for r in census.records)
        doubled = sorted(row for row, n in counts.items() if n == 2)
        assert doubled == [(9, 4, 10, 11, 2, 1, 1, 1), (9, 4, 11, 10, 1, 2, 1, 1)]
        assert all(n <= 2 for n in counts.values())
        # the paired types differ in their pentagram refinement
        for row in doubled:
            pair = [r for r in census.records if r.signature.table_row == row]
            assert pair[0].signature.pentagram != pair[1].signature.pentagram

    def test_census_matches_derived_signatures(self, space, pentads, pentagrams, configs, census):
        signatures = [
            object_signature(space, *derived) for derived in zip(pentads, pentagrams, configs)
        ]
        assert {r.signature: r.multiplicity for r in census.records} == Counter(signatures)
        first, last = {}, {}
        for pentad_id, sig in enumerate(signatures):
            first.setdefault(sig, pentad_id)
            last[sig] = pentad_id
        assert {r.signature: r.example_pentad for r in census.records} == first
        # the census numbers what it is given: reversed, every type keeps its
        # signature and multiplicity, and its example is its last pentad,
        # numbered from the end
        backwards = classify_census(space, reversed(pentads))
        assert [r[:2] for r in backwards.records] == [r[:2] for r in census.records]
        assert backwards.total == census.total
        assert {r.signature: r.example_pentad for r in backwards.records} == {
            sig: len(pentads) - 1 - pentad_id for sig, pentad_id in last.items()
        }

    def test_type_count_mismatch_on_partial_census(self, space, pentads):
        with pytest.raises(TypeCountMismatch) as err:
            classify_census(space, pentads[:50])
        assert isinstance(err.value.census, Census)
        assert len(err.value.census.records) < 47

    def test_a_census_short_of_12096_pentads_is_a_violation(self, space, pentads):
        # the smallest type has 53 pentads, so dropping one keeps all 47 types
        with pytest.raises(TaxonomyViolation, match="^census holds 12095 pentads, expected 12096$"):
            classify_census(space, pentads[1:])


class TestTable1Comparison:
    def test_full_census_matches(self, census):
        diff = compare_with_table1(census)
        assert diff.ok
        assert diff.render() == "census matches all 47 reference rows"

    def test_removing_a_record_is_detected(self, census):
        truncated = Census(census.records[1:])
        diff = compare_with_table1(truncated)
        assert not diff.ok
        assert diff.missing == ((census.records[0].signature.table_row, 1),)
        assert "missing from census" in diff.render()


class TestStructuralLaws:
    def test_all_laws_hold_census_wide(self, census):
        report = structural_laws(census)
        assert report.ok
        assert report.violations == ()
        assert report.render().count("satisfied") == 5

    def test_negative_context_range(self, census):
        values = [r.signature.negative_contexts for r in census.records]
        assert min(values) == 3
        assert max(values) == 17

    def test_row_violation_detection(self):
        # synthetic rows that break each law in turn
        assert "L1" in _row_violations((9, 1, 11, 13, 3, 1, 1, 0))
        assert "L2" in _row_violations((9, 2, 11, 12, 3, 0, 1, 1))
        assert "L3" in _row_violations((9, 4, 10, 11, 2, 1, 2, 0))
        assert "L4" in _row_violations((9, 3, 10, 12, 3, 1, 1, 0))
        assert "L5" in _row_violations((1, 1, 11, 13, 3, 2, 0, 0))
        assert "L5" in _row_violations((19, 1, 11, 13, 3, 2, 0, 0))
