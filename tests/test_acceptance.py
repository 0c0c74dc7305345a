"""Acceptance criteria, one test per criterion.

Every outcome here is an exact integer; the only tolerances are runtime
budgets.  Run with ``pytest tests/test_acceptance.py -s`` to see one
PASS/FAIL line per criterion.
"""

import itertools
import time
from collections import Counter

from w52.cli import main
from w52.contextuality import ContextSet, Verdict, analyze, wa_symbol
from w52.geometry import PlaneClass, Space, classify_plane
from w52.pauli import ObservableType, TYPE_OF, commutes, from_point_id
from w52.pentads import enumerate_pentads
from w52.taxonomy import compare_with_table1, structural_laws, table1_fixture

from conftest import dense_commutes, dense_sign


def _report(criterion: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def test_criterion_1_space_structure():
    t0 = time.perf_counter()
    space = Space()
    ok = len(space.points) == 63 and len(space.lines) == 315 and len(space.planes) == 135
    ok = ok and all(len(space.lines_through(p)) == 15 for p in range(1, 64))
    ok = ok and all(len(space.planes_through(p)) == 15 for p in range(1, 64))
    ok = ok and all(len(space.planes_on_line(l)) == 3 for l in range(315))
    elapsed = time.perf_counter() - t0
    _report(1, f"63 points, 315 lines, 135 planes, 15/15/3 incidence "
               f"({elapsed:.2f}s < 1s)", ok and elapsed < 1.0)


def test_criterion_2_algebra_oracle_equivalence(space):
    t0 = time.perf_counter()
    ok = all(
        commutes(from_point_id(a), from_point_id(b)) == dense_commutes(a, b)
        for a, b in itertools.combinations(range(1, 64), 2)
    )
    ok = ok and all(line.sign == dense_sign(line.points) for line in space.lines)
    ok = ok and all(plane.sign == dense_sign(plane.points) for plane in space.planes)
    elapsed = time.perf_counter() - t0
    _report(2, f"1953 commutation pairs and 315+135 signs match the dense oracle "
               f"({elapsed:.2f}s < 10s)", ok and elapsed < 10.0)


def test_criterion_3_plane_taxonomy(space):
    ok = True
    for plane in space.planes:
        # raises TaxonomyViolation on any structural failure
        ok = ok and classify_plane(space, plane) is plane.plane_class
        b_points = [p for p in plane.points if TYPE_OF[p] is ObservableType.B]
        ok = ok and len(b_points) == 3
        ok = ok and space.lines[plane.b_line].points == tuple(sorted(b_points))
        negative = [lid for lid in plane.lines if space.lines[lid].sign < 0]
        if plane.plane_class is PlaneClass.NEGATIVE:
            affine = [p for p in plane.points if p not in b_points]
            ok = ok and all(TYPE_OF[p] is ObservableType.C for p in affine)
            ok = ok and len(negative) == 3
            common = set.intersection(*(set(space.lines[l].points) for l in negative))
            ok = ok and len(common) == 1
        elif plane.plane_class is PlaneClass.POS_A:
            ok = ok and len(negative) == 4
            for triple in itertools.combinations(negative, 3):
                ok = ok and not set.intersection(
                    *(set(space.lines[l].points) for l in triple)
                )
    _report(3, "all 135 planes classify into {negative,a,b,c} with every "
               "structural claim holding", ok)


def test_criterion_4_census_size(space, pentads, pentagrams):
    # the session fixtures hold the pentagram of every pentad, derived once
    t0 = time.perf_counter()
    found = enumerate_pentads(space)
    elapsed = time.perf_counter() - t0
    ok = len(found) == 12096 and found == pentads
    ok = ok and len(set(pentagrams)) == 12096
    _report(4, f"12096 pentads, bijective onto 12096 distinct pentagrams "
               f"({elapsed:.2f}s < 60s)", ok and elapsed < 60.0)


def test_criterion_5_contextuality(pentagrams, configs):
    ok = True
    for g in pentagrams:
        report = analyze(ContextSet.from_point_ids(g.edges))
        ok = ok and report.verdict is Verdict.VALID_PARITY_PROOF
        ok = ok and report.negative_count == g.negative_edges
    for config in configs:
        cs = ContextSet.from_point_ids(config.contexts)
        report = analyze(cs)
        ok = ok and report.verdict is Verdict.VALID_PARITY_PROOF
        ok = ok and report.negative_count == config.negative_contexts
        ok = ok and str(wa_symbol(cs)) == "10_6 15_2 − 30_3"
        counts = Counter(report.occurrence_counts.values())
        ok = ok and counts == {6: 10, 2: 15}
    _report(5, "all 12096 configurations and 12096 pentagrams are valid parity "
               "proofs; every configuration has symbol 10_6 15_2 − 30_3", ok)


def test_criterion_6_classification(census):
    ok = len(census.records) == 47
    ok = ok and census.family_sizes == {17: 1, 15: 2, 13: 5, 11: 6, 9: 16, 7: 6, 5: 5, 3: 6}
    ok = ok and compare_with_table1(census).ok
    counts = Counter(r.signature.table_row for r in census.records)
    ok = ok and counts[(9, 4, 10, 11, 2, 1, 1, 1)] == 2
    ok = ok and counts[(9, 4, 11, 10, 1, 2, 1, 1)] == 2
    ok = ok and len(table1_fixture()) == 47
    ok = ok and census.total == 12096
    _report(6, "47 types in 8 families, 8-parameter rows match the reference "
               "table with multiplicity, multiplicities sum to 12096", ok)


def test_criterion_7_structural_laws(census):
    report = structural_laws(census)
    _report(7, "laws L1-L5 hold over the entire census", report.ok)


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"census_{run}.csv"
        assert main(["census", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _report(8, "census CSV is byte-identical across two separate CLI runs", ok)


def test_criterion_9_negative_controls():
    anticommuting = analyze(ContextSet.from_words([["XII", "YII", "ZII"]]))
    not_closed = analyze(ContextSet.from_words([["XII", "IXI", "IIX"]]))
    even_negative = analyze(
        ContextSet.from_words([["XXI", "YYI", "ZZI"], ["XXI", "YYI", "ZZI"]])
    )
    ok = anticommuting.verdict is Verdict.MALFORMED_CONTEXT
    ok = ok and not anticommuting.contexts[0].commuting
    ok = ok and not_closed.verdict is Verdict.MALFORMED_CONTEXT
    ok = ok and not_closed.contexts[0].commuting and not not_closed.contexts[0].closed
    ok = ok and even_negative.verdict is Verdict.NOT_CONTEXTUAL
    ok = ok and even_negative.all_even and not even_negative.odd_negative
    _report(9, "verifier rejects anticommuting, non-closed, and even-negative "
               "inputs with distinct diagnoses", ok)
