"""The generic parity-proof verifier and the occurrence/size symbol."""

import random

import pytest
from hypothesis import given, strategies as st

from w52.contextuality import ContextSet, Verdict, analyze, wa_symbol
from w52.pauli import DuplicateObservable, InvalidLetter, PauliError

CANONICAL_EDGES = [
    ["XII", "IYI", "IIY", "XYY"],
    ["YII", "IXI", "IIY", "YXY"],
    ["YII", "IYI", "IIX", "YYX"],
    ["XII", "IXI", "IIX", "XXX"],
    ["XYY", "YXY", "YYX", "XXX"],
]


class TestContextSet:
    def test_from_words_and_back(self):
        cs = ContextSet.from_words(CANONICAL_EDGES)
        assert cs.to_json_obj() == {"contexts": CANONICAL_EDGES}

    def test_bad_word(self):
        with pytest.raises(InvalidLetter):
            ContextSet.from_words([["QXI", "IXI", "XXI"]])

    def test_empty_context_rejected(self):
        with pytest.raises(PauliError):
            ContextSet.from_words([[]])

    def test_duplicate_in_context_rejected(self):
        with pytest.raises(DuplicateObservable):
            ContextSet.from_words([["XII", "XII"]])

    def test_from_json_obj_schema(self):
        with pytest.raises(ValueError):
            ContextSet.from_json_obj(["XXI"])
        with pytest.raises(ValueError):
            ContextSet.from_json_obj({"contexts": "XXI YYI ZZI"})


class TestAnalyze:
    def test_canonical_pentagram_is_a_valid_proof(self):
        report = analyze(ContextSet.from_words(CANONICAL_EDGES))
        assert report.verdict is Verdict.VALID_PARITY_PROOF
        assert report.negative_count == 1
        assert report.all_even and report.odd_negative
        assert all(c == 2 for c in report.occurrence_counts.values())

    def test_single_positive_line_is_not_contextual(self):
        report = analyze(ContextSet.from_words([["XII", "IXI", "XXI"]]))
        assert report.verdict is Verdict.NOT_CONTEXTUAL
        assert report.negative_count == 0
        assert not report.all_even
        assert report.contexts[0].commuting and report.contexts[0].closed
        assert report.contexts[0].sign == 1

    def test_non_commuting_context_is_malformed(self):
        report = analyze(ContextSet.from_words([["XII", "YII", "ZII"]]))
        assert report.verdict is Verdict.MALFORMED_CONTEXT
        assert not report.contexts[0].commuting
        assert report.contexts[0].sign is None

    def test_non_closed_context_is_malformed(self):
        report = analyze(ContextSet.from_words([["XII", "IXI", "IIX"]]))
        assert report.verdict is Verdict.MALFORMED_CONTEXT
        assert report.contexts[0].commuting
        assert not report.contexts[0].closed
        assert report.contexts[0].sign is None

    def test_even_negative_count_is_not_contextual(self):
        # two copies of a negative line: occurrences even, negatives even
        contexts = [["XXI", "YYI", "ZZI"], ["XXI", "YYI", "ZZI"]]
        report = analyze(ContextSet.from_words(contexts))
        assert report.verdict is Verdict.NOT_CONTEXTUAL
        assert report.negative_count == 2
        assert report.all_even and not report.odd_negative

    def test_permutation_invariance(self):
        base = analyze(ContextSet.from_words(CANONICAL_EDGES))
        rng = random.Random(7)
        for _ in range(10):
            rows = [list(row) for row in CANONICAL_EDGES]
            for row in rows:
                rng.shuffle(row)
            rng.shuffle(rows)
            report = analyze(ContextSet.from_words(rows))
            assert report.verdict is base.verdict
            assert report.negative_count == base.negative_count
            assert report.occurrence_counts == base.occurrence_counts


class TestWASymbol:
    def test_canonical_pentagram_symbol(self):
        assert str(wa_symbol(ContextSet.from_words(CANONICAL_EDGES))) == "10_2 − 5_4"

    def test_single_triple_symbol(self):
        assert str(wa_symbol(ContextSet.from_words([["XXI", "YYI", "ZZI"]]))) == "3_1 − 1_3"

    @given(st.data())
    def test_incidence_double_count(self, data):
        from w52.pauli import OBSERVABLES

        rows = data.draw(
            st.lists(
                st.lists(st.sampled_from(OBSERVABLES), min_size=1, max_size=6, unique=True),
                min_size=1,
                max_size=8,
            )
        )
        symbol = wa_symbol(ContextSet(tuple(tuple(r) for r in rows)))
        points = sum(k * n for k, n in symbol.point_part)
        contexts = sum(s * m for s, m in symbol.context_part)
        assert points == contexts == sum(len(r) for r in rows)
