"""The generic parity-proof verifier and the occurrence/size symbol."""

import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from w52.contextuality import ContextSet, Verdict, analyze, wa_symbol
from w52.pauli import OBSERVABLES, DuplicateObservable, InvalidLetter, PauliError
from w52.pentads import pentad_from_planes, pentad_to_pentagram

from conftest import CANONICAL_EDGES, IDENTITY8, dense_commutes, dense_product, dense_sign


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

    @pytest.mark.parametrize(
        "build, rows, message",
        [
            (ContextSet.from_words, ["XXI"], "a context must be a list of Pauli words, got the word 'XXI'"),
            (ContextSet.from_point_ids, [1, 2], "a context must be a list, got int 1"),
        ],
        ids=["words", "ids"],
    )
    def test_a_flat_list_is_rejected(self, build, rows, message):
        with pytest.raises(PauliError, match=message):
            build(rows)

    def test_point_ids_keep_the_messages_of_from_point_id(self):
        assert ContextSet.from_point_ids([[1, 2, 3]]) == ContextSet.from_words([["IIX", "IXI", "IXX"]])
        for bad in (0, 64, True, 1.0, "X"):
            with pytest.raises(ValueError, match=f"point id must be an integer in 1..63, got {bad!r}"):
                ContextSet.from_point_ids([[bad]])

    @pytest.mark.parametrize(
        "contexts, message",
        [
            (None, "the contexts must be a list, got NoneType None"),
            ((5,), "a context must be a list, got int 5"),
            (((1, 2),), "a context must be a list of observables, got int 1"),
            ((("XXI",),), "a context must be a list of observables, got str 'XXI'"),
        ],
        ids=["contexts", "row", "id", "word"],
    )
    def test_the_bare_constructor_takes_only_observables(self, contexts, message):
        with pytest.raises(PauliError, match=f"^{re.escape(message)}$"):
            ContextSet(contexts)

    def test_rows_given_as_iterators_are_stored_as_the_checked_tuples(self):
        # each row is iterated once to check it; storing the iterator would
        # leave an exhausted row, and one observable would fold as an empty,
        # closed and positive context
        observable = OBSERVABLES[0]
        context_set = ContextSet((iter([observable]),))
        assert context_set.contexts == ((observable,),)
        report = analyze(context_set)
        assert report.verdict is Verdict.MALFORMED_CONTEXT
        assert report.contexts[0].commuting and not report.contexts[0].closed
        # the same for the contexts themselves given as an iterator
        rows = ContextSet(iter([[observable]])).contexts
        assert rows == ((observable,),)

    def test_from_json_obj_schema(self):
        with pytest.raises(ValueError):
            ContextSet.from_json_obj(["XXI"])
        with pytest.raises(ValueError):
            ContextSet.from_json_obj({"contexts": "XXI YYI ZZI"})

    def test_from_json_obj_rejects_a_row_that_is_an_object(self):
        # from_words would iterate the object's keys and take them as a context
        with pytest.raises(ValueError, match="must be a list of lists of Pauli words"):
            ContextSet.from_json_obj({"contexts": [{"XXI": 0, "YYI": 0, "ZZI": 0}]})


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

    def test_occurrence_counts_are_read_only(self):
        counts = {OBSERVABLES[0]: 2}
        report = analyze(ContextSet.from_words(CANONICAL_EDGES))._replace(occurrence_counts=counts)
        counts.clear()  # the report holds a copy of the mapping it was given
        for r in (report, analyze(ContextSet.from_words(CANONICAL_EDGES))):
            before = dict(r.occurrence_counts)
            with pytest.raises(AttributeError):
                r.occurrence_counts.clear()  # a read-only mapping has no clear
            with pytest.raises(TypeError):
                r.occurrence_counts[OBSERVABLES[0]] = 0
            with pytest.raises(TypeError):
                del r.occurrence_counts[OBSERVABLES[0]]
            assert r.occurrence_counts == before and len(before) in (1, 10)
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)


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


def dense_context(ids):
    """Oracle: (commuting, closed, sign) of a context, from 8x8 products."""
    commuting = all(dense_commutes(a, b) for a, b in itertools.combinations(ids, 2))
    product = dense_product(ids)
    closed = any(np.array_equal(product, phase * IDENTITY8) for phase in (1, 1j, -1, -1j))
    return commuting, closed, (dense_sign(ids) if commuting and closed else None)


@pytest.fixture(scope="module")
def context_sets(space, pentads):
    """Sets of 1-6 contexts of 1-5 point ids, leaning towards well-formed ones.

    A context is a line or an affine quadruple of a plane (pentagram edges
    among them), a triple {a, b, a^b} in any order (a line when a and b
    commute, closed but not commuting otherwise), or a random set; a set is
    a list of those, or a whole pentagram with at most one more context.
    """
    point = st.integers(1, 63)
    well_formed = [line.points for line in space.lines]
    well_formed += [flag.affine for flag in space.flags.values()]
    context = st.one_of(
        st.sampled_from(well_formed),
        st.lists(point, min_size=2, max_size=2, unique=True).map(lambda ab: (*ab, ab[0] ^ ab[1])),
        st.lists(point, min_size=1, max_size=5, unique=True),
    )
    pentagram = st.sampled_from(pentads).map(lambda p: pentad_to_pentagram(space, p).edges)
    return st.one_of(
        st.lists(context, min_size=1, max_size=6),
        st.tuples(pentagram, st.lists(context, max_size=1)).map(lambda t: [*t[0], *t[1]]),
    )


class TestDenseOracle:
    @settings(max_examples=200)
    @given(st.data())
    def test_analyze_agrees_with_the_dense_oracle(self, context_sets, data):
        rows = data.draw(context_sets)
        context_set = ContextSet.from_point_ids(rows)
        report = analyze(context_set)

        expected = [dense_context(row) for row in rows]
        assert [(r.commuting, r.closed, r.sign) for r in report.contexts] == expected
        negative = sum(1 for *_, sign in expected if sign == -1)
        assert report.negative_count == negative
        counts = Counter(p for row in rows for p in row)
        if any(sign is None for *_, sign in expected):
            verdict = Verdict.MALFORMED_CONTEXT
        elif all(c % 2 == 0 for c in counts.values()) and negative % 2 == 1:
            verdict = Verdict.VALID_PARITY_PROOF
        else:
            verdict = Verdict.NOT_CONTEXTUAL
        assert report.verdict is verdict

        assert [(o.point_id, c) for o, c in report.occurrence_counts.items()] == sorted(
            counts.items()
        )
        assert all(o is OBSERVABLES[o.point_id - 1] for o in report.occurrence_counts)
        symbol = wa_symbol(context_set)
        assert symbol.point_part == tuple(sorted(Counter(counts.values()).items(), reverse=True))
        sizes = Counter(len(row) for row in rows)
        assert symbol.context_part == tuple(sorted(sizes.items(), reverse=True))


# Nested values of every shape: None, bools, ints around both id ranges,
# floats, strings of Pauli letters, observables, and lists, tuples and dicts
# of those.
_NESTED = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 140),
        st.floats(allow_nan=False),
        st.text("IXYZQ", max_size=4),
        st.sampled_from(OBSERVABLES),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.tuples(inner, inner),
        st.dictionaries(st.integers(-3, 140), inner, max_size=3),
    ),
    max_leaves=24,
)


class TestMalformedInput:
    """Each constructor raises only its documented errors, whatever it is given."""

    @pytest.mark.parametrize(
        "build, errors",
        [
            (ContextSet.from_words, PauliError),
            (ContextSet.from_point_ids, ValueError),  # PauliError, or from_point_id's ValueError
            (ContextSet, PauliError),
        ],
        ids=["from_words", "from_point_ids", "ContextSet"],
    )
    @given(value=_NESTED)
    @example(value=["XXI"])
    @example(value=[1, 2])
    @example(value=None)
    @example(value=((1, 2),))
    @example(value=(("XXI",),))
    @example(value=[[2, 5, 7], [2, 5, 7]])
    def test_context_set_constructors(self, build, errors, value):
        try:
            context_set = build(value)
        except errors:
            return
        # whatever a constructor accepts, the verifier reports on without raising
        assert len(analyze(context_set).contexts) == len(context_set.contexts)
        wa_symbol(context_set)

    @given(value=_NESTED)
    @example(value=[2, 4, 16, 82, 134])
    def test_pentad_from_planes(self, space, value):
        try:
            pentad = pentad_from_planes(space, value)
        except ValueError:
            return
        assert len(pentad.planes) == 5
