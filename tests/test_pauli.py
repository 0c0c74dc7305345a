"""Pauli algebra: parsing, the symplectic form, phase tracking, context signs.

Derived expectations are checked against the dense-matrix oracle rather
than trusted constants; the oracle never touches the phase tables.
"""

import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, strategies as st

from w52.pauli import (
    BadLength,
    DuplicateObservable,
    IdentityExcluded,
    InvalidLetter,
    NotClosed,
    NotMutuallyCommuting,
    OBSERVABLES,
    Observable,
    ObservableType,
    PauliError,
    WORDS,
    commutes,
    context_sign,
    format_observable,
    from_point_id,
    multiply,
    observable_type,
    parse_observable,
    symplectic_form,
)

from conftest import DENSE, IDENTITY8, PAULI_2X2, dense_commutes, dense_matrix, dense_sign

observables = st.sampled_from(OBSERVABLES)


def O(word):  # noqa: E743 - tiny test helper
    return parse_observable(word)


def outcome(function, *args):
    """What a call gives: its value, or the class and message of its PauliError."""
    try:
        return function(*args)
    except PauliError as err:
        return type(err), str(err)


# (x_j, x_{j+3}) of each letter, written out here rather than read off PauliLetter
_LETTER_BITS = {"I": (0, 0), "X": (0, 1), "Y": (1, 1), "Z": (1, 0)}


def letter_loop(word):
    """Reference parse: the Observable of a word, or its error class and message."""
    if len(word) != 3:
        return BadLength, f"Pauli word must be exactly 3 characters, got {word!r}"
    pid = 0
    for j, ch in enumerate(word):
        if ch not in _LETTER_BITS:
            return InvalidLetter, f"invalid Pauli letter {ch!r} in {word!r}"
        high, low = _LETTER_BITS[ch]
        pid |= (high << (5 - j)) | (low << (2 - j))
    if pid == 0:
        return IdentityExcluded, "the identity III is not one of the 63 observables"
    return Observable(pid)


def pairwise_then_xor(ids):
    """Reference context sign on distinct ids: the first anticommuting pair in
    input order by the dense oracle, then the XOR, then the dense product."""
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if not dense_commutes(a, b):
                return NotMutuallyCommuting, f"{WORDS[a - 1]} and {WORDS[b - 1]} anticommute"
    xor = functools.reduce(operator.xor, ids)
    if xor:
        return NotClosed, f"product is {WORDS[xor - 1]}, not the identity, up to phase"
    return dense_sign(ids)


class TestParseFormat:
    def test_xyz_coordinates(self):
        assert O("XYZ").coords == (0, 1, 1, 1, 1, 0)

    def test_zii_coordinates(self):
        assert O("ZII").coords == (1, 0, 0, 0, 0, 0)

    def test_identity_rejected(self):
        with pytest.raises(IdentityExcluded):
            O("III")

    @pytest.mark.parametrize("word", ["", "XY", "XYZI", "XYZZ"])
    def test_bad_length(self, word):
        with pytest.raises(BadLength):
            O(word)

    @pytest.mark.parametrize(
        "word, shown",
        [
            (3, "int 3"),
            (None, "NoneType None"),
            (True, "bool True"),
            (["X", "X", "I"], "list ['X', 'X', 'I']"),
        ],
    )
    def test_non_string_is_named_as_such(self, word, shown):
        with pytest.raises(BadLength) as err:
            O(word)
        assert str(err.value) == f"Pauli word must be a string, got {shown}"

    @pytest.mark.parametrize("word", ["QXI", "xyz", "X Z", "XY1"])
    def test_invalid_letter(self, word):
        with pytest.raises(InvalidLetter):
            O(word)

    def test_agrees_with_a_letter_loop_on_every_short_string(self):
        # uppercase and lowercase letters, a digit, a space and a Greek Chi,
        # which looks like X; lengths 0 to 4, with every string of length 3
        alphabet = "IXYZixyz7 \u03a7"
        words = [
            "".join(chars)
            for n in range(5)
            for chars in itertools.product(alphabet, repeat=n)
        ]
        assert len(words) == sum(len(alphabet) ** n for n in range(5))
        for word in words:
            assert outcome(parse_observable, word) == letter_loop(word), word

    def test_round_trip_all_63(self):
        for o in OBSERVABLES:
            assert parse_observable(format_observable(o)) == o

    def test_words_table_matches_letters(self):
        # the oracle reads each qubit's letter off the coordinates, not WORDS
        assert len(WORDS) == 63
        for i, o in enumerate(OBSERVABLES):
            g1, g2, g3 = (PAULI_2X2[letter] for letter in WORDS[i])
            assert np.array_equal(DENSE[o.point_id], np.kron(np.kron(g1, g2), g3))
            assert parse_observable(WORDS[i]) is o

    def test_format_examples(self):
        assert format_observable(from_point_id(0b011110)) == "XYZ"
        assert format_observable(from_point_id(0b100000)) == "ZII"

    def test_point_id_is_binary_coordinate_value(self):
        for o in OBSERVABLES:
            value = int("".join(str(b) for b in o.coords), 2)
            assert value == o.point_id

    def test_invalid_point_id(self):
        for bad in (0, 64, -3, "XII", True, False):
            with pytest.raises(ValueError):
                Observable(bad)
            with pytest.raises(ValueError):
                from_point_id(bad)


class TestSymplecticForm:
    def test_x_z_same_qubit_anticommute(self):
        assert symplectic_form(O("XII"), O("ZII")) == 1
        assert not commutes(O("XII"), O("ZII"))

    def test_disjoint_supports_commute(self):
        assert commutes(O("XII"), O("IYZ"))

    def test_xxi_yyi_commute(self):
        # two anticommuting slots cancel; confirmed by the matrix oracle
        assert symplectic_form(O("XXI"), O("YYI")) == 0
        assert dense_commutes(O("XXI").point_id, O("YYI").point_id)

    @given(observables)
    def test_alternating(self, a):
        assert symplectic_form(a, a) == 0

    @given(observables, observables)
    def test_symmetric_over_gf2(self, a, b):
        assert symplectic_form(a, b) == symplectic_form(b, a)

    @given(observables, observables, observables)
    def test_bilinear(self, a, b, c):
        s = a.point_id ^ b.point_id
        if s == 0:
            return
        left = symplectic_form(from_point_id(s), c)
        assert left == (symplectic_form(a, c) + symplectic_form(b, c)) % 2

    def test_matches_dense_commutation_on_all_pairs(self):
        # all 1953 unordered pairs
        for a, b in itertools.combinations(range(1, 64), 2):
            assert commutes(from_point_id(a), from_point_id(b)) == dense_commutes(a, b)


class TestObservableType:
    @pytest.mark.parametrize(
        "word,expected",
        [("XII", ObservableType.A), ("XYI", ObservableType.B), ("XYZ", ObservableType.C)],
    )
    def test_examples(self, word, expected):
        assert observable_type(O(word)) is expected

    def test_census_9_27_27(self):
        counts = {t: 0 for t in ObservableType}
        for o in OBSERVABLES:
            counts[observable_type(o)] += 1
        assert counts == {ObservableType.A: 9, ObservableType.B: 27, ObservableType.C: 27}


class TestMultiply:
    def test_x_times_y(self):
        assert multiply(O("XII"), O("YII")) == (1, O("ZII"))

    def test_involution(self):
        for o in OBSERVABLES:
            assert multiply(o, o) == (0, None)

    def test_xxi_times_yyi_is_minus_zzi(self):
        k, product = multiply(O("XXI"), O("YYI"))
        assert (k, product) == (2, O("ZZI"))
        # oracle: the dense product equals -(Z x Z x I)
        dense = DENSE[O("XXI").point_id] @ DENSE[O("YYI").point_id]
        assert np.array_equal(dense, -DENSE[O("ZZI").point_id])

    def test_agrees_with_dense_oracle_on_all_ordered_pairs(self):
        for a in range(1, 64):
            for b in range(1, 64):
                k, product = multiply(from_point_id(a), from_point_id(b))
                expected = DENSE[a] @ DENSE[b]
                target = IDENTITY8 if product is None else DENSE[product.point_id]
                assert np.array_equal(expected, (1j**k) * target), (a, b)

    def test_reversal_phase_is_sign_of_commutator(self):
        for a in range(1, 64):
            for b in range(a + 1, 64):
                ka, _ = multiply(from_point_id(a), from_point_id(b))
                kb, _ = multiply(from_point_id(b), from_point_id(a))
                sigma = symplectic_form(from_point_id(a), from_point_id(b))
                assert (ka - kb) % 4 == (2 * sigma) % 4


@pytest.fixture(scope="module")
def contexts(space):
    """The point ids of the 315 lines, the 945 flags' affine quadruples and
    the 135 planes, in that order."""
    return (
        [line.points for line in space.lines]
        + [flag.affine for flag in space.flags.values()]
        + [plane.points for plane in space.planes]
    )


class TestContextSign:
    def test_positive_line(self):
        assert context_sign([O("XII"), O("IXI"), O("XXI")]) == 1

    def test_negative_line(self):
        assert context_sign([O("XXI"), O("YYI"), O("ZZI")]) == -1

    def test_canonical_negative_pentagram_edge(self):
        assert context_sign([O("XYY"), O("YXY"), O("YYX"), O("XXX")]) == -1

    def test_not_mutually_commuting(self):
        with pytest.raises(NotMutuallyCommuting):
            context_sign([O("XII"), O("YII"), O("ZII")])

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            context_sign([O("XII"), O("IXI"), O("IIX")])

    def test_duplicate(self):
        with pytest.raises(DuplicateObservable):
            context_sign([O("XII"), O("XII")])

    def test_too_short(self):
        with pytest.raises(PauliError):
            context_sign([O("XII")])

    @pytest.mark.parametrize(
        "words", [("XII", "IXI", "XXI"), ("XXI", "YYI", "ZZI"), ("XYY", "YXY", "YYX", "XXX")]
    )
    def test_permutation_invariant(self, words):
        base = context_sign([O(w) for w in words])
        for perm in itertools.permutations(words):
            assert context_sign([O(w) for w in perm]) == base

    def test_every_line_flag_and_plane_agrees_with_the_dense_oracle(self, contexts):
        assert len(contexts) == 315 + 945 + 135
        for ids in contexts:
            for order in (ids, ids[::-1]):
                assert context_sign([OBSERVABLES[p - 1] for p in order]) == dense_sign(order), order

    @given(st.data())
    def test_agrees_with_pairwise_dense_checks_then_xor(self, contexts, data):
        # a line, flag or plane in any order, 2-7 points of one plane in any
        # order, or 2-7 distinct ids from all 63, which mostly anticommute
        planes = contexts[-135:]
        ids = data.draw(
            st.sampled_from(contexts).flatmap(st.permutations)
            | st.tuples(
                st.sampled_from(planes).flatmap(st.permutations), st.integers(2, 7)
            ).map(lambda t: t[0][: t[1]])
            | st.lists(st.integers(1, 63), min_size=2, max_size=7, unique=True)
        )
        observed = outcome(context_sign, [OBSERVABLES[p - 1] for p in ids])
        assert observed == pairwise_then_xor(ids)


class TestDenseMatrix:
    def test_squares_to_identity_and_traceless(self):
        for o in OBSERVABLES:
            m = dense_matrix(o.point_id)
            assert np.array_equal(m @ m, IDENTITY8)
            assert m.trace() == 0

    def test_xyz_elementwise(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        assert np.array_equal(dense_matrix(O("XYZ").point_id), np.kron(np.kron(x, y), z))

    def test_hermitian(self):
        for o in OBSERVABLES:
            m = dense_matrix(o.point_id)
            assert np.array_equal(m, m.conj().T)
