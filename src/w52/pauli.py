"""Exact algebra of the 63 non-identity three-qubit Pauli observables.

An observable G1 (x) G2 (x) G3 is encoded as a nonzero vector (x1,...,x6)
over GF(2) through the per-factor letter correspondence

    I = (0,0),  X = (0,1),  Y = (1,1),  Z = (1,0),     G_j <-> (x_j, x_{j+3}).

The vector is packed into a single integer ``point_id`` in 1..63 with x1 as
the most significant bit; that integer doubles as the canonical total order
on observables, and XOR of ids is multiplication up to phase.

Phases are tracked exactly as integer exponents of i (mod 4).  Each table --
the phase of every ordered product, the commutation masks, the A/B/C types
and the words in ``WORDS`` -- is one closed form in the bits of the ids,
built once at import: the word of an id is i^y X^x Z^z, with y its number
of Y factors, so a product's phase needs no per-letter table.

Only the three-qubit case is built and exposed; the tables are hardwired to
three factor slots.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterable, Sequence

__all__ = [
    "PauliLetter",
    "ObservableType",
    "Observable",
    "OBSERVABLES",
    "WORDS",
    "from_point_id",
    "parse_observable",
    "format_observable",
    "symplectic_form",
    "commutes",
    "observable_type",
    "multiply",
    "context_sign",
    "sign_from_phase",
    "PauliError",
    "BadLength",
    "InvalidLetter",
    "IdentityExcluded",
    "DuplicateObservable",
    "NotMutuallyCommuting",
    "NotClosed",
]


class PauliError(ValueError):
    """Base class for malformed Pauli input, a malformed context file included."""


class BadLength(PauliError):
    """Pauli word is not exactly three characters."""


class InvalidLetter(PauliError):
    """Character outside the alphabet {I, X, Y, Z}."""


class IdentityExcluded(PauliError):
    """The identity word III is not an observable."""


class DuplicateObservable(PauliError):
    """The same observable appears twice where distinctness is required."""


class NotMutuallyCommuting(PauliError):
    """A context contains an anticommuting pair."""


class NotClosed(PauliError):
    """The product of a context is not plus or minus the identity."""


class PauliLetter(enum.Enum):
    """Single-qubit Pauli letter with its (z, x) bit pair."""

    I = (0, 0)
    X = (0, 1)
    Y = (1, 1)
    Z = (1, 0)

    @property
    def z(self) -> int:
        return self.value[0]

    @property
    def x(self) -> int:
        return self.value[1]


class ObservableType(enum.Enum):
    """Observable class by identity-factor count: A = two I's, B = one, C = none."""

    A = "A"
    B = "B"
    C = "C"


def _checked_record(name: str, fields: str) -> type:
    """The namedtuple base of a record whose ``__new__`` checks or wraps its
    fields; its ``_make``, and so ``_replace``, builds through that ``__new__``."""
    base = namedtuple(name, fields)

    def _make(cls, iterable):
        # namedtuple's own _make calls tuple.__new__ and would skip the check
        return cls(*iterable)

    base._make = classmethod(_make)
    return base


class Observable(_checked_record("Observable", "point_id")):
    """A non-identity three-qubit Pauli word, addressed by its point id.

    ``point_id`` (int) is the GF(2)^6 coordinate vector read as a binary
    number (x1 most significant), so ids run 1..63 and sorting by id is the
    canonical order used everywhere else in the package.
    """

    __slots__ = ()

    def __new__(cls, point_id: int) -> "Observable":
        _check_point_id(point_id)
        return super().__new__(cls, point_id)

    @property
    def coords(self) -> tuple[int, int, int, int, int, int]:
        """The vector (x1,...,x6) over GF(2)."""
        pid = self.point_id
        return tuple((pid >> k) & 1 for k in range(5, -1, -1))  # type: ignore[return-value]

    @property
    def word(self) -> str:
        return WORDS[self.point_id - 1]

    def __str__(self) -> str:
        return self.word

    def __repr__(self) -> str:
        return f"Observable({self.point_id}, {self.word!r})"


def _is_id(value: object, low: int, high: int) -> bool:
    """True iff ``value`` is an int in ``low..high``; bool is an int subclass,
    but True is not an id."""
    return isinstance(value, int) and not isinstance(value, bool) and low <= value <= high


def _check_point_id(point_id: object) -> None:
    if not _is_id(point_id, 1, 63):
        raise ValueError(f"point id must be an integer in 1..63, got {point_id!r}")


OBSERVABLES: tuple[Observable, ...] = tuple(Observable(pid) for pid in range(1, 64))


def from_point_id(point_id: int) -> Observable:
    """Return the interned observable with the given id in 1..63."""
    _check_point_id(point_id)
    return OBSERVABLES[point_id - 1]


def parse_observable(word: str) -> Observable:
    """Parse a 3-letter Pauli word (uppercase, alphabet IXYZ) into an Observable."""
    if not isinstance(word, str):
        raise BadLength(f"Pauli word must be a string, got {type(word).__name__} {word!r}")
    if len(word) != 3:
        raise BadLength(f"Pauli word must be exactly 3 characters, got {word!r}")
    pid = 0
    for j, ch in enumerate(word):
        try:
            letter = PauliLetter[ch]
        except KeyError:
            raise InvalidLetter(f"invalid Pauli letter {ch!r} in {word!r}") from None
        pid |= (letter.z << (5 - j)) | (letter.x << (2 - j))
    if pid == 0:
        raise IdentityExcluded("the identity III is not one of the 63 observables")
    return OBSERVABLES[pid - 1]


def format_observable(observable: Observable) -> str:
    """Inverse of :func:`parse_observable`."""
    return observable.word


# ---------------------------------------------------------------------------
# bit-level engine
#
# A point id carries the z bits (x1,x2,x3) in positions 5..3 and the x bits
# (x4,x5,x6) in positions 2..0, so ``p >> 3`` is its z part and ``p & 7`` its
# x part.  All heavy enumeration works on these ints; each table below is one
# closed form in those bits, built once at import (64 x 64 entries).

#: WORDS[pid - 1] is the Pauli word of point id pid: factor j is
#: "IXZY"[z_j << 1 | x_j], where z_j is bit 5 - j and x_j bit 2 - j, so
#: z_j << 1 is pid >> 4 - j & 2.
WORDS: tuple[str, ...] = tuple(
    "".join(["IXZY"[pid >> 4 - j & 2 | pid >> 2 - j & 1] for j in range(3)])
    for pid in range(1, 64)
)

# A factor is Y exactly when its z and x bits are both set, so the number of
# Y factors of p is y(p) = |z ∧ x|; its parity is the quadratic form
# Q_0(x) = Σ_j x_j x_{j+3}.
_Y_COUNT = [(p >> 3 & p).bit_count() for p in range(64)]

#: PHASE[a][b] is the i-exponent k with  a . b = i^k (a XOR b), ids 0..63.
# Y = iXZ, so the word of p is i^y(p) X^x Z^z.  In a . b, moving Z^z_a past
# X^x_b gives one -1 = i^2 per qubit where both are set, and the product
# X^(x_a ^ x_b) Z^(z_a ^ z_b) is i^-y(a ^ b) times the word of a ^ b; hence
# k = y(a) + y(b) + 2 |z_a ∧ x_b| - y(a ^ b)  (mod 4).
# (y(a) and z_a are read once per row.)
PHASE: list[list[int]] = [
    [(ya + _Y_COUNT[b] + 2 * (za & b).bit_count() - _Y_COUNT[a ^ b]) & 3 for b in range(64)]
    for a in range(64)
    for ya, za in [(_Y_COUNT[a], a >> 3)]
]

#: COMMUTE_MASK[a] has bit b set iff a and b commute: b . a = i^(PHASE[b][a]
#: - PHASE[a][b]) a . b, and the two phases differ by 0 or 2, so the pair
#: commutes iff they are equal.
COMMUTE_MASK: list[int] = [
    sum(1 << b for b, k in enumerate(row) if k == PHASE[b][a]) for a, row in enumerate(PHASE)
]

#: TYPE_OF[pid] is the A/B/C class of a point id (None for 0): factor j is
#: not I iff z_j or x_j is set, so ((p >> 3 | p) & 7).bit_count() counts the
#: non-identity factors, 1, 2 or 3 for A, B or C.
TYPE_OF: list[ObservableType | None] = [None] + [
    (ObservableType.A, ObservableType.B, ObservableType.C)[((p >> 3 | p) & 7).bit_count() - 1]
    for p in range(1, 64)
]


def _fold(ids: Iterable[int]) -> tuple[bool, int, int]:
    """One pass over a context's point ids: (commuting, xor, k).

    Each id is tested against the mask of the earlier ids, so every pair is
    tested; the product folds left to right to i^k times the word of xor.
    """
    commuting = True
    k = xor = seen = 0
    for a in ids:
        if COMMUTE_MASK[a] & seen != seen:
            commuting = False
        seen |= 1 << a
        k += PHASE[xor][a]
        xor ^= a
    return commuting, xor, k & 3


# ---------------------------------------------------------------------------
# public operations


def symplectic_form(a: Observable, b: Observable) -> int:
    """sigma(a, b) = x1 y4 + x4 y1 + x2 y5 + x5 y2 + x3 y6 + x6 y3 over GF(2)."""
    return (COMMUTE_MASK[a.point_id] >> b.point_id & 1) ^ 1


def commutes(a: Observable, b: Observable) -> bool:
    """True iff the two observables commute, i.e. sigma(a, b) = 0."""
    return COMMUTE_MASK[a.point_id] >> b.point_id & 1 == 1


def observable_type(observable: Observable) -> ObservableType:
    """A, B or C according to two, one or no identity factors."""
    return TYPE_OF[observable.point_id]  # type: ignore[return-value]


def multiply(a: Observable, b: Observable) -> tuple[int, Observable | None]:
    """Product a.b as (i-exponent k, unsigned word), None meaning the identity.

    The full matrix product is i^k times the returned word's matrix.
    """
    k = PHASE[a.point_id][b.point_id]
    pid = a.point_id ^ b.point_id
    return k, (OBSERVABLES[pid - 1] if pid else None)


def sign_from_phase(k: int) -> int:
    """Map an even i-exponent to +1 or -1."""
    if k == 0:
        return 1
    if k == 2:
        return -1
    raise ValueError(f"phase exponent {k} does not describe a sign")


def context_sign(observables: Sequence[Observable]) -> int:
    """Sign of the product of a closed, mutually commuting set of observables.

    Returns +1 or -1 according as the product of the listed observables is
    plus or minus the identity.

    Raises:
        PauliError: fewer than two observables.
        DuplicateObservable: an observable appears more than once.
        NotMutuallyCommuting: some pair anticommutes; the first such pair in
            input order is named.
        NotClosed: the product is not plus or minus the identity.
    """
    ids = [o.point_id for o in observables]
    if len(ids) < 2:
        raise PauliError("a context needs at least two observables")
    if len(set(ids)) != len(ids):
        raise DuplicateObservable(f"duplicate observable in {[str(o) for o in observables]}")
    commuting, xor, k = _fold(ids)
    if not commuting:
        a, b = next(
            (a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if not COMMUTE_MASK[a] >> b & 1
        )
        raise NotMutuallyCommuting(f"{OBSERVABLES[a - 1]} and {OBSERVABLES[b - 1]} anticommute")
    if xor:
        raise NotClosed(f"product is {OBSERVABLES[xor - 1]}, not the identity, up to phase")
    return sign_from_phase(k)
