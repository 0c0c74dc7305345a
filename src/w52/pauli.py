"""Exact algebra of the 63 non-identity three-qubit Pauli observables.

An observable G1 (x) G2 (x) G3 is encoded as a nonzero vector (x1,...,x6)
over GF(2) through the per-factor letter correspondence

    I = (0,0),  X = (0,1),  Y = (1,1),  Z = (1,0),     G_j <-> (x_j, x_{j+3}).

The vector is packed into a single integer ``point_id`` in 1..63 with x1 as
the most significant bit; that integer doubles as the canonical total order
on observables, and XOR of ids is multiplication up to phase.

Phases are tracked exactly as integer exponents of i (mod 4) via per-factor
lookup tables, and words are looked up in ``WORDS``, a table built once at
import from the bit layout.

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
    """Base class for malformed Pauli input."""


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
# (x4,x5,x6) in positions 2..0.  All heavy enumeration works on these ints;
# the tables below are built once at import (64 x 64 entries).

def _slot_letters(pid: int) -> tuple[int, int, int]:
    """Per-factor letter codes z<<1|x: I=0, X=1, Z=2, Y=3."""
    return (
        (((pid >> 5) & 1) << 1) | ((pid >> 2) & 1),
        (((pid >> 4) & 1) << 1) | ((pid >> 1) & 1),
        (((pid >> 3) & 1) << 1) | (pid & 1),
    )


def _build_single_phase() -> list[list[int]]:
    # i-exponent of the product of two letters: X.Y = iZ, Y.Z = iX, Z.X = iY,
    # reversed order negates, I and equal letters contribute nothing.
    table = [[0] * 4 for _ in range(4)]
    forward = {(1, 3), (3, 2), (2, 1)}  # (X,Y), (Y,Z), (Z,X)
    for a in range(1, 4):
        for b in range(1, 4):
            if a != b:
                table[a][b] = 1 if (a, b) in forward else 3
    return table


_SINGLE_PHASE = _build_single_phase()

#: WORDS[pid - 1] is the Pauli word of point id pid, read off the bit layout
#: through the letter codes of :func:`_slot_letters`.
WORDS: tuple[str, ...] = tuple(
    "".join("IXZY"[code] for code in _slot_letters(pid)) for pid in range(1, 64)
)


def _build_tables() -> tuple[list[list[int]], list[int], list[ObservableType | None]]:
    phase = [[0] * 64 for _ in range(64)]
    commute = [0] * 64
    types: list[ObservableType | None] = [None] * 64
    slots = [_slot_letters(pid) for pid in range(64)]
    for a in range(64):
        sa = slots[a]
        row = phase[a]
        for b in range(64):
            sb = slots[b]
            row[b] = (
                _SINGLE_PHASE[sa[0]][sb[0]]
                + _SINGLE_PHASE[sa[1]][sb[1]]
                + _SINGLE_PHASE[sa[2]][sb[2]]
            ) & 3
    for a in range(64):
        mask = 0
        for b in range(64):
            # the pair anticommutes iff the two one-sided phases differ by 2
            if (phase[a][b] - phase[b][a]) & 3 == 0:
                mask |= 1 << b
        commute[a] = mask
        identities = slots[a].count(0)
        if a:
            types[a] = (ObservableType.A, ObservableType.B, ObservableType.C)[2 - identities]
    return phase, commute, types


#: PHASE[a][b] is the i-exponent k with  a . b = i^k (a XOR b), ids 0..63.
#: COMMUTE_MASK[a] has bit b set iff a and b commute.
#: TYPE_OF[pid] is the A/B/C class of a point id (None for 0).
PHASE, COMMUTE_MASK, TYPE_OF = _build_tables()


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
