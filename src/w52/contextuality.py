"""Observable-based Kochen-Specker parity-proof verification.

A context is a set of pairwise commuting observables whose product is plus
or minus the identity; it is negative in the minus case.  A context set is
a valid parity proof when every observable occurs in an even number of
contexts and the number of negative contexts is odd: no noncontextual
value assignment can then reproduce all the product signs.

The verifier accepts contexts of any size, so Mermin pentagrams (five
4-element contexts) and the pentad configurations (thirty 3-element
contexts) share one code path.  Malformed contexts (an anticommuting pair,
or a product that is not plus or minus the identity) are reported in the
result, never raised.
"""

from __future__ import annotations

import enum
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from types import MappingProxyType

from .pauli import (
    OBSERVABLES,
    DuplicateObservable,
    Observable,
    PauliError,
    _checked_record,
    _fold,
    from_point_id,
    parse_observable,
    sign_from_phase,
)

__all__ = [
    "ContextSet",
    "ContextReport",
    "ProofReport",
    "Verdict",
    "WASymbol",
    "analyze",
    "wa_symbol",
]


class Verdict(enum.Enum):
    VALID_PARITY_PROOF = "ValidParityProof"
    NOT_CONTEXTUAL = "NotContextual"
    MALFORMED_CONTEXT = "MalformedContext"

    def __str__(self) -> str:
        return self.value


class ContextSet(_checked_record("ContextSet", "contexts")):
    """``contexts`` is a tuple of contexts, each a nonempty tuple of distinct
    observables stored as it was checked; PauliError for anything else."""

    __slots__ = ()

    def __new__(cls, contexts: tuple[tuple[Observable, ...], ...]) -> "ContextSet":
        rows = []
        for ctx in _iterate(contexts, "the contexts"):
            row = tuple(_iterate(ctx, "a context"))
            ids = [_point_id(o) for o in row]
            if not ids:
                raise PauliError("empty context")
            if len(set(ids)) != len(ids):
                raise DuplicateObservable(f"context {[str(o) for o in row]} repeats an observable")
            rows.append(row)
        return super().__new__(cls, tuple(rows))

    @classmethod
    def from_words(cls, rows: Iterable[Iterable[str]]) -> "ContextSet":
        """Contexts from rows of Pauli words; PauliError for anything else."""
        rows = _iterate(rows, "the contexts")
        return cls(tuple(tuple(parse_observable(w) for w in _word_row(row)) for row in rows))

    @classmethod
    def from_point_ids(cls, rows: Iterable[Iterable[int]]) -> "ContextSet":
        """Contexts from rows of point ids in 1..63.

        Rows or a row that cannot be iterated raise PauliError; an item that
        is not an id raises the ValueError of :func:`from_point_id`.
        """
        rows = _iterate(rows, "the contexts")
        return cls(
            tuple(
                tuple(
                    OBSERVABLES[p - 1] if type(p) is int and 0 < p < 64 else from_point_id(p)
                    for p in _iterate(row, "a context")
                )
                for row in rows
            )
        )

    @classmethod
    def from_json_obj(cls, obj: object) -> "ContextSet":
        """Parse the context-file schema {"contexts": [[word, ...], ...]}."""
        if not isinstance(obj, dict) or "contexts" not in obj:
            raise PauliError('context file must be an object with a "contexts" key')
        rows = obj["contexts"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise PauliError('"contexts" must be a list of lists of Pauli words')
        return cls.from_words(rows)

    def to_json_obj(self) -> dict:
        return {"contexts": [[o.word for o in ctx] for ctx in self.contexts]}


def _iterate(value: object, what: str) -> Iterator:
    """An iterator over ``value``; PauliError naming ``what`` if there is none."""
    try:
        return iter(value)  # type: ignore[call-overload]
    except TypeError:
        raise PauliError(f"{what} must be a list, got {type(value).__name__} {value!r}") from None


def _point_id(item: object) -> int:
    if not isinstance(item, Observable):
        raise PauliError(
            f"a context must be a list of observables, got {type(item).__name__} {item!r}"
        )
    return item.point_id


def _word_row(row: object) -> Iterator:
    if isinstance(row, str):
        raise PauliError(f"a context must be a list of Pauli words, got the word {row!r}")
    return _iterate(row, "a context")


class ContextReport(namedtuple("ContextReport", "observables commuting closed sign")):
    """Per-context verification outcome: the context's ``observables``,
    whether it is ``commuting`` and ``closed`` (bools), and its ``sign``
    (+1 or -1), None unless it is both."""

    __slots__ = ()


class ProofReport(
    _checked_record(
        "ProofReport", "contexts occurrence_counts negative_count all_even odd_negative verdict"
    )
):
    """The parity-proof verdict on a context set and what it rests on:
    ``contexts``, a :class:`ContextReport` per context in input order;
    ``occurrence_counts``, a read-only mapping (``types.MappingProxyType``,
    over a copy of the mapping given) from each observable, in point-id
    order, to the number of contexts holding it; ``negative_count`` (int), of
    negative contexts; the parity conditions ``all_even`` and
    ``odd_negative`` (bools); the ``verdict``.  The mapping cannot be
    changed, so the report cannot contradict itself; it has no hash either,
    so neither has the report."""

    __slots__ = ()

    def __new__(
        cls, contexts, occurrence_counts, negative_count, all_even, odd_negative, verdict
    ) -> "ProofReport":
        counts = MappingProxyType(dict(occurrence_counts))
        fields = negative_count, all_even, odd_negative, verdict
        return super().__new__(cls, contexts, counts, *fields)

    def __getnewargs__(self) -> tuple:
        # pickle and copy cannot take a mapping proxy; __new__ wraps the dict again
        return (self.contexts, dict(self.occurrence_counts), *self[2:])

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "negative_count": self.negative_count,
            "all_even": self.all_even,
            "odd_negative": self.odd_negative,
            "occurrence_counts": {o.word: c for o, c in self.occurrence_counts.items()},
            "contexts": [
                {
                    "observables": [o.word for o in r.observables],
                    "commuting": r.commuting,
                    "closed": r.closed,
                    "sign": r.sign,
                }
                for r in self.contexts
            ],
        }


def analyze(context_set: ContextSet) -> ProofReport:
    """Check the parity-proof conditions on a context set.

    The verdict is MALFORMED_CONTEXT if any context fails to be commuting
    and closed, VALID_PARITY_PROOF if all contexts are well formed, every
    occurrence count is even and the negative count is odd, and
    NOT_CONTEXTUAL otherwise.
    """
    reports = []
    negative = 0
    well_formed = True
    for ctx in context_set.contexts:
        commuting, xor, k = _fold([o.point_id for o in ctx])
        closed = xor == 0  # product is the identity up to phase
        if commuting and closed:
            sign = sign_from_phase(k)
            if sign == -1:
                negative += 1
        else:
            sign = None
            well_formed = False
        reports.append(ContextReport(ctx, commuting, closed, sign))
    counter = Counter([o.point_id for ctx in context_set.contexts for o in ctx])
    occurrence = {OBSERVABLES[p - 1]: counter[p] for p in sorted(counter)}
    all_even = all(c % 2 == 0 for c in counter.values())
    odd_negative = negative % 2 == 1
    if not well_formed:
        verdict = Verdict.MALFORMED_CONTEXT
    elif all_even and odd_negative:
        verdict = Verdict.VALID_PARITY_PROOF
    else:
        verdict = Verdict.NOT_CONTEXTUAL
    return ProofReport(tuple(reports), occurrence, negative, all_even, odd_negative, verdict)


class WASymbol(_checked_record("WASymbol", "point_part context_part")):
    """Compact incidence notation: observable occurrences vs context sizes.

    ``point_part`` holds int pairs (occurrence count k, number of observables
    n_k) and ``context_part`` pairs (context size s, number of contexts m_s),
    both in descending subscript order, rendered like ``10_6 15_2 − 30_3``.
    """

    __slots__ = ()

    def __new__(
        cls,
        point_part: tuple[tuple[int, int], ...],
        context_part: tuple[tuple[int, int], ...],
    ) -> "WASymbol":
        point_incidences = sum(k * n for k, n in point_part)
        context_incidences = sum(s * m for s, m in context_part)
        if point_incidences != context_incidences:
            raise ValueError(
                f"incidence double count broken: {point_incidences} != {context_incidences}"
            )
        return super().__new__(cls, point_part, context_part)

    def __str__(self) -> str:
        points = " ".join(f"{n}_{k}" for k, n in self.point_part)
        contexts = " ".join(f"{m}_{s}" for s, m in self.context_part)
        return f"{points} − {contexts}"


def wa_symbol(context_set: ContextSet) -> WASymbol:
    """The occurrence/size symbol of a context set, e.g. 10_6 15_2 - 30_3."""
    contexts = context_set.contexts
    counter = Counter([o.point_id for ctx in contexts for o in ctx])
    sizes = Counter(map(len, contexts))
    point_part = tuple(sorted(Counter(counter.values()).items(), reverse=True))
    context_part = tuple(sorted(sizes.items(), reverse=True))
    return WASymbol(point_part, context_part)
