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
from collections import Counter
from typing import Iterable, Mapping, NamedTuple

from .pauli import (
    DuplicateObservable,
    Observable,
    PauliError,
    _symplectic_bits,
    fold_phase,
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


class _ContextSetFields(NamedTuple):
    contexts: tuple[tuple[Observable, ...], ...]


class ContextSet(_ContextSetFields):
    """A list of contexts, each a nonempty tuple of distinct observables."""

    __slots__ = ()

    def __new__(cls, contexts: tuple[tuple[Observable, ...], ...]) -> "ContextSet":
        for ctx in contexts:
            if not ctx:
                raise PauliError("empty context")
            if len({o.point_id for o in ctx}) != len(ctx):
                raise DuplicateObservable(f"context {[str(o) for o in ctx]} repeats an observable")
        return super().__new__(cls, contexts)

    @classmethod
    def _make(cls, iterable: Iterable) -> "ContextSet":
        # _replace builds through _make, which would otherwise skip the check
        return cls(*iterable)

    @classmethod
    def from_words(cls, rows: Iterable[Iterable[str]]) -> "ContextSet":
        return cls(tuple(tuple(parse_observable(w) for w in row) for row in rows))

    @classmethod
    def from_point_ids(cls, rows: Iterable[Iterable[int]]) -> "ContextSet":
        return cls(tuple(tuple(from_point_id(p) for p in row) for row in rows))

    @classmethod
    def from_json_obj(cls, obj: object) -> "ContextSet":
        """Parse the context-file schema {"contexts": [[word, ...], ...]}."""
        if not isinstance(obj, dict) or "contexts" not in obj:
            raise ValueError('context file must be an object with a "contexts" key')
        rows = obj["contexts"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError('"contexts" must be a list of lists of Pauli words')
        return cls.from_words(rows)

    def to_json_obj(self) -> dict:
        return {"contexts": [[o.word for o in ctx] for ctx in self.contexts]}


class ContextReport(NamedTuple):
    """Per-context verification outcome; sign is None unless the context is
    commuting and closed."""

    observables: tuple[Observable, ...]
    commuting: bool
    closed: bool
    sign: int | None


class ProofReport(NamedTuple):
    contexts: tuple[ContextReport, ...]
    occurrence_counts: Mapping[Observable, int]
    negative_count: int
    all_even: bool
    odd_negative: bool
    verdict: Verdict

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
    counter: Counter[int] = Counter()
    for ctx in context_set.contexts:
        ids = [o.point_id for o in ctx]
        counter.update(ids)
        commuting = all(
            not _symplectic_bits(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]
        )
        k, xor = fold_phase(ids)
        closed = xor == 0  # product is the identity up to phase
        sign = sign_from_phase(k) if commuting and closed else None
        reports.append(ContextReport(ctx, commuting, closed, sign))
    occurrence = {from_point_id(p): c for p, c in sorted(counter.items())}
    negative = sum(1 for r in reports if r.sign == -1)
    all_even = all(c % 2 == 0 for c in counter.values())
    odd_negative = negative % 2 == 1
    if any(not (r.commuting and r.closed) for r in reports):
        verdict = Verdict.MALFORMED_CONTEXT
    elif all_even and odd_negative:
        verdict = Verdict.VALID_PARITY_PROOF
    else:
        verdict = Verdict.NOT_CONTEXTUAL
    return ProofReport(tuple(reports), occurrence, negative, all_even, odd_negative, verdict)


class _WASymbolFields(NamedTuple):
    point_part: tuple[tuple[int, int], ...]
    context_part: tuple[tuple[int, int], ...]


class WASymbol(_WASymbolFields):
    """Compact incidence notation: observable occurrences vs context sizes.

    ``point_part`` lists (occurrence count k, number of observables n_k) and
    ``context_part`` lists (context size s, number of contexts m_s), both in
    descending subscript order, rendered like ``10_6 15_2 − 30_3``.
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

    @classmethod
    def _make(cls, iterable: Iterable) -> "WASymbol":
        # _replace builds through _make, which would otherwise skip the check
        return cls(*iterable)

    def __str__(self) -> str:
        points = " ".join(f"{n}_{k}" for k, n in self.point_part)
        contexts = " ".join(f"{m}_{s}" for s, m in self.context_part)
        return f"{points} − {contexts}"


def wa_symbol(context_set: ContextSet) -> WASymbol:
    """The occurrence/size symbol of a context set, e.g. 10_6 15_2 - 30_3."""
    counter: Counter[int] = Counter()
    sizes: Counter[int] = Counter()
    for ctx in context_set.contexts:
        sizes[len(ctx)] += 1
        counter.update(o.point_id for o in ctx)
    by_occurrence: Counter[int] = Counter(counter.values())
    point_part = tuple(sorted(by_occurrence.items(), reverse=True))
    context_part = tuple(sorted(sizes.items(), reverse=True))
    return WASymbol(tuple((k, n) for k, n in point_part), context_part)
