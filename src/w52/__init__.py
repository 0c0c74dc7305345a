"""Three-qubit observables in W(5,2): Fano pentads and their contextual sets.

The package builds the labeled symplectic polar space W(5,2) on the 63
non-identity three-qubit Pauli observables, enumerates its 315 isotropic
lines, 135 Fano planes and 12,096 Fano pentads, derives from every pentad
its Mermin pentagram and its 25-observable / 30-context configuration,
verifies Kochen-Specker parity proofs, and classifies the configurations
into their 47 types.
"""

from .pauli import (
    BadLength,
    DuplicateObservable,
    IdentityExcluded,
    InvalidLetter,
    NotClosed,
    NotMutuallyCommuting,
    Observable,
    ObservableType,
    OBSERVABLES,
    PauliError,
    PauliLetter,
    commutes,
    context_sign,
    format_observable,
    from_point_id,
    multiply,
    observable_type,
    parse_observable,
    symplectic_form,
)
from .geometry import (
    Line,
    LineNotInPlane,
    Plane,
    PlaneClass,
    Space,
    TaxonomyViolation,
    UnknownId,
    affine_part,
    classify_plane,
)
from .pentads import (
    ClosureNotIsotropicPlane,
    ContextualConfig,
    NotAPentagram,
    Pentad,
    Pentagram,
    enumerate_pentads,
    negative_counts,
    pentad_from_planes,
    pentad_to_config,
    pentad_to_pentagram,
    pentagram_from_edges,
    pentagram_to_pentad,
)
from .contextuality import (
    ContextReport,
    ContextSet,
    ProofReport,
    Verdict,
    WASymbol,
    analyze,
    wa_symbol,
)
from .taxonomy import (
    Census,
    ConfigSignature,
    LawReport,
    PentagramSignature,
    Table1Diff,
    TypeCountMismatch,
    TypeRecord,
    classify_census,
    compare_with_table1,
    structural_laws,
    table1_fixture,
)

__version__ = "0.1.0"
