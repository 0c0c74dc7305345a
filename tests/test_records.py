"""The package's record types: immutable, validated on construction, and
storing only what they cannot derive; a pentad a plain record of its planes,
meets and distinguished lines."""

import copy
import pickle

import pytest

from w52.contextuality import ContextSet, WASymbol, analyze, wa_symbol
from w52.pauli import OBSERVABLES, DuplicateObservable, Observable
from w52.pentads import Pentad, pentad_from_planes, pentad_to_config, pentad_to_pentagram
from w52.taxonomy import (
    ConfigSignature,
    LawViolation,
    PentagramSignature,
    compare_with_table1,
    structural_laws,
    table1_fixture,
)

# the stored fields of every record type; an id that is a position, or a
# copy of something the record can compute, is not among them
FIELDS = {
    "Observable": ("point_id",),
    "Line": ("points", "sign"),
    "Plane": ("points", "lines", "sign", "b_line", "plane_class"),
    "Pentad": ("planes", "meet_points", "distinguished_lines"),
    "Pentagram": ("edges", "edge_signs"),
    "ContextualConfig": ("contexts", "context_signs"),
    "ContextSet": ("contexts",),
    "ContextReport": ("observables", "commuting", "closed", "sign"),
    "ProofReport": (
        "contexts", "occurrence_counts", "negative_count", "all_even", "odd_negative", "verdict"
    ),
    "WASymbol": ("point_part", "context_part"),
    "PentagramSignature": ("negative_edges", "obs_a", "obs_b", "obs_c", "a_on_negative"),
    "ConfigSignature": (
        "negative_contexts", "obs_a", "obs_b", "obs_c",
        "neg_planes", "planes_a", "planes_b", "planes_c", "pentagram",
    ),
    "TypeRecord": ("signature", "multiplicity", "example_pentad"),
    "Census": ("records",),
    "Table1Diff": ("missing", "unexpected"),
    "LawViolation": ("law", "row", "example_pentad"),
    "LawReport": ("violations",),
    "Flag": ("affine", "sign", "negative_lines", "lines"),
    "Table1Row": (
        "type_id", "negative_contexts", "obs_a", "obs_b", "obs_c",
        "neg_planes", "planes_a", "planes_b", "planes_c", "pentagram_type",
    ),
}

# a valid signature of each kind, as keyword arguments
PENTAGRAM_FIELDS = dict(negative_edges=3, obs_a=2, obs_b=5, obs_c=3, a_on_negative=1)
CONFIG_FIELDS = dict(
    negative_contexts=9, obs_a=5, obs_b=10, obs_c=10,
    neg_planes=2, planes_a=1, planes_b=0, planes_c=2,
)


def one_of_each(space, pentads, census):
    """One instance of each of the package's 17 record types."""
    pentad = pentads[4321]
    context_set = ContextSet.from_words([["XXI", "YYI", "ZZI"]])
    report = analyze(context_set)
    record = census.records[0]
    return [
        OBSERVABLES[0],
        space.lines[0],
        space.planes[0],
        pentad,
        pentad_to_pentagram(space, pentad),
        pentad_to_config(space, pentad),
        context_set,
        report.contexts[0],
        report,
        wa_symbol(context_set),
        record.signature.pentagram,
        record.signature,
        record,
        census,
        compare_with_table1(census),
        LawViolation("L1", (9, 1, 11, 13, 3, 1, 1, 0), 0),
        structural_laws(census),
    ]


def test_every_record_is_immutable(space, pentads, census):
    records = one_of_each(space, pentads, census)
    assert len({type(r) for r in records}) == 17
    for record in records:
        for name in record.__match_args__:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_every_record_stores_only_its_pinned_fields(space, pentads, census):
    flag = next(iter(space.flags.values()))
    records = one_of_each(space, pentads, census) + [flag, table1_fixture()[0]]
    assert {type(r).__name__: r._fields for r in records} == FIELDS
    # a pentad's plane queries are the space's tables, not methods of its own
    assert [name for name, value in vars(Pentad).items() if callable(value)] == []


def test_derived_observables_match_the_pentads(space, pentads, pentagrams, configs):
    # the routes the observables took when they were stored: the pentad's ten
    # meets, and the points of its five planes
    for pentad, pentagram, config in zip(pentads, pentagrams, configs):
        assert pentagram.observables == tuple(sorted(pentad.meet_points))
        planes = {p for plane_id in pentad.planes for p in space.planes[plane_id].points}
        assert config.observables == tuple(sorted(planes))


def test_every_record_survives_pickle_and_copy(space, pentads, census):
    flag = next(iter(space.flags.values()))
    records = one_of_each(space, pentads, census) + [flag, table1_fixture()[0]]
    assert len({type(r) for r in records}) == 19
    for record in records:
        restored = pickle.loads(pickle.dumps(record))
        assert restored == record and type(restored) is type(record)
        assert copy.copy(record) == record
        assert record._fields == record.__match_args__


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(obs_a=3), "pentagram observable types must sum to 10"),
        (dict(negative_edges=2), "negative edge count must be odd in 1..5"),
        (dict(negative_edges=7), "negative edge count must be odd in 1..5"),
        (dict(negative_edges=-1), "negative edge count must be odd in 1..5"),
    ],
)
def test_pentagram_signature_validates(changes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PentagramSignature(**{**PENTAGRAM_FIELDS, **changes})


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(obs_c=11), "observable types must sum to 25"),
        (dict(planes_b=1), "plane classes must sum to 5"),
        (dict(negative_contexts=8), "negative context count must be odd"),
    ],
)
def test_config_signature_validates(changes, message):
    pentagram = PentagramSignature(**PENTAGRAM_FIELDS)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ConfigSignature(**{**CONFIG_FIELDS, **changes}, pentagram=pentagram)


def test_wa_symbol_validates_the_double_count():
    assert str(WASymbol(((2, 6),), ((4, 3),))) == "6_2 − 3_4"
    with pytest.raises(ValueError, match="^incidence double count broken: 10 != 12$"):
        WASymbol(((2, 5),), ((4, 3),))


def test_replace_runs_the_construction_checks():
    # _replace builds through _make, which tuple.__new__ would otherwise serve unchecked
    with pytest.raises(ValueError, match="^point id must be an integer in 1..63, got 64$"):
        OBSERVABLES[0]._replace(point_id=64)
    context_set = ContextSet.from_words([["XXI", "YYI", "ZZI"]])
    with pytest.raises(DuplicateObservable, match="repeats an observable"):
        context_set._replace(contexts=((OBSERVABLES[0], OBSERVABLES[0]),))
    with pytest.raises(ValueError, match="^incidence double count broken: 3 != 6$"):
        wa_symbol(context_set)._replace(context_part=((3, 2),))
    pentagram = PentagramSignature(**PENTAGRAM_FIELDS)
    with pytest.raises(ValueError, match="^negative edge count must be odd in 1..5$"):
        pentagram._replace(negative_edges=2)
    config = ConfigSignature(**CONFIG_FIELDS, pentagram=pentagram)
    with pytest.raises(ValueError, match="^plane classes must sum to 5$"):
        config._replace(planes_b=1)


def test_observable_repr_names_id_and_word():
    assert repr(Observable(30)) == "Observable(30, 'XYZ')"


def test_a_rebuilt_pentad_equals_the_streamed_one(space, pentads):
    # a pentad carries no id, so one rebuilt from its planes is the same record
    assert Pentad._fields == ("planes", "meet_points", "distinguished_lines")
    sample, other = pentads[4321], pentads[4322]
    rebuilt = pentad_from_planes(space, sample.planes)
    assert rebuilt == sample and sample == rebuilt
    assert not rebuilt != sample and not sample != rebuilt
    assert hash(rebuilt) == hash(sample)
    assert {sample: "found"}[rebuilt] == "found"
    assert rebuilt != other and not rebuilt == other
