"""The pentad exports against a second route, the standard json and csv
modules, and against sets built from the planes; the configuration check
against corrupted tables and meets."""

import csv
import io
import itertools
import json
import re

import pytest

from w52 import export
from w52.geometry import NEGATIVE_BIT, Space, TaxonomyViolation, affine_part
from w52.pauli import WORDS
from w52.pentads import (
    negative_counts,
    pentad_from_planes,
    pentad_to_config,
    pentad_to_pentagram,
)

from conftest import dense_sign


def words(rows):
    return [[WORDS[p - 1] for p in row] for row in rows]


def record(pentad_id, pentad, edges, negative_edges, contexts, negative_contexts):
    """One record of the export document, its edges and contexts given as words."""
    return {
        "id": pentad_id,
        "planes": list(pentad.planes),
        "pentagram": {"edges": edges, "negative_edges": negative_edges},
        "config": {"contexts": contexts, "negative_contexts": negative_contexts},
    }


def document(records):
    """The export document as the json module would be given it."""
    return {
        "format": "w52-pentad-census",
        "version": 1,
        "generator": {"package": "w52", "points": 63, "lines": 315, "planes": 135},
        "records": records,
    }


def test_dump_pentads_layout_matches_json_module(space, pentads, pentagrams, configs):
    # no record, one, several, and a run from the middle of the census, each
    # given as a sequence and as a generator, which has no truth value of its
    # own; the writer numbers what it is given, so the run's ids start at 0
    for start, stop in ((0, 0), (0, 1), (0, 3), (6000, 6010)):
        chosen = pentads[start:stop]
        doc = document([
            record(
                pentad_id,
                pentad,
                words(pentagrams[start + pentad_id].edges),
                pentagrams[start + pentad_id].negative_edges,
                words(configs[start + pentad_id].contexts),
                configs[start + pentad_id].negative_contexts,
            )
            for pentad_id, pentad in enumerate(chosen)
        ])
        for given in (chosen, (pentad for pentad in chosen)):
            buf = io.StringIO()
            assert export.dump_pentads(buf, space, given) == len(chosen)
            assert buf.getvalue() == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def test_exports_match_sets_built_from_the_planes_for_every_pentad(space, pentads):
    # Each flag's edge is its affine part and its contexts are the plane's
    # other lines, with signs from the dense oracle; neither the flag table
    # nor the tallies the writers read are used here.
    negative = {line.points: dense_sign(line.points) < 0 for line in space.lines}
    flags = {}
    for plane_id, plane in enumerate(space.planes):
        for line_id in plane.lines:
            edge = affine_part(plane, space.lines[line_id])
            six = [space.lines[lid].points for lid in plane.lines if lid != line_id]
            flags[plane_id, line_id] = (
                (edge, words([edge])[0]),
                dense_sign(edge) < 0,
                list(zip(six, words(six))),
                sum(map(negative.__getitem__, six)),
            )
    records, rows = [], ["id,planes,negative_edges,negative_contexts"]
    for pentad_id, pentad in enumerate(pentads):
        built = [flags[key] for key in zip(pentad.planes, pentad.distinguished_lines)]
        # both sets are listed in order of their point ids
        edges = [w for _, w in sorted([edge for edge, _, _, _ in built])]
        contexts = [w for _, w in sorted([c for _, _, six, _ in built for c in six])]
        negative_edges = sum([negative for _, negative, _, _ in built])
        negative_contexts = sum([negative for _, _, _, negative in built])
        records.append(
            record(pentad_id, pentad, edges, negative_edges, contexts, negative_contexts)
        )
        planes = " ".join(map(str, pentad.planes))
        rows.append(f"{pentad_id},{planes},{negative_edges},{negative_contexts}")
    text, table = io.StringIO(), io.StringIO()
    assert export.dump_pentads(text, space, iter(pentads)) == len(pentads)
    assert export.dump_pentad_csv(table, space, iter(pentads)) == len(pentads)
    assert table.getvalue().splitlines() == rows
    # No word, key or number holds white space, so the writer's text without
    # it is what the json module writes without it; the layout is checked
    # above against the json module's own indentation.
    compact = text.getvalue().encode().translate(None, b" \n")
    assert compact == json.dumps(document(records), separators=(",", ":")).encode()


def test_a_flag_edited_between_two_calls_is_seen_by_the_second(pentads):
    # every call reads the flags afresh, so no call keeps facts across calls
    space = Space()
    sample = pentads[4321]
    key = sample.planes[0], sample.distinguished_lines[0]
    calls = [
        lambda: export.dump_pentads(io.StringIO(), space, [sample]),
        lambda: pentad_to_pentagram(space, sample),
        lambda: pentad_to_config(space, sample),
    ]
    for call in calls:
        call()
    before = negative_counts(space, sample)
    table = io.StringIO()
    export.dump_pentad_csv(table, space, [sample])
    flag = space.flags[key]
    space.flags[key] = flag._replace(sign=-flag.sign)
    for call in calls:
        with pytest.raises(TaxonomyViolation, match="pentagram of pentad .* even negative count"):
            call()
    edited = io.StringIO()
    export.dump_pentad_csv(edited, space, [sample])
    assert negative_counts(space, sample)[0] == before[0] + flag.sign
    assert edited.getvalue() == table.getvalue().replace(
        f",{before[0]},{before[1]}\n", f",{before[0] + flag.sign},{before[1]}\n"
    )


CORRUPTIONS = [
    "flag line -> its distinguished line",
    "flag line -> a line off the plane",
    "flag line -> another of its lines",
    "line tally",
    "line sign",
    "plane tally",
]


def corrupt(space, pentads, configs, kind):
    """Corrupt one table entry read by pentad 4321's first flag: its six
    lines in ``space.flags``, the tally or the negative bit of its first
    line, or the tally of its plane; return the ids of every pentad that
    reads that entry."""
    sample = pentads[4321]
    plane_id, line_id = sample.planes[0], sample.distinguished_lines[0]
    flag = space.flags[plane_id, line_id]
    six = flag.lines
    point = space.lines[six[0]].points[0]
    if kind.startswith("flag line"):
        off_plane = min(set(range(315)) - set(space.planes[plane_id].lines))
        replacement = {
            "flag line -> its distinguished line": line_id,
            "flag line -> a line off the plane": off_plane,
            "flag line -> another of its lines": six[1],
        }[kind]
        space.flags[plane_id, line_id] = flag._replace(lines=(replacement,) + six[1:])
        key = plane_id, line_id
        return {i for i, p in enumerate(pentads) if key in zip(p.planes, p.distinguished_lines)}
    if kind.startswith("line"):
        if kind == "line tally":
            space.line_tally[six[0]] += 1 << 4 * point
        else:  # the point counts stay right, and only the line's sign is wrong
            space.line_tally[six[0]] ^= 1 << NEGATIVE_BIT
        line = space.lines[six[0]].points
        return {i for i, c in enumerate(configs) if line in c.contexts}
    space.plane_tally[plane_id] += 1 << 4 * point
    return {i for i, p in enumerate(pentads) if plane_id in p.planes}


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_corrupt_context_table_fails_exactly_the_pentads_reading_it(pentads, configs, kind):
    space = Space()
    expected = corrupt(space, pentads, configs, kind)
    assert len(expected) == {"line": 1152, "plane": 448}.get(kind.split()[0], 64)
    failed = set()
    for pentad_id, pentad in enumerate(pentads):
        try:
            pentad_to_config(space, pentad)
        except TaxonomyViolation:
            failed.add(pentad_id)
    assert failed == expected
    # the writer passes every other pentad and fails each of these on its own
    others = [p for i, p in enumerate(pentads) if i not in expected]
    export.dump_pentads(io.StringIO(), space, others)
    for pentad_id in sorted(expected)[:64]:
        with pytest.raises(TaxonomyViolation):
            export.dump_pentads(io.StringIO(), space, [pentads[pentad_id]])


@pytest.mark.parametrize(
    "to", ["a point of the plane", "a point off the five planes", "another meet"]
)
def test_a_wrong_meet_point_is_rejected(space, pentads, to):
    # the meets' tally is summed from the pentad's own meet points, so a
    # pentad that names a wrong one fails the occurrence check
    sample = pentads[4321]
    pentad_to_config(space, sample)
    meets = sample.meet_points
    covered = {p for plane_id in sample.planes for p in space.planes[plane_id].points}
    wrong = {
        "a point of the plane": min(set(space.planes[sample.planes[0]].points) - set(meets)),
        "a point off the five planes": min(set(range(1, 64)) - covered),
        "another meet": meets[1],
    }[to]
    bad = sample._replace(meet_points=(wrong,) + meets[1:])
    message = re.escape(f"contexts of pentad {sample.planes}, expected")
    with pytest.raises(TaxonomyViolation, match=message):
        pentad_to_config(space, bad)
    with pytest.raises(TaxonomyViolation):
        export.dump_pentads(io.StringIO(), space, [bad])


def test_repeated_contexts_that_keep_every_tally_are_rejected(pentads):
    # In a flag, the two lines through a point x of the distinguished line each
    # hold x and two meets, so giving one of them twice in place of the other
    # moves two meets' counts.  Two such swaps in each of three planes can
    # cancel, sign bits included: then only the distinct-lines check is left.
    space = Space()
    sample = pentads[4321]
    flags = list(zip(sample.planes, sample.distinguished_lines))

    def swaps(flag):
        six = space.flags[flag].lines
        through = [
            [lid for lid in six if x in space.lines[lid].points]
            for x in space.lines[flag[1]].points
        ]
        for two in itertools.combinations(through, 2):
            yield from itertools.product(*[(pair, pair[::-1]) for pair in two])

    def shift(swap):
        return sum(space.line_tally[kept] - space.line_tally[dropped] for kept, dropped in swap)

    corruption = next(
        zip(chosen, moves)
        for chosen in itertools.combinations(flags, 3)
        for moves in itertools.product(*map(swaps, chosen))
        if sum(map(shift, moves)) == 0
    )
    before = [space.line_id_of(c) for c in pentad_to_config(space, sample).contexts]
    for flag, swap in corruption:
        six = list(space.flags[flag].lines)
        for kept, dropped in swap:
            six[six.index(dropped)] = kept
        space.flags[flag] = space.flags[flag]._replace(lines=tuple(six))
    line_ids = [lid for flag in flags for lid in space.flags[flag].lines]
    assert len(set(line_ids)) == 24
    assert sum(map(space.line_tally.__getitem__, line_ids)) == sum(
        map(space.line_tally.__getitem__, before)
    )
    with pytest.raises(TaxonomyViolation, match="repeated contexts"):
        pentad_to_config(space, sample)


def test_dump_pentad_csv_matches_csv_module(space, pentads):
    # the last pentad is rebuilt from its planes; the writer numbers each
    # pentad by its place in what it is given, so that one is 3
    chosen = list(pentads[:3]) + [pentad_from_planes(space, pentads[6000].planes)]
    buf = io.StringIO()
    export.dump_pentad_csv(buf, space, chosen)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["id", "planes", "negative_edges", "negative_contexts"])
    # the counts come from the derived sets, not from negative_counts, which
    # the writer itself calls
    for pentad_id, pentad in enumerate(chosen):
        writer.writerow([pentad_id, " ".join(map(str, pentad.planes)),
                         pentad_to_pentagram(space, pentad).negative_edges,
                         pentad_to_config(space, pentad).negative_contexts])
    assert buf.getvalue() == expected.getvalue()


def test_render_csv_takes_its_columns_from_the_first_row():
    rows = [{"id": 1, "points": ["XII", "IXI"]}, {"id": 2, "points": ["YII"]}]
    assert export.render_csv(rows) == "id,points\n1,XII IXI\n2,YII\n"
    assert export.render_csv([]) == ""
