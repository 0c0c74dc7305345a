"""The pentad JSON export against a second route: the standard json module."""

import io
import json

from w52 import export
from w52.pauli import WORDS


def document(pentads, pentagrams, configs):
    """The export document as the json module would be given it, one dict per record."""
    records = []
    for pentad in pentads:
        pentagram = pentagrams[pentad.pentad_id]
        config = configs[pentad.pentad_id]
        records.append(
            {
                "id": pentad.pentad_id,
                "planes": list(pentad.planes),
                "pentagram": {
                    "edges": [[WORDS[p - 1] for p in edge] for edge in pentagram.edges],
                    "negative_edges": pentagram.negative_edges,
                },
                "config": {
                    "contexts": [[WORDS[p - 1] for p in ctx] for ctx in config.contexts],
                    "negative_contexts": config.negative_contexts,
                },
            }
        )
    return {
        "format": "w52-pentad-census",
        "version": 1,
        "generator": {"package": "w52", "points": 63, "lines": 315, "planes": 135},
        "records": records,
    }


def test_dump_pentads_layout_matches_json_module(space, pentads, pentagrams, configs):
    # no record, one, several, and a run from the middle of the census
    for chosen in (pentads[:0], pentads[:1], pentads[:3], pentads[6000:6010]):
        buf = io.StringIO()
        export.dump_pentads(buf, space, chosen)
        doc = document(chosen, pentagrams, configs)
        assert buf.getvalue() == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
