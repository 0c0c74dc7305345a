#!/usr/bin/env python3
"""Fano pentads and the two contextual sets each of them hosts.

Enumerates all 12,096 pentads, walks through one of them, and shows the
pentad <-> pentagram round trip on a hand-written example.
"""

import time
from collections import Counter

from w52 import (
    Space,
    enumerate_pentads,
    pentad_to_config,
    pentad_to_pentagram,
    pentagram_from_edges,
    pentagram_to_pentad,
)

space = Space()
t0 = time.perf_counter()
pentads = enumerate_pentads(space)
print(f"{len(pentads)} pentads in {time.perf_counter() - t0:.2f}s")


def w(point_id):
    return space.points[point_id - 1].word


# --- one pentad in detail -----------------------------------------------------

pentad = pentads[0]
print(f"\npentad 0: planes {pentad.planes}")
for plane_id, line_id in zip(pentad.planes, pentad.distinguished_lines):
    plane = space.planes[plane_id]
    shared = " ".join(w(p) for p in space.flags[plane_id, line_id].affine)
    print(f"  plane {plane_id} [{plane.plane_class}]: shared points {shared}")

pentagram = pentad_to_pentagram(space, pentad)
print(f"\nits pentagram ({pentagram.negative_edges} negative edge(s)):")
for edge, sign in zip(pentagram.edges, pentagram.edge_signs):
    print(f"  {' '.join(w(p) for p in edge)}   {sign:+d}")

config = pentad_to_config(space, pentad)
print(f"\nits configuration: {len(config.observables)} observables, "
      f"{len(config.contexts)} contexts, {config.negative_contexts} negative")

# --- distribution stats over the census ----------------------------------------

per_plane = Counter()
for p in pentads:
    per_plane.update(p.planes)
values = sorted(set(per_plane.values()))
print(f"\npentads through a plane: {values} (mean {12096 * 5 / 135:.0f})")

negatives = Counter(pentad_to_config(space, p).negative_contexts for p in pentads)
print("negative-context distribution:", dict(sorted(negatives.items())))

# --- round trip from hand-written edges ----------------------------------------

edges = [
    ["XII", "IYI", "IIY", "XYY"],
    ["YII", "IXI", "IIY", "YXY"],
    ["YII", "IYI", "IIX", "YYX"],
    ["XII", "IXI", "IIX", "XXX"],
    ["XYY", "YXY", "YYX", "XXX"],
]
g = pentagram_from_edges(edges)
back = pentagram_to_pentad(space, g)
print(f"\nhand-written pentagram lives in pentad with planes {back.planes}")
assert pentad_to_pentagram(space, back) == g
print("round trip pentagram -> pentad -> pentagram is the identity")
