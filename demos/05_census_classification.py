#!/usr/bin/env python3
"""The full census: 12,096 configurations falling into 47 types.

Classifies every pentad configuration by its complete signature, compares
the 8-parameter rows against the published 47-row table, and checks the
five structural laws.
"""

import time

from w52 import (
    Space,
    classify_census,
    compare_with_table1,
    enumerate_pentads,
    structural_laws,
)

space = Space()
pentads = enumerate_pentads(space)

t0 = time.perf_counter()
census = classify_census(space, pentads)
print(f"{len(census.records)} types over {census.total} pentads "
      f"in {time.perf_counter() - t0:.1f}s")
print(f"families by negative-context count: {census.family_sizes}")

# --- the census table -----------------------------------------------------------

print("\n  T  count   C-  O_A O_B O_C   F- Fa Fb Fc   P(C- A B C a_neg)  example")
for type_id, r in enumerate(census.records, 1):
    s = r.signature
    p = s.pentagram
    print(f" {type_id:3d} {r.multiplicity:6d}   {s.negative_contexts:2d}   "
          f"{s.obs_a:2d}  {s.obs_b:2d}  {s.obs_c:2d}   {s.neg_planes:2d} {s.planes_a:2d} "
          f"{s.planes_b:2d} {s.planes_c:2d}   ({p.negative_edges} {p.obs_a:2d} {p.obs_b} "
          f"{p.obs_c} {p.a_on_negative})  {r.example_pentad:5d}")

# --- agreement with the published table ------------------------------------------

diff = compare_with_table1(census)
print(f"\nreference table comparison: {diff.render()}")

report = structural_laws(census)
print("\nstructural laws:")
print(report.render())
