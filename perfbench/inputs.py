"""Seeded inputs for the ``verify`` workload: context sets given as Pauli words.

The pool has a fixed number of sets of each kind, so every seed gives the
same size mix and verdict mix; the seed picks the pentads, the replaced
words, the dropped contexts and every order.  Pentads come from the w52
library before any timing starts.  Each set's expected outcome comes from
the dense oracle, and a set whose oracle verdict is not the one its kind
must have stops the run.
"""

from __future__ import annotations

import random

from oracle import MALFORMED, NOT_CONTEXTUAL, VALID, Mismatch, expected_report

#: kind -> (number of sets in the pool, verdict the oracle must give)
POOL = {
    "config": (140, VALID),  # one pentad's 30 three-element contexts
    "pentagram": (80, VALID),  # one pentad's 5 four-element contexts
    "union2": (30, NOT_CONTEXTUAL),  # two configurations: the negatives become even
    "union3": (30, VALID),  # three configurations, 90 contexts
    "config_drop": (40, NOT_CONTEXTUAL),  # a configuration less one context
    "pentagram_drop": (20, NOT_CONTEXTUAL),
    "config_replace": (40, MALFORMED),  # one word swapped for another: not closed
    "pentagram_replace": (20, MALFORMED),
}


def verify_pool(seed: int) -> tuple[list[list[list[str]]], list[list]]:
    """The seeded pool of context sets and the oracle's outcome for each."""
    from w52 import OBSERVABLES, Space, enumerate_pentads, pentad_to_config, pentad_to_pentagram

    rng = random.Random(seed)
    space = Space()
    pentads = enumerate_pentads(space)
    words = [o.word for o in OBSERVABLES]

    def config():
        pentad = rng.choice(pentads)
        return [[words[p - 1] for p in ctx] for ctx in pentad_to_config(space, pentad).contexts]

    def pentagram():
        pentad = rng.choice(pentads)
        return [[words[p - 1] for p in edge] for edge in pentad_to_pentagram(space, pentad).edges]

    def drop(rows):
        del rows[rng.randrange(len(rows))]
        return rows

    def replace(rows):
        row = rows[rng.randrange(len(rows))]
        row[rng.randrange(len(row))] = rng.choice([w for w in words if w not in row])
        return rows

    build = {
        "config": config,
        "pentagram": pentagram,
        "union2": lambda: config() + config(),
        "union3": lambda: config() + config() + config(),
        "config_drop": lambda: drop(config()),
        "pentagram_drop": lambda: drop(pentagram()),
        "config_replace": lambda: replace(config()),
        "pentagram_replace": lambda: replace(pentagram()),
    }
    pool = []
    for kind, (count, verdict) in POOL.items():
        for _ in range(count):
            rows = build[kind]()
            for row in rows:
                rng.shuffle(row)
            rng.shuffle(rows)
            pool.append((kind, verdict, rows))
    rng.shuffle(pool)
    sets, expected = [], []
    for kind, verdict, rows in pool:
        outcome = expected_report(rows)
        if outcome[0] != verdict:
            raise Mismatch(f"a generated {kind} set is {outcome[0]} by the oracle, not {verdict}")
        sets.append(rows)
        expected.append(outcome)
    return sets, expected
