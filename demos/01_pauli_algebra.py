#!/usr/bin/env python3
"""Tour of the three-qubit Pauli algebra layer.

Observables are 3-letter words over {I,X,Y,Z}; each is a point of W(5,2),
encoded in GF(2)^6 and packed into an integer id.  Multiplication tracks
the i-exponent exactly, by one closed form in the id's bits; one product is
cross-checked against dense 8x8 matrices built here with numpy.
"""

import numpy as np

from w52 import (
    OBSERVABLES,
    commutes,
    context_sign,
    multiply,
    observable_type,
    parse_observable,
    symplectic_form,
)

# --- encoding ---------------------------------------------------------------

o = parse_observable("XYZ")
print(f"{o.word}: coords {o.coords}, point id {o.point_id}")

# the id is just the coordinate vector read as a binary number
assert o.point_id == int("".join(map(str, o.coords)), 2)

# --- commutation is the symplectic form -------------------------------------

pairs = [("XII", "ZII"), ("XII", "IYZ"), ("XXI", "YYI")]
for wa, wb in pairs:
    a, b = parse_observable(wa), parse_observable(wb)
    print(f"sigma({wa},{wb}) = {symplectic_form(a, b)}  commute: {commutes(a, b)}")

# --- multiplication with exact phases ---------------------------------------

a, b = parse_observable("XXI"), parse_observable("YYI")
k, product = multiply(a, b)
print(f"{a} . {b} = i^{k} {product}")

# cross-check against dense matrices, the Kronecker products of 2x2 factors
PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(observable):
    g1, g2, g3 = (PAULI_2X2[letter] for letter in observable.word)
    return np.kron(np.kron(g1, g2), g3)


assert np.array_equal(dense(a) @ dense(b), (1j**k) * dense(product))

# --- the phase in closed form ----------------------------------------------

# Y = iXZ, so a word is i^y X^x Z^z with y its number of Y factors.  Moving
# Z^z_a past X^x_b costs a factor -1 per qubit where both bits are set, so
# a . b = i^k (a XOR b) with k = y(a) + y(b) + 2|z_a AND x_b| - y(a XOR b) mod 4,
# where the id's high three bits are z and the low three are x.


def y_count(pid):
    return (pid >> 3 & pid).bit_count()


def closed_form_phase(pa, pb):
    return (y_count(pa) + y_count(pb) + 2 * (pa >> 3 & pb).bit_count() - y_count(pa ^ pb)) & 3


for a in OBSERVABLES:
    for b in OBSERVABLES:
        assert multiply(a, b)[0] == closed_form_phase(a.point_id, b.point_id), (a, b)
print(f"closed-form phase matches multiply on all {len(OBSERVABLES) ** 2} ordered pairs")

# --- context signs ----------------------------------------------------------

for words in [("XII", "IXI", "XXI"), ("XXI", "YYI", "ZZI"), ("XYY", "YXY", "YYX", "XXX")]:
    sign = context_sign([parse_observable(w) for w in words])
    print(f"product of {' '.join(words)} = {sign:+d} identity")

# --- the A/B/C type census ---------------------------------------------------

counts = {}
for o in OBSERVABLES:
    counts[observable_type(o).value] = counts.get(observable_type(o).value, 0) + 1
print(f"type census over all 63 observables: {counts}")
