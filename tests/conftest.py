"""Shared fixtures: the space, the pentad census, and dense-matrix oracles.

The oracle builds the exact 8x8 complex matrix of every point id from its
coordinates alone: qubit j's factor is the Pauli matrix named by the bit
pair (x_j, x_{j+3}).  It reads neither ``WORDS`` nor ``PauliLetter`` and
shares no code with the phase-arithmetic engine, so it serves as the
independent cross-check for every sign computed by the package.
"""

from pathlib import Path

import numpy as np
import pytest

from w52.geometry import Space
from w52.pentads import enumerate_pentads, pentad_to_config, pentad_to_pentagram
from w52.taxonomy import classify_census

#: The package source directory, for child processes' PYTHONPATH.
SRC = Path(__file__).resolve().parents[1] / "src"

# the worked-example pentagram on a GHZ-style observable set; the last edge
# is the negative one
CANONICAL_EDGES = [
    ["XII", "IYI", "IIY", "XYY"],
    ["YII", "IXI", "IIY", "YXY"],
    ["YII", "IYI", "IIX", "YYX"],
    ["XII", "IXI", "IIX", "XXX"],
    ["XYY", "YXY", "YYX", "XXX"],
]

IDENTITY8 = np.eye(8, dtype=complex)

#: The single-qubit Pauli matrices, by letter.
PAULI_2X2 = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# I = (0,0), X = (0,1), Y = (1,1), Z = (1,0) as bit pairs (x_j, x_{j+3})
_FACTOR_BY_BITS = {
    (0, 0): PAULI_2X2["I"],
    (0, 1): PAULI_2X2["X"],
    (1, 1): PAULI_2X2["Y"],
    (1, 0): PAULI_2X2["Z"],
}


def dense_matrix(point_id: int) -> np.ndarray:
    """Oracle: the 8x8 matrix of a point id, built from its coordinates.

    The id packs (x1, ..., x6) with x1 most significant, so qubit j's bit
    pair (x_j, x_{j+3}) is ``(pid >> (5 - j)) & 1, (pid >> (2 - j)) & 1``.
    """
    out = np.ones((1, 1), dtype=complex)
    for j in range(3):
        bits = ((point_id >> (5 - j)) & 1, (point_id >> (2 - j)) & 1)
        out = np.kron(out, _FACTOR_BY_BITS[bits])
    return out


# entries of Pauli words are 0, +-1, +-i: exactly representable, so matrix
# equality below is exact, no tolerances involved; DENSE[0], from the all-zero
# coordinates, is the identity, so the oracle covers every id the tables index
DENSE = [dense_matrix(pid) for pid in range(64)]


def dense_commutes(a: int, b: int) -> bool:
    """Oracle: do two point ids commute as 8x8 matrices?"""
    return np.array_equal(DENSE[a] @ DENSE[b], DENSE[b] @ DENSE[a])


def dense_product(ids) -> np.ndarray:
    out = IDENTITY8
    for pid in ids:
        out = out @ DENSE[pid]
    return out


def dense_sign(ids) -> int:
    """Oracle: sign of a product that must be plus or minus the identity."""
    product = dense_product(ids)
    if np.array_equal(product, IDENTITY8):
        return 1
    if np.array_equal(product, -IDENTITY8):
        return -1
    raise AssertionError(f"product of {ids} is not +-identity")


@pytest.fixture(scope="session")
def space() -> Space:
    return Space()


@pytest.fixture(scope="session")
def pentads(space):
    return enumerate_pentads(space)


@pytest.fixture(scope="session")
def pentagrams(space, pentads):
    return tuple(pentad_to_pentagram(space, p) for p in pentads)


@pytest.fixture(scope="session")
def configs(space, pentads):
    return tuple(pentad_to_config(space, p) for p in pentads)


@pytest.fixture(scope="session")
def census(space, pentads):
    return classify_census(space, pentads)
