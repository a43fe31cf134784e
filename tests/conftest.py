import random

import pytest

from graphspectra import shift
from graphspectra.graphs import directed_edge_matrix, genus2_catalog

# Reference 6x6 matrices for the two multi-vertex genus-2 graphs, in the
# labeling where the theta matrix is the 6-cycle adjacency.
THETA_REFERENCE = (
    (0, 1, 0, 0, 0, 1),
    (1, 0, 1, 0, 0, 0),
    (0, 1, 0, 1, 0, 0),
    (0, 0, 1, 0, 1, 0),
    (0, 0, 0, 1, 0, 1),
    (1, 0, 0, 0, 1, 0),
)
DUMBBELL_REFERENCE = (
    (0, 0, 1, 0, 0, 1),
    (1, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0),
    (0, 1, 0, 0, 1, 0),
    (1, 0, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 1),
)


def rnd_matrix(n):
    """The seeded random 0/1 matrix "rnd n": letter i has successor
    i + 1 mod n plus two ``randrange(n)`` draws from ``random.Random(n)``,
    for i = 0, ..., n - 1 in order.  It is irreducible and leaves a unit-
    pivot remainder of about n / 7 rows (36 x 36 at n = 250)."""
    rng = random.Random(n)
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[(i + 1) % n] = 1
        row[rng.randrange(n)] = 1
        row[rng.randrange(n)] = 1
    return rows


@pytest.fixture(scope="session")
def schottky2():
    return shift.full_schottky_sft(2)


@pytest.fixture(scope="session")
def theta_sft():
    return shift.from_edge_matrix(directed_edge_matrix(genus2_catalog()[1]))


@pytest.fixture(scope="session")
def dumbbell_sft():
    return shift.from_edge_matrix(directed_edge_matrix(genus2_catalog()[2]))
