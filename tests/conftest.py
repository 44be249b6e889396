import random

import pytest

from cycledec.complexes import TwoChain, TwoComplex, ZeroForm
from cycledec.ratio import ONE, ZERO, Rat


def rand_rat(rng: random.Random, lo=-9, hi=9, max_den=9) -> Rat:
    return Rat(rng.randrange(lo, hi + 1), rng.randrange(1, max_den + 1))


def rand_pos_rat(rng: random.Random, hi=9, max_den=9) -> Rat:
    return Rat(rng.randrange(1, hi + 1), rng.randrange(1, max_den + 1))


def face_indicator(complex: TwoComplex, fid: int) -> TwoChain:
    values = [ZERO] * complex.n_faces
    values[fid] = ONE
    return TwoChain(complex, values)


def vertex_indicator(complex: TwoComplex, vertex) -> ZeroForm:
    values = [ZERO] * complex.n_vertices
    values[complex.vertex_index[vertex]] = ONE
    return ZeroForm(complex, values)


def gradient_matrix(complex: TwoComplex):
    """Matrix of the vertex coboundary, one column per vertex indicator."""
    rows = []
    for u, v in complex.edges:
        row = [ZERO] * complex.n_vertices
        row[complex.vertex_index[v]] += ONE
        row[complex.vertex_index[u]] -= ONE
        rows.append(row)
    return rows


CUBE_FACES = [
    ("001", "101", "111", "011"),
    ("000", "010", "110", "100"),
    ("000", "100", "101", "001"),
    ("010", "011", "111", "110"),
    ("000", "001", "011", "010"),
    ("100", "110", "111", "101"),
]


def cube_complex() -> TwoComplex:
    """Sphere-like orientable test surface with agreeing orientations."""
    cx = TwoComplex.from_face_cycles(CUBE_FACES, orientable=True, name="cube")
    cx.validate()
    return cx


@pytest.fixture
def rng():
    return random.Random(20240811)
