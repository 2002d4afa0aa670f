"""Shared fixtures: the expensive sequences, fits and tables are built once.

A table is its index and distance columns, (n, distance).
"""

import numpy as np
import pytest

from polyspiral.geometry import Family, centers
from polyspiral.metrics import (
    FRAMES,
    distance_table,
    fit_motion_to_approximant,
    fit_motion_to_spiral,
)


@pytest.fixture(scope="session")
def p_seq():
    return centers(Family.ALL_POLYGONS, 2000)


@pytest.fixture(scope="session")
def q_seq():
    return centers(Family.ODD_POLYGONS, 2000)


@pytest.fixture(scope="session")
def p_fit(p_seq):
    return fit_motion_to_approximant(p_seq, (500, 1000))


@pytest.fixture(scope="session")
def p_table(p_seq):
    return np.arange(p_seq.first_index, 2001), distance_table(FRAMES[Family.ALL_POLYGONS], p_seq.centers)


@pytest.fixture(scope="session")
def p_spiral_fit(p_seq):
    return fit_motion_to_spiral(p_seq, (500, 1000))


@pytest.fixture(scope="session")
def q_fit(q_seq):
    return fit_motion_to_approximant(q_seq, (500, 1000))


@pytest.fixture(scope="session")
def q_spiral_fit(q_seq):
    return fit_motion_to_spiral(q_seq, (500, 1000))


@pytest.fixture(scope="session")
def q_table(q_seq):
    return np.arange(q_seq.first_index, 2001), distance_table(FRAMES[Family.ODD_POLYGONS], q_seq.centers)
