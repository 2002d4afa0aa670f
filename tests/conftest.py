"""Shared fixtures: the expensive sequences, fits and tables are built once.

A sequence is the centres from the family's first index to 2000; a table is
its index and distance columns, (n, distance).
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
    return fit_motion_to_approximant(Family.ALL_POLYGONS, (500, 1000), p_seq[500 - 3 : 1000 - 3 + 1])


@pytest.fixture(scope="session")
def p_table(p_seq):
    return np.arange(3, 2001), distance_table(FRAMES[Family.ALL_POLYGONS], p_seq)


@pytest.fixture(scope="session")
def p_spiral_fit(p_seq):
    return fit_motion_to_spiral(Family.ALL_POLYGONS, (500, 1000), p_seq[500 - 3 : 1000 - 3 + 1])


@pytest.fixture(scope="session")
def q_fit(q_seq):
    return fit_motion_to_approximant(Family.ODD_POLYGONS, (500, 1000), q_seq[500 - 2 : 1000 - 2 + 1])


@pytest.fixture(scope="session")
def q_spiral_fit(q_seq):
    return fit_motion_to_spiral(Family.ODD_POLYGONS, (500, 1000), q_seq[500 - 2 : 1000 - 2 + 1])


@pytest.fixture(scope="session")
def q_table(q_seq):
    return np.arange(2, 2001), distance_table(FRAMES[Family.ODD_POLYGONS], q_seq)
