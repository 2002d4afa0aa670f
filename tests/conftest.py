"""Shared fixtures: the expensive sequences, fits and tables are built once."""

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
    return distance_table(p_seq, FRAMES[Family.ALL_POLYGONS], 2000)


@pytest.fixture(scope="session")
def p_spiral_fit(p_seq, p_fit):
    motion, _ = p_fit
    return fit_motion_to_spiral(p_seq, (500, 1000), init=motion)


@pytest.fixture(scope="session")
def q_fit(q_seq):
    return fit_motion_to_approximant(q_seq, (500, 1000))


@pytest.fixture(scope="session")
def q_spiral_fit(q_seq, q_fit):
    motion, _ = q_fit
    return fit_motion_to_spiral(q_seq, (500, 1000), init=motion)


@pytest.fixture(scope="session")
def q_table(q_seq):
    return distance_table(q_seq, FRAMES[Family.ODD_POLYGONS], 2000)
