"""Logarithmic spirals and exact nearest-point computation.

The nearest-point solver seeds the spiral angle from the query point's
radius, runs a fixed number of safeguarded Newton iterations on the squared
distance from one start per whole turn on each side of that seed, and keeps
the closest result.  It works on fixed-size blocks of points, so its
temporary memory does not grow with the input size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BLOCK

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LogSpiral:
    """Polar curve r = exp(beta * theta) - offset, beta > 0, offset >= 0."""

    beta: float
    offset: float = 0.0

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("beta must be > 0")
        if self.offset < 0.0:
            raise ValueError("offset must be >= 0")

    @property
    def min_theta(self) -> float:
        """Smallest angle with nonnegative radius."""
        if self.offset == 0.0:
            return -math.inf
        return math.log(self.offset) / self.beta

    def radius(self, theta):
        return np.exp(self.beta * np.asarray(theta, dtype=float)) - self.offset

    def point(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.radius(theta) * np.exp(1j * theta)

    def tangent(self, theta):
        """d(point)/d(theta); points in the direction of increasing radius."""
        theta = np.asarray(theta, dtype=float)
        growth = self.beta * np.exp(self.beta * theta)
        return (growth + 1j * self.radius(theta)) * np.exp(1j * theta)


def spiral_point(spiral: LogSpiral, theta: float) -> complex:
    """Point on the spiral at angle theta; rejects angles with negative radius."""
    if spiral.offset > 0.0 and theta < spiral.min_theta:
        raise ValueError(f"theta {theta} below radial-validity threshold {spiral.min_theta}")
    return complex(spiral.point(theta))


#: Newton iterations per start, fixed so every point runs the same vector ops.
_NEWTON_ITERS = 8
#: Largest angle change of one iteration, in radians.
_MAX_STEP = 0.5
_TINY = np.finfo(float).tiny  # keeps 0 / 0 out of a step where g' = 0 and g'' <= 0


def _solve_block(spiral: LogSpiral, z: np.ndarray, turns: int) -> tuple[np.ndarray, np.ndarray]:
    beta, c = spiral.beta, spiral.offset
    theta_radius = np.log(np.abs(z) + c) / beta
    arg = np.angle(z)
    theta0 = arg + TWO_PI * np.round((theta_radius - arg) / TWO_PI)
    # one row per branch, plus a second start on the centre branch (branch axis, point axis)
    branches = np.append(np.arange(-turns, turns + 1), 0)
    centers = theta0 + TWO_PI * branches[:, None]
    lo, hi = centers - math.pi, centers + math.pi
    if c > 0.0:
        lo, hi = np.maximum(lo, spiral.min_theta), np.maximum(hi, spiral.min_theta)
    theta = np.clip(centers, lo, hi)
    theta[-1] = theta_radius
    for _ in range(_NEWTON_ITERS):
        # g' and g'' in the frame rotated by -theta, where p(theta) is the real r and z is u
        e = np.exp(beta * theta)
        r = e - c
        u = z * np.exp(-1j * theta)
        qr, ui = r - u.real, u.imag
        be = beta * e
        slope = be * qr - r * ui
        curv = be * be + r * r + ((beta * beta - 1.0) * e + c) * qr - 2.0 * be * ui
        # a Newton step where g'' > 0 and the step is short, else a descent step of _MAX_STEP
        step = slope / np.maximum(curv, np.abs(slope) / _MAX_STEP + _TINY)
        theta = np.minimum(np.maximum(theta - step, lo), hi)
    d2 = np.abs(z - spiral.point(theta)) ** 2
    best = np.argmin(d2, axis=0)
    cols = np.arange(z.size)
    return np.sqrt(d2[best, cols]), theta[best, cols]


def nearest_distances(spiral: LogSpiral, z, turns: int = 2):
    """Vectorized nearest distance and angle from each point of z to the spiral.

    Seeds: theta0 is the angle on the ray through the point at the turn
    whose radius best matches the point's modulus.  Branch k, for k in
    [-turns, turns], covers the angles within pi of theta0 + 2*pi*k and
    starts at that centre.  The centre branch starts a second time at the
    radius-matching angle log(|z| + offset) / beta itself, which matters
    where the curve is far from self-similar: near the origin of an offset
    spiral, or on a steep spiral.

    Each start runs _NEWTON_ITERS Newton iterations on
    g(theta) = |z - p(theta)|^2 / 2.  Safeguards: a step is at most
    _MAX_STEP radians; where g'' <= 0 a descent step of _MAX_STEP replaces
    the Newton step; iterates are clamped to their branch and, for an
    offset spiral, to theta >= min_theta.  The start with the smallest
    distance wins.  Points are solved BLOCK at a time, so temporaries are
    (2*turns + 2) x BLOCK and only the outputs grow with the number of
    points.  The solve runs in the calling process: the spiral-route fit
    calls it ~2,000 times per fit, and forking workers per call would cost
    more than it saves.  distance_table spreads its blocks over the CPUs.

    Checked against dense angle sampling for beta from 0.05 to 3, offsets
    up to 100 and moduli over 22 e-folds; a steeper spiral may need more
    iterations.  Returns (distances, thetas).
    """
    if turns < 1:
        raise ValueError("turns must be >= 1")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z == 0):
        raise ValueError("points must be nonzero (the curve accumulates at the origin)")
    distances = np.empty(z.shape)
    thetas = np.empty(z.shape)
    for i in range(0, z.size, BLOCK):
        distances[i : i + BLOCK], thetas[i : i + BLOCK] = _solve_block(spiral, z[i : i + BLOCK], turns)
    return distances, thetas


def nearest_distance(spiral: LogSpiral, z: complex, turns: int = 2) -> tuple[float, float]:
    """Nearest distance from z to the spiral and the minimizing angle."""
    d, theta = nearest_distances(spiral, [z], turns=turns)
    return float(d[0]), float(theta[0])


def offset_distance_profile(beta: float, c: float, r_values) -> list[tuple[float, float, float]]:
    """Measured vs predicted distances from the offset curve to the base spiral.

    For each radius r, takes the point at radius r on r = exp(beta*theta) - c,
    measures its nearest distance to r = exp(beta*theta), and pairs it with
    the flat prediction c / sqrt(1 + beta^2).
    """
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    if c < 0.0:
        raise ValueError("c must be >= 0")
    base = LogSpiral(beta, 0.0)
    predicted = c / math.sqrt(1.0 + beta * beta)
    rows = []
    for r in r_values:
        theta = math.log(r + c) / beta
        point = r * complex(math.cos(theta), math.sin(theta))
        if c == 0.0:
            rows.append((float(r), 0.0, 0.0))
            continue
        d, _ = nearest_distance(base, point)
        rows.append((float(r), d, predicted))
    return rows
