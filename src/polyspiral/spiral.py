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
    """Polar curve r = exp(beta * theta), beta > 0."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("beta must be > 0")

    def radius(self, theta):
        return np.exp(self.beta * np.asarray(theta, dtype=float))

    def point(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.radius(theta) * np.exp(1j * theta)


#: Newton iterations per start, fixed so every point runs the same vector ops.
_NEWTON_ITERS = 8
#: Whole turns searched on each side of the seed's branch.
_TURNS = 2
#: Largest angle change of one iteration, in radians.
_MAX_STEP = 0.5
_TINY = np.finfo(float).tiny  # keeps 0 / 0 out of a step where g' = 0 and g'' <= 0


def _solve_block(spiral: LogSpiral, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    beta = spiral.beta
    theta_radius = np.log(np.abs(z)) / beta
    arg = np.angle(z)
    theta0 = arg + TWO_PI * np.round((theta_radius - arg) / TWO_PI)
    # one row per branch, plus a second start on the centre branch (branch axis, point axis)
    branches = np.append(np.arange(-_TURNS, _TURNS + 1), 0)
    theta = theta0 + TWO_PI * branches[:, None]
    lo, hi = theta - math.pi, theta + math.pi
    theta[-1] = theta_radius
    for _ in range(_NEWTON_ITERS):
        # g' and g'' in the frame rotated by -theta, where p(theta) is the real r and z is u
        r = np.exp(beta * theta)
        u = z * np.exp(-1j * theta)
        qr, ui = r - u.real, u.imag
        br = beta * r
        slope = br * qr - r * ui
        curv = br * br + r * r + (beta * beta - 1.0) * r * qr - 2.0 * br * ui
        # a Newton step where g'' > 0 and the step is short, else a descent step of _MAX_STEP
        step = slope / np.maximum(curv, np.abs(slope) / _MAX_STEP + _TINY)
        theta = np.minimum(np.maximum(theta - step, lo), hi)
    p = spiral.point(theta)
    d2 = np.abs(z - p) ** 2
    best = np.argmin(d2, axis=0)
    cols = np.arange(z.size)
    p, d = p[best, cols], np.sqrt(d2[best, cols])
    # inner (left of the tangent (beta + i)*p) where Im((beta - i)*conj(p)*(z - p)) > 0
    inner = ((beta - 1j) * np.conj(p) * (z - p)).imag > 0.0
    return np.where(inner, d, -d), theta[best, cols]


def nearest_distances(spiral: LogSpiral, z):
    """Vectorized signed nearest distance and angle from each point of z to the spiral.

    The distance is positive on the spiral's inner side, left of the
    tangent (beta + i)*exp((beta + i)*theta) at the nearest point theta:
    there Im((beta - i) * z * exp(-i*theta)) > -r(theta).

    Seeds: theta0 is the angle on the ray through the point at the turn
    whose radius best matches the point's modulus.  Branch k, for k in
    [-_TURNS, _TURNS], covers the angles within pi of theta0 + 2*pi*k and
    starts at that centre.  The centre branch starts a second time at the
    radius-matching angle log|z| / beta itself, which matters on a steep
    spiral (at beta = 3 it is the nearest start for ~7 % of random points).

    Each start runs _NEWTON_ITERS Newton iterations on
    g(theta) = |z - p(theta)|^2 / 2.  Safeguards: a step is at most
    _MAX_STEP radians; where g'' <= 0 a descent step of _MAX_STEP replaces
    the Newton step; iterates are clamped to their branch.  The start with
    the smallest distance wins.  Points are solved BLOCK at a time, so
    temporaries are (2*_TURNS + 2) x BLOCK and only the outputs grow with
    the number of points.  The solve runs in the calling process;
    distance_table spreads its blocks over the CPUs, one block per call.

    Checked against dense angle sampling for beta from 0.05 to 3 and
    moduli over 22 e-folds; a steeper spiral may need more iterations.
    Returns (signed distances, thetas).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z == 0):
        raise ValueError("points must be nonzero (the curve accumulates at the origin)")
    distances = np.empty(z.shape)
    thetas = np.empty(z.shape)
    for i in range(0, z.size, BLOCK):
        distances[i : i + BLOCK], thetas[i : i + BLOCK] = _solve_block(spiral, z[i : i + BLOCK])
    return distances, thetas


def offset_distance_profile(beta: float, c: float, r_values) -> tuple[np.ndarray, float]:
    """Measured vs predicted distances from the offset curve to the base spiral.

    For each radius r, takes the point at radius r on r = exp(beta*theta) - c
    and measures its signed nearest distance to r = exp(beta*theta) (positive:
    the offset curve lies inside).  Returns those distances and the flat
    prediction c / sqrt(1 + beta^2).
    """
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    if c < 0.0:
        raise ValueError("c must be >= 0")
    r = np.asarray(r_values, dtype=float)
    theta = np.log(r + c) / beta
    d, _ = nearest_distances(LogSpiral(beta), r * (np.cos(theta) + 1j * np.sin(theta)))
    return d, c / math.sqrt(1.0 + beta * beta)
