"""Logarithmic spirals and exact nearest-point computation.

The nearest-point solver seeds the spiral angle on the ray through the
query point, at the turn whose radius best matches the point's modulus.
A point whose log-radius gap to that turn is small enough that no other
turn can hold its nearest point takes a fixed number of undamped Newton
steps from that seed.  Any other point runs a fixed number of safeguarded
Newton iterations from one start per whole turn on each side of the seed
and keeps the closest result.  The solver works on fixed-size blocks of
points, so its temporary memory does not grow with the input size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


#: Newton iterations per start of the multi-start path, fixed so every point runs the same vector ops.
_NEWTON_ITERS = 8
#: Whole turns searched on each side of the seed's branch by the multi-start path.
_TURNS = 2
#: Largest angle change of one multi-start iteration, in radians.
_MAX_STEP = 0.5
_TINY = np.finfo(float).tiny  # keeps 0 / 0 out of a step where g' = 0 and g'' <= 0
#: The one-start path takes points whose log-radius gap rho to the seed's turn is
#: below min(_NEAR_GAP, _NEAR_GAP_PER_BETA * beta); nearest_distances derives both.
_NEAR_GAP = 0.05
_NEAR_GAP_PER_BETA = math.pi / 4
#: Undamped Newton steps of the one-start path; nearest_distances derives the count.
_NEAR_STEPS = 4


def _slope_curvature(beta: float, z: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g' and g'' of g(theta) = |z - p(theta)|^2 / 2.

    Computed in the frame rotated by -theta, where p(theta) is the real r
    and z is u.
    """
    r = np.exp(beta * theta)
    u = z * np.exp(-1j * theta)
    qr, ui = r - u.real, u.imag
    br = beta * r
    return br * qr - r * ui, br * br + r * r + (beta * beta - 1.0) * r * qr - 2.0 * br * ui


def _multi_start(spiral: LogSpiral, z: np.ndarray, theta0: np.ndarray, theta_radius: np.ndarray) -> np.ndarray:
    """The angle of the closest of 2*_TURNS + 2 safeguarded Newton solves around theta0."""
    # one row per branch, plus a second start on the centre branch (branch axis, point axis)
    branches = np.append(np.arange(-_TURNS, _TURNS + 1), 0)
    theta = theta0 + TWO_PI * branches[:, None]
    lo, hi = theta - math.pi, theta + math.pi
    theta[-1] = theta_radius
    for _ in range(_NEWTON_ITERS):
        slope, curv = _slope_curvature(spiral.beta, z, theta)
        # a Newton step where g'' > 0 and the step is short, else a descent step of _MAX_STEP
        step = slope / np.maximum(curv, np.abs(slope) / _MAX_STEP + _TINY)
        theta = np.minimum(np.maximum(theta - step, lo), hi)
    d2 = np.abs(z - spiral.point(theta)) ** 2
    return theta[np.argmin(d2, axis=0), np.arange(z.size)]


def _solve_block(spiral: LogSpiral, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    beta = spiral.beta
    log_r = np.log(np.abs(z))
    arg = np.angle(z)
    theta = arg + TWO_PI * np.round((log_r / beta - arg) / TWO_PI)
    far = np.abs(log_r - beta * theta) >= min(_NEAR_GAP, _NEAR_GAP_PER_BETA * beta)
    if far.any():
        theta[far] = _multi_start(spiral, z[far], theta[far], log_r[far] / beta)
    near = ~far
    z_near, theta_near = z[near], theta[near]
    for _ in range(_NEAR_STEPS):
        slope, curv = _slope_curvature(beta, z_near, theta_near)
        theta_near -= slope / curv
    theta[near] = theta_near
    p = spiral.point(theta)
    d = np.abs(z - p)
    # inner (left of the tangent (beta + i)*p) where Im((beta - i)*conj(p)*(z - p)) > 0
    inner = ((beta - 1j) * np.conj(p) * (z - p)).imag > 0.0
    return np.where(inner, d, -d), theta


#: Items per block: points of one nearest-point solve, rows of one CLI write.
BLOCK = 1 << 14


def nearest_distances(spiral: LogSpiral, z):
    """Vectorized signed nearest distance and angle from each point of z to the spiral.

    The distance is positive on the spiral's inner side, left of the
    tangent (beta + i)*exp((beta + i)*theta) at the nearest point theta:
    there Im((beta - i) * z * exp(-i*theta)) > -r(theta).

    Seed: theta0 is the angle on the ray through the point at the turn
    whose radius best matches the point's modulus R.  The point's signed
    log-radius gap to that turn, q = ln R - beta*theta0, therefore has
    rho = |q| <= pi*beta.

    One start, where rho < min(_NEAR_GAP, _NEAR_GAP_PER_BETA*beta):
    _NEAR_STEPS undamped Newton steps on g(theta) = |z - p(theta)|^2 / 2
    from theta0.  With v(theta) = (beta + i)*(theta - theta0) - q, the
    distance is |z - p(theta)| = R*|exp(v) - 1|, so what follows depends
    on beta and q only, never on R.

    - No other turn can hold the nearest point.  p(theta0) is
      R*(exp(rho) - 1) away, so the nearest point has
      |exp(v) - 1| <= exp(rho) - 1 < 1, which puts v within
      lam = -ln(2 - exp(rho)) <= 1.06*rho of some 2*pi*i*k.  The line
      v(theta) passes 2*pi*i*k at the distance
      |2*pi*beta*k - q| / sqrt(1 + beta^2), which for k != 0 is at least
      (2*pi*beta - rho) / sqrt(1 + beta^2).  For beta <= 1 the guard
      rho < pi*beta/4 makes that at least 7*rho/sqrt(2) > lam; for
      beta > 1 the guard rho < 0.05 makes it at least
      (2*pi - 0.05)/sqrt(2) > 4 > lam.  So k = 0: the nearest point lies
      within (lam + rho)/sqrt(1 + beta^2) of theta0, on the seed's turn.
    - The step count.  Newton's iterates do not depend on how the angle
      is scaled, so measure the error in s = sqrt(1 + beta^2)*(theta -
      theta*), with theta* the minimiser.  The log-polar map is
      conformal, so theta* is the foot of the normal from (theta0, ln R)
      to the line ln r = beta*theta, up to O(rho^2): the seed's error is
      beta*rho/sqrt(1 + beta^2) + O(rho^2) < rho.  Near the minimiser
      g/R^2 = s^2/2 + (beta/sqrt(1 + beta^2))*s^3/2 + O(rho*s^2, s^4),
      so g'' > 0 (no safeguard is needed) and a step maps the error e to
      about M*e^2, M = g'''/(2*g'') = 1.5*beta/sqrt(1 + beta^2) + O(rho).
      Long-double iterations over beta from 1e-3 to 1e3 and the whole
      guard bound the errors after 1 to 4 steps by 4.0e-3, 2.4e-5,
      8.9e-10 and 1.3e-18.  Three steps already put the distance, which
      is off by about R*e^2/2, below the float64 rounding of R; the
      fourth brings theta to the float64 floor as well.

    Every other point runs _NEWTON_ITERS safeguarded Newton iterations
    from 2*_TURNS + 2 starts.  Branch k, for k in [-_TURNS, _TURNS],
    covers the angles within pi of theta0 + 2*pi*k and starts at that
    centre.  The centre branch starts a second time at the
    radius-matching angle log|z| / beta itself, which matters on a steep
    spiral (at beta = 3 it is the nearest start for ~7 % of random points).
    Safeguards: a step is at most _MAX_STEP radians; where g'' <= 0 a
    descent step of _MAX_STEP replaces the Newton step; iterates are
    clamped to their branch.  The start with the smallest distance wins.
    A single start matters for accuracy too: the better of two starts
    that reach the same minimum is the smaller of two rounded distances,
    which biases mean distances low.

    Points are solved BLOCK at a time, so temporaries are at most
    (2*_TURNS + 2) x BLOCK and only the outputs grow with the number of
    points.  Checked against dense angle sampling for beta from 0.05 to 3
    and moduli over 22 e-folds; a steeper spiral may need more
    multi-start iterations.
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
