"""Exact construction of the polygon-center sequences and the vertex-level chain.

A chain joins unit regular polygons edge to edge, always bending left as
little as possible, so that each odd s-gon turns it by pi/s.  A family is
its list of side counts: 2, 3, 4, ... for all polygon counts and 3, 5, 7,
... for the odd ones, the first polygon centred at 0.  The centres come
from closed-form sums over that list; the vertex-level chain walks the same
list from edge to edge without any centre, and cross-checks the sums.

All polygons have side length 1; the plane is the complex plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Family(Enum):
    """A chain's side counts.  Sequence index n names the n-gon in ``all``
    and the (2n+1)-gon in ``odd``; the polygon before ``first_index`` is
    the one centred at 0 (the degenerate 2-gon, or the triangle)."""

    ALL_POLYGONS = "all"
    ODD_POLYGONS = "odd"

    @property
    def first_index(self) -> int:
        return 3 if self is Family.ALL_POLYGONS else 2

    def sides(self, n_max: int) -> np.ndarray:
        """Side counts of the polygons up to index n_max, from the one centred at 0."""
        if n_max < self.first_index:
            raise ValueError(f"n_max must be >= {self.first_index}")
        indices = np.arange(self.first_index - 1, n_max + 1)
        return indices if self is Family.ALL_POLYGONS else 2 * indices + 1


@dataclass(frozen=True)
class Violation:
    polygon: int
    kind: str
    value: float


def compensated_cumsum(terms: np.ndarray) -> np.ndarray:
    """Every prefix sum of real or complex float64 terms, compensated.

    Ogita, Rump & Oishi's Sum2 (SIAM J. Sci. Comput. 26, 2005) applied to
    every prefix at once: ``np.cumsum`` gives the float64 partial sums, the
    TwoSum identity recovers the exact rounding error of each addition, and
    the running sum of those errors corrects them.  Each prefix S_n is
    returned within eps*|S_n| + (n*eps)^2 * sum|t_j| per component, as if
    summed in twice the working precision.
    """
    terms = np.asarray(terms)
    sums = np.cumsum(terms)
    before, after = sums[:-1], sums[1:]
    # Knuth's TwoSum, in place so that only four arrays are live: with
    # z = after - before, after + (before - (after - z)) + (t - z) = before + t exactly.
    z = after - before
    out = np.zeros_like(sums)
    error = out[1:]
    np.subtract(before, np.subtract(after, z, out=error), out=error)
    error += np.subtract(terms[1:], z, out=z)
    np.cumsum(out, out=out)
    out += sums
    return out


def _expi_pi(s: np.ndarray) -> np.ndarray:
    """exp(i*pi*s) with argument reduction, exact at integer s."""
    n = np.rint(s)
    f = s - n
    sign = 1.0 - 2.0 * (n.astype(np.int64) & 1)
    return sign * (np.cos(np.pi * f) + 1j * (np.sin(np.pi * f) + 0.0))


def _centers(sides: np.ndarray) -> np.ndarray:
    """Centres of the polygons sides[1:], the sides[0]-gon centred at 0.

    Consecutive polygons are joined edge to edge, so the step between their
    centres is the sum of their apothems (the degenerate 2-gon has none).
    The step leaving sides[0] points at pi, and each odd s-gon, sides[0]
    included, turns the steps after it by pi/s.
    """
    apothem = np.where(sides > 2, 0.5 / np.tan(np.pi / sides), 0.0)
    turns = np.concatenate(([1.0], np.where(sides[:-1] % 2 == 1, 1.0 / sides[:-1], 0.0)))
    return compensated_cumsum((apothem[:-1] + apothem[1:]) * _expi_pi(compensated_cumsum(turns)[1:]))


def centers(family: Family, n_max: int) -> np.ndarray:
    """Centres of the family's polygons, in side lengths: entry i has sequence index first_index + i, up to n_max."""
    return _centers(family.sides(n_max))


def centers_all(n_max: int) -> np.ndarray:
    """centers(Family.ALL_POLYGONS, n_max), under the name the CLI calls and perfbench times."""
    return centers(Family.ALL_POLYGONS, n_max)


def centers_odd(n_max: int) -> np.ndarray:
    """centers(Family.ODD_POLYGONS, n_max), under the name the CLI calls and perfbench times."""
    return centers(Family.ODD_POLYGONS, n_max)


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum, per component)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def build_chain(family: Family, n_max: int) -> list[np.ndarray]:
    """Vertex-level chain of the family's polygons, indices first_index..n_max.

    chain[i] holds the counterclockwise vertices of polygon first_index + i.
    The walk starts on the exit edge of the sides[0]-gon centred at 0 and
    builds each m-gon on the edge it shares with its predecessor: vertex m-1
    is the edge's start b, and the m unit edges leave it in direction
    d*exp(2*pi*i*k/m).  The next edge starts at vertex (m+1)//2, opposite the
    entry edge (the left of the two when m is odd); d starts at i and each
    odd m-gon, sides[0] included, turns it by pi/m.  The turn and b carry
    TwoSum's low parts, so no rounding grows along the walk.  No centre is
    read: the centroids check the closed-form centre sums independently.
    """

    def direction() -> complex:  # i*exp(i*pi*(turn + turn_low)), reduced by turn's nearest integer k
        k = round(turn)
        return (-1) ** k * cmath.exp(1j * math.pi * (turn - k)) * complex(-math.pi * turn_low, 1.0)

    first, *rest = family.sides(n_max).tolist()
    turn, turn_low = (1.0 / first if first % 2 else 0.0), 0.0
    start, low = direction() * complex(-0.5, 0.5 / math.tan(math.pi / first) if first > 2 else 0.0), 0j
    chain = []
    for m in rest:
        offsets = low + np.cumsum(direction() * np.exp(2j * np.pi * np.arange(m) / m))
        chain.append(start + offsets)
        start, low = two_sum(start, complex(offsets[(m + 1) // 2]))
        if m % 2:
            turn, turn_low = two_sum(turn, turn_low + 1.0 / m)
    return chain


def _is_convex_cyclic(vertices: np.ndarray) -> bool:
    v = vertices
    nxt = np.roll(v, -1)
    edges = nxt - v
    cross = np.imag(np.conj(edges) * np.roll(edges, -1))
    return bool(np.all(cross > 0.0))


EDGE_TOL = 1e-9


def validate_chain(chain: list[np.ndarray], family: Family) -> list[Violation]:
    """Check unit edges, shared edges, convexity, centroid agreement.

    chain must hold the family's polygons from first_index on, as
    build_chain returns them.  Violations are returned as data; an empty
    list means the chain satisfies every invariant.
    """
    if not chain:
        raise ValueError("chain is empty")
    report: list[Violation] = []
    n_max = family.first_index + len(chain) - 1
    polygons = zip(chain, family.sides(n_max)[1:].tolist(), centers(family, n_max).tolist())

    for idx, (vertices, sides, center) in enumerate(polygons):
        if len(vertices) != sides:
            report.append(Violation(sides, "vertex-count", float(len(vertices))))
            continue
        edge_lengths = np.abs(np.roll(vertices, -1) - vertices)
        worst = float(np.max(np.abs(edge_lengths - 1.0)))
        if worst > EDGE_TOL:
            report.append(Violation(sides, "unit-edge", worst))
        if not _is_convex_cyclic(vertices):
            report.append(Violation(sides, "convexity", math.nan))
        centroid_err = abs(complex(vertices.mean()) - center)
        if centroid_err > EDGE_TOL:
            report.append(Violation(sides, "centroid", centroid_err))
        if idx + 1 < len(chain):
            # build_chain puts the shared edge at the next polygon's vertices 0 and m-1
            ends = chain[idx + 1][[0, -1]]
            dist = np.abs(ends[:, None] - vertices[None, :])
            shared = int(np.count_nonzero(dist.min(axis=1) < EDGE_TOL))
            if shared != 2:
                report.append(Violation(sides, "shared-edge", float(shared)))
    return report
