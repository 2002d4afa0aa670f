"""Exact construction of the polygon-center sequences and the vertex-level chain.

The chain starts from a unit equilateral triangle and attaches a regular
(k+1)-gon to the k-gon, edge to edge, always bending left as little as
possible.  Two centre sequences are built: one over all polygon counts
(3, 4, 5, ...) and one over the odd counts only (3, 5, 7, ...).  The
vertex-level chain is built independently, by walking from edge to edge
without any centre, and cross-checks the closed-form centre sums.

All polygons have side length 1; the plane is the complex plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Family(Enum):
    """Which polygon-count sequence a centre sequence belongs to."""

    ALL_POLYGONS = "all"
    ODD_POLYGONS = "odd"


@dataclass(frozen=True)
class CenterSequence:
    """Ordered polygon centres, indexed from ``first_index``.

    ``centers[i]`` is the centre with sequence index ``first_index + i``.
    Units are polygon side lengths.
    """

    family: Family
    first_index: int
    centers: np.ndarray

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def last_index(self) -> int:
        return self.first_index + len(self.centers) - 1

    def center(self, n: int) -> complex:
        """Centre with sequence index n."""
        if not self.first_index <= n <= self.last_index:
            raise IndexError(f"index {n} outside [{self.first_index}, {self.last_index}]")
        return complex(self.centers[n - self.first_index])

    def slice(self, start: int, end: int) -> np.ndarray:
        """Centres for sequence indices start..end inclusive."""
        if start > end:
            raise ValueError("empty index range")
        if start < self.first_index or end > self.last_index:
            raise IndexError(f"range [{start}, {end}] outside [{self.first_index}, {self.last_index}]")
        i = start - self.first_index
        return self.centers[i : i + (end - start + 1)]


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
    sign = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    return sign * (np.cos(np.pi * f) + 1j * (np.sin(np.pi * f) + 0.0))


def _centers(sides: np.ndarray) -> np.ndarray:
    """Centres of the polygons sides[1:], the sides[0]-gon centred at 0.

    Consecutive polygons in the chain are joined edge to edge, so the step
    between their centres is the sum of their apothems (the degenerate
    2-gon has none).  The step leaving the s-gon points at pi times the sum
    of 1/j over odd j <= s: each odd-sided polygon turns the chain by pi/s.
    """
    apothem = np.where(sides > 2, 0.5 / np.tan(np.pi / sides), 0.0)
    odd_reciprocals = 1.0 / np.arange(1, sides[-2] + 1, 2)
    turns = compensated_cumsum(odd_reciprocals)[(sides[:-1] - 1) // 2]
    return compensated_cumsum((apothem[:-1] + apothem[1:]) * _expi_pi(turns))


def centers_all(n_max: int) -> CenterSequence:
    """Centres of the 3-gon through the n_max-gon, indexed by side count."""
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    return CenterSequence(Family.ALL_POLYGONS, 3, _centers(np.arange(2, n_max + 1)))


def centers_odd(n_max: int) -> CenterSequence:
    """Centres of the odd-count chain 3, 5, 7, ...: index k is the (2k+1)-gon.

    The triangle sits at the origin, so the step into index k has magnitude
    (cot(pi/(2k-1)) + cot(pi/(2k+1))) / 2 and direction pi (H_2k - H_k / 2);
    entries are indexed 2..n_max.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    return CenterSequence(Family.ODD_POLYGONS, 2, _centers(np.arange(3, 2 * n_max + 2, 2)))


def build_chain(n_max: int) -> list[np.ndarray]:
    """Vertex-level chain of polygons from the triangle up to the n_max-gon.

    chain[i] holds the counterclockwise vertices of the (i+3)-gon.  The walk
    starts on the degenerate 2-gon's edge, from -i/2 in direction i, and
    builds each m-gon on the edge it shares with its predecessor: vertex m-1
    is the edge's start b, and the m unit edges leave it in direction
    d*exp(2*pi*i*k/m), k = 0..m-1.  The next polygon's edge starts at vertex
    (m+1)//2, the exit edge opposite the entry edge (the left one of the two
    when m is odd), and an odd m-gon turns d by pi/m.  No centre is read, so
    the centroids are an independent check of the closed-form centre sums.
    """
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    chain = []
    start, direction = -0.5j, 1j
    for m in range(3, n_max + 1):
        vertices = start + np.cumsum(direction * np.exp(2j * np.pi * np.arange(m) / m))
        chain.append(vertices)
        start = vertices[(m + 1) // 2]
        if m % 2:
            direction *= cmath.exp(1j * math.pi / m)
    return chain


def _is_convex_cyclic(vertices: np.ndarray) -> bool:
    v = vertices
    nxt = np.roll(v, -1)
    edges = nxt - v
    cross = np.imag(np.conj(edges) * np.roll(edges, -1))
    return bool(np.all(cross > 0.0))


EDGE_TOL = 1e-9


def validate_chain(chain: list[np.ndarray]) -> list[Violation]:
    """Check unit edges, shared edges, convexity, centroid agreement.

    chain[i] must hold the vertices of the (i+3)-gon, as build_chain returns
    them.  Violations are returned as data; an empty list means the chain
    satisfies every invariant.
    """
    if not chain:
        raise ValueError("chain is empty")
    report: list[Violation] = []
    expected = centers_all(len(chain) + 2)

    for idx, vertices in enumerate(chain):
        sides = idx + 3
        if len(vertices) != sides:
            report.append(Violation(sides, "vertex-count", float(len(vertices))))
            continue
        edge_lengths = np.abs(np.roll(vertices, -1) - vertices)
        worst = float(np.max(np.abs(edge_lengths - 1.0)))
        if worst > EDGE_TOL:
            report.append(Violation(sides, "unit-edge", worst))
        if not _is_convex_cyclic(vertices):
            report.append(Violation(sides, "convexity", math.nan))
        centroid_err = abs(complex(vertices.mean()) - expected.center(sides))
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
