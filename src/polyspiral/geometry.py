"""Exact construction of the polygon-center sequences and the vertex-level chain.

The chain starts from a unit equilateral triangle and attaches a regular
(k+1)-gon to the k-gon, edge to edge, always bending left as little as
possible.  Two centre sequences are built: one over all polygon counts
(3, 4, 5, ...) and one over the odd counts only (3, 5, 7, ...).  The
vertex-level chain is an independent computation path used to cross-check
the closed-form centre sums.

All polygons have side length 1; the plane is the complex plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

SEED_VERTICES = (  # counterclockwise
    complex(0.0, 0.5),
    complex(-math.sqrt(3.0) / 2.0, 0.0),
    complex(0.0, -0.5),
)


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


@dataclass
class Polygon:
    sides: int
    vertices: np.ndarray
    centroid: complex


@dataclass
class PolygonChain:
    polygons: list[Polygon]

    def __len__(self) -> int:
        return len(self.polygons)


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


def circumradius(sides: int) -> float:
    """Circumradius of a unit-side regular polygon."""
    return 0.5 / math.sin(math.pi / sides)


def build_chain(n_max: int) -> PolygonChain:
    """Vertex-level chain of polygons from the triangle up to the n_max-gon.

    The seed triangle is fixed at SEED_VERTICES.  Each following m-gon is
    placed around its centre so that its vertices 0 and m-1 span the edge
    facing back along the step from the (m-1)-gon's centre.  Centroids are
    vertex averages, an independent path from the closed-form centre sums.
    """
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    seed = np.array(SEED_VERTICES, dtype=complex)
    polygons = [Polygon(3, seed, complex(seed.mean()))]
    centers = centers_all(n_max).centers
    steps = np.diff(centers)
    for m, center, step in zip(range(4, n_max + 1), centers[1:], steps):
        j = np.arange(m)
        vertices = center - circumradius(m) * (step / abs(step)) * np.exp(1j * np.pi * (2 * j + 1) / m)
        polygons.append(Polygon(m, vertices, complex(vertices.mean())))
    return PolygonChain(polygons)


def _is_convex_cyclic(vertices: np.ndarray) -> bool:
    v = vertices
    nxt = np.roll(v, -1)
    edges = nxt - v
    cross = np.imag(np.conj(edges) * np.roll(edges, -1))
    return bool(np.all(cross > 0.0))


EDGE_TOL = 1e-9


def validate_chain(chain: PolygonChain) -> list[Violation]:
    """Check unit edges, shared edges, convexity, centroid agreement.

    Violations are returned as data; an empty list means the chain satisfies
    every invariant.
    """
    if not chain.polygons:
        raise ValueError("chain is empty")
    report: list[Violation] = []
    n_max = chain.polygons[-1].sides
    expected = centers_all(n_max)

    for idx, poly in enumerate(chain.polygons):
        if len(poly.vertices) != poly.sides:
            report.append(Violation(poly.sides, "vertex-count", float(len(poly.vertices))))
            continue
        edge_lengths = np.abs(np.roll(poly.vertices, -1) - poly.vertices)
        worst = float(np.max(np.abs(edge_lengths - 1.0)))
        if worst > EDGE_TOL:
            report.append(Violation(poly.sides, "unit-edge", worst))
        if not _is_convex_cyclic(poly.vertices):
            report.append(Violation(poly.sides, "convexity", math.nan))
        centroid_err = abs(complex(poly.vertices.mean()) - expected.center(poly.sides))
        if centroid_err > EDGE_TOL:
            report.append(Violation(poly.sides, "centroid", centroid_err))
        if idx + 1 < len(chain.polygons):
            nxt = chain.polygons[idx + 1]
            # build_chain puts the shared edge at the next polygon's vertices 0 and m-1
            ends = nxt.vertices[[0, -1]]
            dist = np.abs(ends[:, None] - poly.vertices[None, :])
            shared = int(np.count_nonzero(dist.min(axis=1) < EDGE_TOL))
            if shared != 2:
                report.append(Violation(poly.sides, "shared-edge", float(shared)))
    return report
