"""Rigid-motion estimation and convergence measurements against the spiral.

The centre sequences approach the spiral r = exp(4*theta/pi) only after an
unknown orientation-preserving isometry.  Two estimation routes are
implemented for both families: a direct fit against the family's
closed-form centre approximant, and a cross-check that polishes a given
motion with Nelder-Mead until the nearest-distance profile is constant
within each parity class.  The distance table, Richardson extrapolation
and the inner-side classification consume the fitted motion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import GROWTH_RATE, Parity, UNIT_COEFF, approximant
from .geometry import CenterSequence
from .spiral import LogSpiral, nearest_distances

TWO_PI = 2.0 * math.pi

#: Complex factor mapping centres into approximant coordinates: 2*pi*(1 + i*pi/4).
APPROXIMANT_SCALE = TWO_PI * UNIT_COEFF

#: Modulus of APPROXIMANT_SCALE; the normalization divisor s = 2*pi*sqrt(1 + pi^2/16).
NORMALIZATION_MODULUS = abs(APPROXIMANT_SCALE)

#: The spiral every distance is measured against.
TARGET_SPIRAL = LogSpiral(GROWTH_RATE, 0.0)


class FitError(RuntimeError):
    """No consistent rigid motion found."""


@dataclass(frozen=True)
class RigidMotion:
    """Orientation-preserving plane isometry z -> exp(i*rotation) * z + translation."""

    rotation: float
    translation: complex

    def __post_init__(self):
        object.__setattr__(self, "rotation", self.rotation % TWO_PI)

    def apply(self, z):
        return cmath.exp(1j * self.rotation) * np.asarray(z) + self.translation

    def inverse(self) -> "RigidMotion":
        return RigidMotion(-self.rotation, -self.translation * cmath.exp(-1j * self.rotation))


@dataclass(frozen=True)
class SimilarityMap:
    """Plane map z -> scale * exp(i*rotation) * z + translation, scale > 0."""

    scale: float
    rotation: float
    translation: complex

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("scale must be > 0")

    def apply(self, z):
        return self.scale * cmath.exp(1j * self.rotation) * np.asarray(z) + self.translation

    def compose(self, other: "SimilarityMap") -> "SimilarityMap":
        """self after other: (self.compose(other)).apply(z) == self.apply(other.apply(z))."""
        factor = self.scale * cmath.exp(1j * self.rotation)
        return SimilarityMap(
            self.scale * other.scale,
            self.rotation + other.rotation,
            factor * other.translation + self.translation,
        )

    @classmethod
    def from_rigid(cls, motion: RigidMotion) -> "SimilarityMap":
        return cls(1.0, motion.rotation, motion.translation)


def normalization_map() -> SimilarityMap:
    """The map w -> w / s^(1 + i*pi/4) with s = 2*pi*sqrt(1 + pi^2/16).

    Composed with multiplication by APPROXIMANT_SCALE it has unit scale,
    which is what makes the full centre-to-spiral transform an isometry.
    """
    s = NORMALIZATION_MODULUS
    return SimilarityMap(1.0 / s, -0.25 * math.pi * math.log(s), 0.0)


@dataclass(frozen=True, eq=False)
class DistanceTable:
    """Columnar distance measurements: index, distance, nearest angle, mapped point.

    Each column is a numpy array with one entry per index; ``n`` is strictly
    increasing and parity is ``n % 2``.  ``extrapolated`` holds the Richardson
    value per index, NaN where there is none (all NaN by default).
    """

    n: np.ndarray
    distance: np.ndarray
    theta: np.ndarray
    point: np.ndarray
    extrapolated: np.ndarray | None = None

    def __post_init__(self):
        if np.any(np.diff(self.n) <= 0):
            raise ValueError("n must be strictly increasing")
        if self.extrapolated is None:
            object.__setattr__(self, "extrapolated", np.full(len(self.n), np.nan))

    def select(self, mask: np.ndarray) -> "DistanceTable":
        """The rows where the boolean mask is true."""
        return DistanceTable(self.n[mask], self.distance[mask], self.theta[mask], self.point[mask], self.extrapolated[mask])


@dataclass
class FitDiagnostics:
    residual_max: float
    residual_slope: float
    per_parity_mean: dict[Parity, float]
    objective: float | None = None
    evaluations: int = 0


def _window_slice(seq: CenterSequence, window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    start, end = window
    centers = seq.slice(start, end)
    return np.arange(start, end + 1), centers


def _refine_linear(ns: np.ndarray, a: np.ndarray, b: np.ndarray, phi: float, c: complex) -> tuple[float, complex]:
    """One linearized least-squares update of (phi, c).

    The leftover a - (e^{i phi} b + c) is modelled as i*dphi*e^{i phi}*b
    + dc plus twist-modulated decaying terms (u + v*(-1)^n) t^{i pi/2}/t;
    fitting the tail explicitly keeps it from contaminating the rotation
    and translation estimates.
    """
    eps = a - (np.exp(1j * phi) * b + c)
    sign = np.where(ns % 2 == 0, 1.0, -1.0)
    t = ns - 0.5
    tail = np.exp(0.5j * math.pi * np.log(t)) / t
    cols = [1j * np.exp(1j * phi) * b, np.ones_like(a), sign * tail, tail]
    design = np.zeros((2 * len(ns), 7))
    rhs = np.concatenate([eps.real, eps.imag])
    design[: len(ns), 0] = cols[0].real
    design[len(ns) :, 0] = cols[0].imag
    for i, col in enumerate(cols[1:], start=1):
        design[: len(ns), 2 * i - 1] = col.real
        design[len(ns) :, 2 * i - 1] = col.imag
        design[: len(ns), 2 * i] = -col.imag
        design[len(ns) :, 2 * i] = col.real
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return phi + float(coef[0]), c + complex(coef[1], coef[2])


def fit_motion_to_approximant(seq: CenterSequence, window: tuple[int, int]) -> tuple[RigidMotion, FitDiagnostics]:
    """Estimate the motion aligning scaled centres with the family's centre approximant.

    The rotation starts from the circular mean of the step-direction ratios
    between the two sequences and the translation from the mean leftover;
    a least-squares polish then strips the decaying-tail contamination from
    both.  Residuals must shrink across the window, otherwise the parity
    handling or indexing is off and FitError is raised.
    """
    ns, centers = _window_slice(seq, window)
    if len(ns) < 8:
        raise ValueError("window length must be >= 8")
    a = APPROXIMANT_SCALE * centers
    b = approximant(ns, seq.family)
    ratios = np.diff(a) / np.diff(b)
    # a one-index shift inflates step magnitudes by 1/n, far above the
    # O(1/n^2) level of an aligned sequence; only separable for large starts
    drift = abs(float(np.mean(np.abs(ratios))) - 1.0)
    if window[0] >= 100 and drift > 0.2 / window[0]:
        raise FitError(f"step-magnitude mismatch {drift:.3e} on window {window}: index drift suspected")
    ratios = ratios / np.abs(ratios)
    phi = float(np.angle(ratios.mean()))
    c = complex((a - np.exp(1j * phi) * b).mean())
    for _ in range(2):
        phi, c = _refine_linear(ns, a, b, phi, c)
    residuals = np.abs(a - (np.exp(1j * phi) * b + c))

    third = len(ns) // 3
    if np.max(residuals) > 1e-9 * np.max(np.abs(a)) and np.max(residuals[-third:]) >= np.max(residuals[:third]):
        raise FitError(
            f"residual spread grows across window {window}: "
            f"{np.max(residuals[:third]):.3e} -> {np.max(residuals[-third:]):.3e}"
        )

    slope = float(np.polyfit(np.log(ns), np.log(residuals + 1e-300), 1)[0])
    motion = RigidMotion(phi, c)
    means = parity_means(distance_table(seq, motion, window[1], n_min=window[0]))
    diag = FitDiagnostics(float(residuals.max()), slope, means)
    return motion, diag


_POLISH_STEPS = (1e-4, 1e-2, 1e-2)


def _parity_variance_objective(params, a: np.ndarray, parities: np.ndarray, spiral: LogSpiral, turns: int) -> float:
    phi, cx, cy = params
    w = normalization_map().apply(np.exp(-1j * phi) * (a - complex(cx, cy)))
    d, _ = nearest_distances(spiral, w, turns=turns)
    total = 0.0
    for val in (0, 1):
        sel = d[parities == val]
        if len(sel) > 1:
            total += float(np.var(sel))
    return total


def fit_motion_to_spiral(
    seq: CenterSequence,
    spiral: LogSpiral,
    window: tuple[int, int],
    init: RigidMotion,
    objective_threshold: float = 1e-4,
) -> tuple[RigidMotion, FitDiagnostics]:
    """Polish a motion until nearest distances are parity-constant.

    Minimizes the summed within-parity variance of the normalized mapped
    points' nearest distances with a Nelder-Mead simplex started at init
    (in practice the approximant fit), steps 1e-4 in rotation and 1e-2 in
    translation.  Used as an independent cross-check of that fit.
    """
    from scipy.optimize import minimize  # ~0.55 s and ~50 MiB, so only the spiral route pays it

    ns, centers = _window_slice(seq, window)
    if len(ns) < 16:
        raise ValueError("window length must be >= 16")
    a = APPROXIMANT_SCALE * centers
    parities = ns % 2

    x0 = (init.rotation, init.translation.real, init.translation.imag)
    simplex = np.array([x0] + [[x0[k] + (_POLISH_STEPS[k] if i == k else 0.0) for k in range(3)] for i in range(3)])
    result = minimize(
        _parity_variance_objective,
        x0,
        args=(a, parities, spiral, 1),
        method="Nelder-Mead",
        options={"initial_simplex": simplex, "fatol": 1e-12, "xatol": 1e-10, "maxfev": 10_000, "maxiter": 10_000},
    )
    if result.fun > objective_threshold:
        raise FitError(f"no consistent motion: best objective {result.fun:.3e} > {objective_threshold:.3e}")

    phi, cx, cy = result.x
    motion = RigidMotion(float(phi), complex(cx, cy))
    table = distance_table(seq, motion, window[1], n_min=window[0], spiral=spiral)
    diag = FitDiagnostics(
        residual_max=float(table.distance.max()),
        residual_slope=0.0,
        per_parity_mean=parity_means(table),
        objective=float(result.fun),
        evaluations=result.nfev,
    )
    return motion, diag


def distance_table(
    seq: CenterSequence,
    motion: RigidMotion,
    n_max: int,
    n_min: int | None = None,
    spiral: LogSpiral = TARGET_SPIRAL,
    turns: int = 2,
) -> DistanceTable:
    """Per-index nearest distances of the mapped, normalized centres.

    Each centre is scaled by APPROXIMANT_SCALE, pulled back through the
    fitted motion's inverse, normalized to unit scale, and measured against
    the target spiral.
    """
    if n_min is None:
        n_min = seq.first_index
    if not seq.first_index <= n_min <= n_max <= seq.last_index:
        raise ValueError(f"[{n_min}, {n_max}] outside sequence range [{seq.first_index}, {seq.last_index}]")
    a = APPROXIMANT_SCALE * seq.slice(n_min, n_max)
    w = normalization_map().apply(motion.inverse().apply(a))
    d, theta = nearest_distances(spiral, w, turns=turns)
    return DistanceTable(np.arange(n_min, n_max + 1), d, theta, w)


def parity_means(table: DistanceTable, extrapolated: bool = False) -> dict[Parity, float]:
    """Mean distance per parity; optionally over extrapolated values only."""
    values = table.extrapolated if extrapolated else table.distance
    keep = ~np.isnan(values) if extrapolated else True
    means = {}
    for parity in Parity:
        sel = values[keep & (table.n % 2 == (parity is Parity.ODD))]
        if len(sel):
            means[parity] = float(np.mean(sel))
    return means


def richardson_extrapolate(table: DistanceTable, stride: int = 2) -> DistanceTable:
    """Eliminate the 1/n tail by pairing each index with one near stride*n.

    The partner must have the same parity; when stride*n itself flips
    parity the nearest same-parity neighbour (stride*n +- 1) is used, with
    the exact two-point elimination (m*d(m) - n*d(n)) / (m - n).  Indices
    without a partner get NaN.
    """
    if stride < 2:
        raise ValueError("stride must be >= 2")
    n, d = table.n, table.distance
    extrapolated = np.full(len(n), np.nan)
    unpaired = np.ones(len(n), dtype=bool)
    for offset in (0, 1, -1):
        m = stride * n + offset
        j = np.minimum(np.searchsorted(n, m), len(n) - 1)
        hit = unpaired & (n[j] == m) & ((m - n) % 2 == 0) & (m != n)
        m, j = m[hit], j[hit]
        extrapolated[hit] = (m * d[j] - n[hit] * d[hit]) / (m - n[hit])
        unpaired &= ~hit
    return replace(table, extrapolated=extrapolated)


def inner_side_fraction(table: DistanceTable, spiral: LogSpiral = TARGET_SPIRAL) -> float:
    """Fraction of mapped points on the spiral's inner side.

    A point is inner when it lies left of the tangent direction at its
    nearest spiral point (the side of decreasing radius).
    """
    if not table.n.size:
        raise ValueError("no records")
    offset = table.point - spiral.point(table.theta)
    inner = np.count_nonzero((np.conj(spiral.tangent(table.theta)) * offset).imag > 0.0)
    return inner / table.n.size
