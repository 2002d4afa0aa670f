"""Spiral coordinates of the centres and convergence measurements against the spiral.

The centre sequences approach the spiral r = exp(4*theta/pi) after one
fixed orientation-preserving isometry per family, FRAMES[family].  The
distance table, Richardson extrapolation and the inner-side classification
measure the centres in those coordinates.  Two fit routes estimate the
same frame from a window of centres and serve as cross-checks of the
constants: a direct fit against the family's closed-form centre
approximant, and a Gauss-Newton polish of a given frame until the
nearest-distance profile is constant within each parity class.  Both
return a SpiralFrame, the one type of a motion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .asymptotics import GROWTH_RATE, Parity, UNIT_COEFF, approximant
from .geometry import CenterSequence, Family
from .spiral import LogSpiral, nearest_distances

#: Complex factor mapping centres into approximant coordinates: 2*pi*(1 + i*pi/4).
APPROXIMANT_SCALE = 2.0 * math.pi * UNIT_COEFF

#: Modulus of APPROXIMANT_SCALE; the normalization divisor s = 2*pi*sqrt(1 + pi^2/16).
NORMALIZATION_MODULUS = abs(APPROXIMANT_SCALE)

#: s^(1 + i*pi/4); dividing approximant coordinates by it gives spiral coordinates.
NORMALIZATION = NORMALIZATION_MODULUS ** (1.0 + 0.25j * math.pi)

#: The spiral every distance is measured against.
TARGET_SPIRAL = LogSpiral(GROWTH_RATE)

#: fl(4/pi) - 4/pi, the error of TARGET_SPIRAL's growth rate (60-digit mpmath, rounded once).
GROWTH_RATE_ERROR = 7.871470670072994e-17


class SpiralFrame(NamedTuple):
    """The rigid map w = K*(z - z0), |K| = 1, from centres to spiral coordinates.

    FRAMES[family] holds each family's pair, computed in mpmath and rounded
    to float64 once; tests/test_constants.py recomputes both.  Both fits
    return their estimate of the same map as a SpiralFrame.  With
    A = APPROXIMANT_SCALE and s = |A|, K_f = A*exp(-i*phi_f)/s^(1+i*pi/4)
    and z_f = lim (c_n - exp(i*phi_f)*approximant(n)/A).

    The rotation phi_f is closed form.  The step leaving the s-gon has
    length 2*apothem ~ s/pi and points at pi*O_s, where O_s, the sum of 1/j
    over odd j <= s, is (ln s + gamma + ln 2)/2 + O(1/s).  Since
    pi*(2 + i*pi/2) = A, the steps up to t sum to
    exp(i*(pi/2)*(gamma + ln 2)) * t^(2+i*pi/2) / A at leading order, and
    the all-polygon approximant leads with t^(2+i*pi/2):
    phi_all = (pi/2)*(gamma + ln 2) = 1.99548129134760281...  The odd
    chain's step into index k has length ~2k/pi and direction
    pi*O_(2k+1) ~ (pi/2)*(ln k + gamma + 2 ln 2), so its centres lead with
    2*exp(i*(pi/2)*(gamma + 2 ln 2)) * k^(2+i*pi/2) / A against the
    approximant's 2^(1+i*pi/4) * k^(2+i*pi/2):
    phi_odd = phi_all + (pi/4)*ln 2 = 2.53987781392350335...

    The translation z_f is the constant of a least-squares fit of
    c_n - exp(i*phi_f)*approximant(n)/A, from 30-digit centre sums, by a
    constant plus (u_k + v_k*(-1)^n) * t^(i*pi/2) * t^-k for k = 0..4.
    """

    K: complex
    z0: complex

    def to_spiral(self, z):
        return self.K * (np.asarray(z) - self.z0)

    def from_spiral(self, w):
        return self.z0 + np.asarray(w) / self.K


FRAMES = MappingProxyType(
    {
        Family.ALL_POLYGONS: SpiralFrame(
            complex(-0.9838909594867786, -0.1787696278459685), complex(0.4852604710267471, 0.4622830407098814)
        ),
        Family.ODD_POLYGONS: SpiralFrame(
            complex(-0.9342448093979074, 0.3566323542712686), complex(0.39058750006264437, 0.24509658861573247)
        ),
    }
)


class FitError(RuntimeError):
    """No consistent rigid motion found."""


@dataclass(frozen=True, eq=False)
class DistanceTable:
    """Columnar distance measurements: index, signed distance, nearest angle.

    The distance is positive on the spiral's inner side.  Each column is a
    numpy array with one entry per index; ``n`` is strictly increasing and
    parity is ``n % 2``.  ``extrapolated`` holds the Richardson value per
    index, NaN where there is none (all NaN by default).
    """

    n: np.ndarray
    distance: np.ndarray
    theta: np.ndarray
    extrapolated: np.ndarray | None = None

    def __post_init__(self):
        if np.any(np.diff(self.n) <= 0):
            raise ValueError("n must be strictly increasing")
        if self.extrapolated is None:
            object.__setattr__(self, "extrapolated", np.full(len(self.n), np.nan))

    def select(self, mask: np.ndarray) -> "DistanceTable":
        """The rows where the boolean mask is true."""
        return DistanceTable(self.n[mask], self.distance[mask], self.theta[mask], self.extrapolated[mask])


@dataclass
class FitDiagnostics:
    """How a motion fit ended.

    residual_slope is the slope of log|residual| against log n over the
    window, how fast the final residuals decay; evaluations counts the
    objective evaluations, 0 for a fit without an objective.
    """

    residual_max: float
    residual_slope: float
    per_parity_mean: dict[Parity, float]
    objective: float | None = None
    evaluations: int = 0


def _residual_slope(ns: np.ndarray, residuals: np.ndarray) -> float:
    return float(np.polyfit(np.log(ns), np.log(np.abs(residuals) + 1e-300), 1)[0])


def fit_motion_to_approximant(seq: CenterSequence, window: tuple[int, int]) -> tuple[SpiralFrame, FitDiagnostics]:
    """Estimate the frame aligning scaled centres with the family's centre approximant.

    Fits APPROXIMANT_SCALE*centre ~ exp(i*phi)*approximant + c.  The
    rotation phi starts from the circular mean of the step-direction ratios
    between the two sequences.  Two least-squares passes on unit-norm
    columns each step phi and solve for c outright; they fit the decaying
    twist terms (u + v*(-1)^n) * t^(i*pi/2)/t, t = n - 1/2, too, so that
    these contaminate neither.  Residuals must shrink across the window,
    otherwise the parity handling or indexing is off and FitError is raised.
    The result is SpiralFrame(APPROXIMANT_SCALE*exp(-i*phi)/NORMALIZATION, c/APPROXIMANT_SCALE).
    """
    ns, centers = np.arange(window[0], window[1] + 1), seq.slice(*window)
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
    t = ns - 0.5
    tail = np.exp(0.5j * math.pi * np.log(t)) / t
    # the real and imaginary parts of each complex unknown: the translation, the parity tail, the tail
    unknowns = (np.ones_like(a), np.where(ns % 2 == 0, 1.0, -1.0) * tail, tail)
    fixed = np.column_stack([u for col in unknowns for u in (col, 1j * col)])
    for _ in range(2):
        rotated = np.exp(1j * phi) * b
        cols = np.column_stack([1j * rotated, fixed])
        design = np.concatenate([cols.real, cols.imag])
        eps = a - rotated
        # unscaled, the tail columns are up to 1e14 times shorter than the rotation's and lstsq's rcond drops them
        norms = np.linalg.norm(design, axis=0)
        coef = np.linalg.lstsq(design / norms, np.concatenate([eps.real, eps.imag]), rcond=None)[0] / norms
        phi, c = phi + float(coef[0]), complex(coef[1], coef[2])
    residuals = np.abs(a - (np.exp(1j * phi) * b + c))

    third = len(ns) // 3
    if np.max(residuals) > 1e-9 * np.max(np.abs(a)) and np.max(residuals[-third:]) >= np.max(residuals[:third]):
        raise FitError(
            f"residual spread grows across window {window}: "
            f"{np.max(residuals[:third]):.3e} -> {np.max(residuals[-third:]):.3e}"
        )

    frame = SpiralFrame(APPROXIMANT_SCALE * cmath.exp(-1j * phi) / NORMALIZATION, c / APPROXIMANT_SCALE)
    table = distance_table(seq, frame, window[1], n_min=window[0])
    diag = FitDiagnostics(float(residuals.max()), _residual_slope(ns, residuals), parity_means(table.n, table.distance))
    return frame, diag


#: Largest summed within-parity variance fit_motion_to_spiral accepts.
MAX_POLISH_OBJECTIVE = 1e-4

#: Gauss-Newton steps of fit_motion_to_spiral; from the approximant fit two already reach float64 noise.
_GAUSS_NEWTON_STEPS = 4


def _parity_centred(x: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Each row of x minus the mean of the rows of its parity, divided by the root of their count."""
    out = np.empty_like(x)
    for sel in (odd, ~odd):
        out[sel] = (x[sel] - x[sel].mean(axis=0)) / math.sqrt(np.count_nonzero(sel))
    return out


def fit_motion_to_spiral(
    seq: CenterSequence, window: tuple[int, int], init: SpiralFrame
) -> tuple[SpiralFrame, FitDiagnostics]:
    """Polish a frame until nearest distances to TARGET_SPIRAL are parity-constant.

    Runs _GAUSS_NEWTON_STEPS Gauss-Newton steps on the frame from init (in
    practice the approximant fit), each updating K <- K*exp(i*alpha) and
    z0 <- z0 + delta, and raises FitError if the objective, the summed
    within-parity variance of the window's distance_table distances, ends
    above MAX_POLISH_OBJECTIVE.  A distance moves by Re(conj(nu)*dw) when
    its mapped centre w = K*(z - z0) moves by dw, where
    nu = (i*beta - 1)*exp(i*theta)/sqrt(1 + beta^2) is the inner unit
    normal at the nearest angle theta; dw/dalpha = i*w,
    dw/dRe delta = -K and dw/dIm delta = -i*K.  Residuals and Jacobian
    columns, each minus its parity mean, are weighted by 1/sqrt(rows of that
    parity), so the squared residuals sum to the objective.  Used as an
    independent cross-check of the approximant fit; evaluations counts the
    distance_table calls.
    """
    lo, hi = window
    if hi - lo + 1 < 16:
        raise ValueError("window length must be >= 16")
    centers = seq.slice(lo, hi)
    odd = np.arange(lo, hi + 1) % 2 == 1
    frame = init
    for _ in range(_GAUSS_NEWTON_STEPS):
        table = distance_table(seq, frame, hi, n_min=lo)
        w = frame.to_spiral(centers)
        normal = (1j * GROWTH_RATE - 1.0) * np.exp(1j * table.theta) / math.sqrt(1.0 + GROWTH_RATE**2)
        slopes = [(np.conj(normal) * dw).real for dw in (1j * w, -frame.K, -1j * frame.K)]
        centred = _parity_centred(np.column_stack([table.distance, *slopes]), odd)
        step = np.linalg.lstsq(centred[:, 1:], -centred[:, 0], rcond=None)[0].tolist()
        frame = SpiralFrame(frame.K * cmath.exp(1j * step[0]), frame.z0 + complex(step[1], step[2]))

    table = distance_table(seq, frame, hi, n_min=lo)
    residuals = _parity_centred(table.distance, odd)
    objective = float(residuals @ residuals)
    if objective > MAX_POLISH_OBJECTIVE:
        raise FitError(f"no consistent motion: best objective {objective:.3e} > {MAX_POLISH_OBJECTIVE:.3e}")
    residual_max = float(np.abs(table.distance).max())
    slope, means = _residual_slope(table.n, residuals), parity_means(table.n, table.distance)
    return frame, FitDiagnostics(residual_max, slope, means, objective, _GAUSS_NEWTON_STEPS + 1)


def distance_table(seq: CenterSequence, frame: SpiralFrame, n_max: int, n_min: int | None = None) -> DistanceTable:
    """Per-index signed nearest distances to TARGET_SPIRAL of the centres in the frame's coordinates.

    TARGET_SPIRAL grows at fl(4/pi) = 4/pi + GROWTH_RATE_ERROR, which puts
    it outside the true spiral by GROWTH_RATE_ERROR*theta*r(theta); that
    radial offset, projected on the normal, is subtracted from each signed
    distance (positive inside), on either side.  The nearest points are
    solved by one nearest_distances call.
    """
    if n_min is None:
        n_min = seq.first_index
    if not seq.first_index <= n_min <= n_max <= seq.last_index:
        raise ValueError(f"[{n_min}, {n_max}] outside sequence range [{seq.first_index}, {seq.last_index}]")
    d, theta = nearest_distances(TARGET_SPIRAL, frame.to_spiral(seq.slice(n_min, n_max)))
    d -= GROWTH_RATE_ERROR * theta * TARGET_SPIRAL.radius(theta) / math.sqrt(1.0 + GROWTH_RATE**2)
    return DistanceTable(np.arange(n_min, n_max + 1), d, theta)


def parity_means(n: np.ndarray, values: np.ndarray) -> dict[Parity, float]:
    """Mean of values per parity of n, NaN entries skipped; a parity with no value is left out."""
    means = {}
    for parity in Parity:
        sel = values[~np.isnan(values) & (n % 2 == (parity is Parity.ODD))]
        if len(sel):
            means[parity] = float(np.mean(sel))
    return means


def richardson_extrapolate(table: DistanceTable) -> DistanceTable:
    """Eliminate the 1/n^2 tail by pairing each index n with the same-parity index nearest 2n.

    With the exact motion the distances approach their limits as
    L + kappa/n^2 per parity.  The partner m is 2n for even n; for odd n it
    is 2n + 1, or 2n - 1 where 2n + 1 is missing, and never n itself.  The
    exact two-point elimination is (m^2*d(m) - n^2*d(n)) / (m^2 - n^2).
    Indices without a partner get NaN.
    """
    n, d = table.n, table.distance
    extrapolated = np.full(len(n), np.nan)
    unpaired = np.ones(len(n), dtype=bool)
    for m in (2 * n + n % 2, 2 * n - n % 2):
        j = np.minimum(np.searchsorted(n, m), len(n) - 1)
        hit = unpaired & (n[j] == m) & (m != n)
        m2, n2 = m[hit].astype(float) ** 2, n[hit].astype(float) ** 2
        extrapolated[hit] = (m2 * d[j[hit]] - n2 * d[hit]) / (m2 - n2)
        unpaired &= ~hit
    return replace(table, extrapolated=extrapolated)


def inner_side_fraction(table: DistanceTable) -> float:
    """Fraction of mapped points on the spiral's inner side: those with a positive signed distance."""
    if not table.n.size:
        raise ValueError("no records")
    return np.count_nonzero(table.distance > 0.0) / table.n.size
