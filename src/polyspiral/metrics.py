"""Spiral coordinates of the centres and convergence measurements against the spiral.

The centre sequences approach the spiral r = exp(4*theta/pi), held as its
growth rate GROWTH_RATE alone, after one fixed orientation-preserving
isometry per family, FRAMES[family].  distance_table measures the points
it is given in those coordinates, each output element depending only on
its own centre (SpiralFrame.to_spiral fixes its product's operand order,
as the solver does); Richardson extrapolation and the inner-side
classification work on its column.  Two fit routes estimate the same frame
from a window of centres and serve as cross-checks of the constants: a
direct fit against the family's closed-form centre approximant, and a
linear fit from the growth rate 4/pi alone.  Both return a SpiralFrame and
share no constant, so their agreement is independent.

The spiral route fits c + sum over q < Q of (A_q + B_q*(-1)^n) * t^(2 - q + i*pi/2) in the
side count t less 1/2, Q <= 6 by least estimated error in c, on >= 16 indices: within 4e-8 of
z_f from 100:200 to 5000:10000.  On late or narrow windows both routes lose accuracy, the
spiral route sooner, and neither raises: README's fit-accuracy table gives the z0 errors on
windows ending at 1e4, 1e5 and 1e6 (at 1e6 the spiral route is off by 4e-5 over a factor of 2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .asymptotics import GROWTH_RATE, Parity, UNIT_COEFF, approximant
from .geometry import Family
from .spiral import nearest_distances

#: Complex factor mapping centres into approximant coordinates: 2*pi*(1 + i*pi/4).
APPROXIMANT_SCALE = 2.0 * math.pi * UNIT_COEFF

#: Modulus of APPROXIMANT_SCALE; the normalization divisor s = 2*pi*sqrt(1 + pi^2/16).
NORMALIZATION_MODULUS = abs(APPROXIMANT_SCALE)

#: s^(1 + i*pi/4); dividing approximant coordinates by it gives spiral coordinates.
NORMALIZATION = NORMALIZATION_MODULUS ** (1.0 + 0.25j * math.pi)

#: fl(4/pi) - 4/pi, the error of GROWTH_RATE (60-digit mpmath, rounded once).
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
        return np.multiply(self.K, np.asarray(z) - self.z0)  # K*(z - z0) may run as (z - z0)*K: see spiral

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


@dataclass
class FitDiagnostics:
    """How a motion fit ended.

    residual_max and residual_slope describe the fit's final residuals,
    the slope being that of log|residual| against log n over the window;
    per_parity_mean holds the parity means of the window's distances in
    the fitted frame.  Both fits are linear, so evaluations is always 0;
    it is kept only because perfbench/tracer.py reads it.
    """

    residual_max: float
    residual_slope: float
    per_parity_mean: dict[Parity, float]
    evaluations: int = 0


def _indices(window: tuple[int, int], z: np.ndarray, least: int) -> np.ndarray:
    """The window's indices lo..hi; ValueError unless there are at least least of them and z holds one centre each."""
    ns = np.arange(window[0], window[1] + 1)
    if len(ns) < least:
        raise ValueError(f"window length must be >= {least}")
    if np.shape(z) != ns.shape:
        raise ValueError(f"z holds {np.shape(z)} centres for the {len(ns)} indices {window[0]}:{window[1]}")
    return ns


def _diagnosed(
    ns: np.ndarray, z: np.ndarray, frame: SpiralFrame, a: np.ndarray, residuals: np.ndarray
) -> tuple[SpiralFrame, FitDiagnostics]:
    """Both fits' end: check the residuals, then measure the frame on the window's centres z.

    a is what the fit matched at the indices ns and residuals the moduli of
    its misfit.  Residuals above 1e-9*max|a| that grow from the window's
    first third to its last mean that the model does not hold there, and
    raise FitError.  residual_slope is fitted with each residual raised to
    at least the rounding of its a: residuals at that level may round to 0.
    """
    third = len(ns) // 3
    if np.max(residuals) > 1e-9 * np.max(np.abs(a)) and np.max(residuals[-third:]) >= np.max(residuals[:third]):
        raise FitError(
            f"residual spread grows across window {ns[0]}:{ns[-1]}: "
            f"{np.max(residuals[:third]):.3e} -> {np.max(residuals[-third:]):.3e}"
        )
    distances = distance_table(frame, z)
    rounding = np.finfo(float).eps * np.abs(a)
    slope = float(np.polyfit(np.log(ns), np.log(np.maximum(residuals, rounding)), 1)[0])
    return frame, FitDiagnostics(float(residuals.max()), slope, parity_means(ns, distances))


def fit_motion_to_approximant(family: Family, window: tuple[int, int], z) -> tuple[SpiralFrame, FitDiagnostics]:
    """Estimate the frame aligning the centres z, one per index lo..hi of window, with the family's approximant.

    Fits APPROXIMANT_SCALE*centre ~ exp(i*phi)*approximant + c.  The
    rotation phi starts from the circular mean of the step-direction ratios
    between the two sequences.  Two least-squares passes on unit-norm
    columns each step phi and solve for c outright; they fit the decaying
    twist terms (u + v*(-1)^n) * t^(i*pi/2)/t, t = n - 1/2, too, so that
    these contaminate neither.  Residuals must shrink across the window,
    otherwise the parity handling or indexing is off and FitError is raised.
    Index drift raises it too, by one rule on every window: the step ratios
    Delta a_n/Delta b_n have modulus 1 + O(1/n^2) for aligned centres and
    1 + O(1/n) for centres shifted by an index, and the mean of
    n*||ratio| - 1| over the steps may not exceed 0.5 (aligned centres read
    at most 0.148, centres shifted by -1, +1 or +2 indices at least 0.87).
    The result is SpiralFrame(APPROXIMANT_SCALE*exp(-i*phi)/NORMALIZATION, c/APPROXIMANT_SCALE).
    """
    ns = _indices(window, z, 8)
    a = APPROXIMANT_SCALE * z
    b = approximant(ns, family)
    ratios = np.diff(a) / np.diff(b)
    drift = float(np.mean(ns[:-1] * np.abs(np.abs(ratios) - 1.0)))
    if drift > 0.5:
        raise FitError(f"step-magnitude mismatch {drift:.3e} on window {window[0]}:{window[1]}: index drift suspected")
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
    frame = SpiralFrame(APPROXIMANT_SCALE * cmath.exp(-1j * phi) / NORMALIZATION, c / APPROXIMANT_SCALE)
    return _diagnosed(ns, z, frame, a, np.abs(a - (np.exp(1j * phi) * b + c)))


def fit_motion_to_spiral(family: Family, window: tuple[int, int], z) -> tuple[SpiralFrame, FitDiagnostics]:
    """Estimate the frame from the growth rate alone, with no approximant constant.

    Fits the centres z, one per index lo..hi of window, by
    c + sum over q < Q of (A_q + B_q*(-1)^n) * t^(2 - q + 2i/GROWTH_RATE),
    linearly on unit-norm columns, where t is the side count minus 1/2:
    n - 1/2 for the all family and 2n + 1/2 for the odd one.  Rotated by
    K = exp(-i*(arg A_0 - ln|A_0|/GROWTH_RATE)), the leading term lies on
    r = exp(GROWTH_RATE*theta), so the result is SpiralFrame(K, c).

    Q, from 1 to 6, has the least estimated error in c: the larger of c's
    rounding noise (the norm of c's row of the pseudo-inverse times the rms
    misfit) and the next term's move of c beyond that fit's noise.  Too few
    terms leave a truncation; too many, on a narrow or late window, amplify
    the rounding.  The fit at Q = 7 only serves Q = 6's estimate; its 15
    complex unknowns need at least 16 indices.

    t is divided by its last value t_1, which keeps the columns' phases
    accurate and multiplies A_0 by t_1^(2 + 2i/GROWTH_RATE), a self-map of
    the spiral that leaves K unchanged.  A second pass fits the first's
    misfit, since a pass's rounding scales with what it fits.

    The route trusts that z[0] has index lo: the t-series absorbs a shift
    by one index, so shifted centres fit without FitError, but with the
    parity labels of per_parity_mean swapped.
    """
    ns = _indices(window, z, 16)
    sides = family.sides(window[1])[-len(ns) :]
    t, sign = (sides - 0.5) / (sides[-1] - 0.5), np.where(ns % 2 == 0, 1.0, -1.0)
    columns = [t ** (2 - q + 2j / GROWTH_RATE) * s for q in range(7) for s in (1.0, sign)]
    design = np.column_stack([np.ones_like(z), *columns])
    norms = np.linalg.norm(design, axis=0)
    fits = []  # per Q = 1..7: (c, A_0), the misfit's moduli and c's rounding noise
    for cols in (design[:, :width] / norms[:width] for width in range(3, 16, 2)):
        inverse = np.linalg.pinv(cols)
        coef = inverse @ z
        coef += inverse @ (z - cols @ coef)
        misfit = np.abs(z - cols @ coef)
        fits.append((coef[:2] / norms[:2], misfit, np.linalg.norm(inverse[0]) * np.sqrt(np.mean(misfit**2)) / norms[0]))
    errors = [max(f[2], abs(f[0][0] - g[0][0]) - g[2]) for f, g in zip(fits, fits[1:])]
    (c, a0), residuals, _ = fits[int(np.argmin(errors))]
    frame = SpiralFrame(cmath.exp(-1j * (cmath.phase(a0) - math.log(abs(a0)) / GROWTH_RATE)), complex(c))
    return _diagnosed(ns, z, frame, z, residuals)


def distance_table(frame: SpiralFrame, z) -> np.ndarray:
    """Signed nearest distances of the points z, in the frame's coordinates, to r = exp(4*theta/pi).

    The solve runs on r = exp(GROWTH_RATE*theta), fl(4/pi) = 4/pi +
    GROWTH_RATE_ERROR, which lies outside the true spiral by
    GROWTH_RATE_ERROR*theta*r(theta); that radial offset, projected on the
    normal, is subtracted from each signed distance (positive inside), on
    either side.  The nearest points are solved by one nearest_distances call.
    """
    d, theta = nearest_distances(GROWTH_RATE, frame.to_spiral(z))
    d -= GROWTH_RATE_ERROR * theta * np.exp(GROWTH_RATE * theta) / math.sqrt(1.0 + GROWTH_RATE**2)
    return d


def parity_means(n: np.ndarray, values: np.ndarray) -> dict[Parity, float]:
    """Mean of values per parity of n, NaN entries skipped; a parity with no value is left out."""
    means = {}
    for parity in Parity:
        sel = values[~np.isnan(values) & (n % 2 == (parity is Parity.ODD))]
        if len(sel):
            means[parity] = float(np.mean(sel))
    return means


def richardson_extrapolate(n: np.ndarray, distance: np.ndarray) -> np.ndarray:
    """Eliminate the 1/n^2 tail by pairing each index n with the same-parity index nearest 2n.

    With the exact motion the distances approach their limits as
    L + kappa/n^2 per parity.  The partner m is 2n for even n; for odd n it
    is 2n + 1, or 2n - 1 where 2n + 1 is missing, and never n itself.  The
    exact two-point elimination is (m^2*d(m) - n^2*d(n)) / (m^2 - n^2).
    Indices without a partner get NaN.  The partner search needs n
    strictly increasing; ValueError otherwise.
    """
    if np.any(np.diff(n) <= 0):
        raise ValueError("n must be strictly increasing")
    extrapolated = np.full(len(n), np.nan)
    unpaired = np.ones(len(n), dtype=bool)
    for m in (2 * n + n % 2, 2 * n - n % 2):
        j = np.minimum(np.searchsorted(n, m), len(n) - 1)
        hit = unpaired & (n[j] == m) & (m != n)
        m2, n2 = m[hit].astype(float) ** 2, n[hit].astype(float) ** 2
        extrapolated[hit] = (m2 * distance[j[hit]] - n2 * distance[hit]) / (m2 - n2)
        unpaired &= ~hit
    return extrapolated


def inner_side_fraction(distance: np.ndarray) -> float:
    """Fraction of mapped points on the spiral's inner side: those with a positive signed distance."""
    if not distance.size:
        raise ValueError("no records")
    return np.count_nonzero(distance > 0.0) / distance.size
