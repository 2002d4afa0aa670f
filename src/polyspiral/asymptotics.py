"""Expansion machinery behind the centre sequence's spiral limit.

Harmonic-sum expansions, Euler-Maclaurin corrections at orders 1 and 3,
the three complex power sums with their closed asymptotic forms, the
two-parameter asymptotic family the centres of both chains follow (one
approximant table, APPROXIMANTS), the radial gap between a point and the
spiral r = exp(4*theta/pi), and the limiting distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .geometry import Family

EULER_GAMMA = 0.5772156649015329

GROWTH_RATE = 4.0 / math.pi  # beta of every spiral in this package

#: i*pi/2, the shared imaginary exponent of the power sums.
LOG_TWIST = 0.5j * math.pi

#: 1 + i*pi/4, the coefficient tying the three leading terms together.
UNIT_COEFF = 1.0 + 0.25j * math.pi

class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class BernoulliPoly:
    """Bernoulli polynomial with exact rational coefficients (ascending)."""

    degree: int
    coefficients: tuple[Fraction, ...]

    def __call__(self, x):
        result = 0.0
        for c in reversed(self.coefficients):
            result = result * x + float(c)
        return result


B1 = BernoulliPoly(1, (Fraction(-1, 2), Fraction(1)))
B3 = BernoulliPoly(3, (Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(1)))


class Approximant(NamedTuple):
    """Centre approximant of one family: scale^(1+i*pi/4) * asymptotic_form(n - shift, 1/4, b).

    b is b_even for even n and b_odd for odd n.  The factor
    scale^(1+i*pi/4) = scale * exp(i*(pi/4)*log(scale)) maps the spiral
    r = exp(4*theta/pi) onto itself, so it scales every distance by scale.
    """

    scale: Fraction
    shift: Fraction
    b_even: Fraction
    b_odd: Fraction


#: One approximant per family; the constant term is 1/4 + b*(pi/4)*i throughout.
APPROXIMANTS = MappingProxyType(
    {
        Family.ALL_POLYGONS: Approximant(Fraction(1), Fraction(1, 2), Fraction(43, 6), Fraction(31, 6)),
        Family.ODD_POLYGONS: Approximant(Fraction(2), Fraction(0), Fraction(5, 3), Fraction(5, 3)),
    }
)


def _positive_index(n) -> np.ndarray:
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("n must be >= 1")
    return n


def detemple_bounds(n):
    """Strict two-sided bounds (lower, upper) on H_n - gamma - log(n + 1/2), for an index or index array n."""
    t = _positive_index(n).astype(float)
    return 1.0 / (24.0 * (t + 1.0) ** 2), 1.0 / (24.0 * t**2)


def alt_harmonic_expansion(n):
    """Expansion of the alternating partial sum: log 2 -(-1)^n/(2n) + (-1)^n/(4n^2), for an index or index array n."""
    n = _positive_index(n)
    sign = np.where(n % 2 == 1, -1.0, 1.0)
    t = n.astype(float)
    return math.log(2.0) - sign / (2.0 * t) + sign / (4.0 * t * t)


class EmOrder(Enum):
    ONE = 1
    THREE = 3


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _periodized_integral(g: Callable[[np.ndarray], np.ndarray], bern: BernoulliPoly, m: int, n: int) -> complex:
    """Integral of g(t) * B({t}) over [m, n], Gauss-Legendre per unit interval."""
    starts = np.arange(m, n, dtype=float)
    frac = 0.5 * (_GL_NODES + 1.0)  # nodes mapped to [0, 1)
    t = starts[:, None] + frac[None, :]
    values = np.asarray(g(t)) * bern(frac)[None, :]
    return complex(0.5 * np.sum(values * _GL_WEIGHTS[None, :]))


def em_sum_minus_integral(
    f: Callable[[np.ndarray], np.ndarray],
    m: int,
    n: int,
    order: EmOrder = EmOrder.THREE,
    df: Callable[[np.ndarray], np.ndarray] | None = None,
    d3f: Callable[[np.ndarray], np.ndarray] | None = None,
) -> complex:
    """Euler-Maclaurin value of sum_{i=m}^{n} f(i) - integral_m^n f.

    Order ONE uses the endpoint average plus the B_1-weighted integral of
    f'; order THREE adds (f'(n) - f'(m))/12 and the B_3-weighted integral
    of f'''/6.  Callables must accept numpy arrays.
    """
    if m >= n:
        raise ValueError("m must be < n")
    if df is None:
        raise ValueError("df is required")
    endpoint = 0.5 * (complex(f(float(m))) + complex(f(float(n))))
    if order is EmOrder.ONE:
        return endpoint + _periodized_integral(df, B1, m, n)
    if d3f is None:
        raise ValueError("d3f is required at order THREE")
    gradient = (complex(df(float(n))) - complex(df(float(m)))) / 12.0
    return endpoint + gradient + _periodized_integral(d3f, B3, m, n) / 6.0


def _validate_power_sum_args(p: int, n: int, alternating: bool) -> None:
    if p not in (-1, 0, 1):
        raise ValueError("p must be in {-1, 0, 1}")
    if n < 3:
        raise ValueError("n must be >= 3")
    if alternating and p != 0:
        raise ValueError("alternating sums only exist for p = 0")


def power_sum_prefix(p: int, n_max: int, alternating: bool = False) -> np.ndarray:
    """sum_{k=2}^{n-1} (+-1)^k (k + 1/2)^(p + i*pi/2) for every n = 3..n_max."""
    _validate_power_sum_args(p, n_max, alternating)
    k = np.arange(2, n_max, dtype=float)
    terms = np.exp((p + LOG_TWIST) * np.log(k + 0.5))
    if alternating:
        terms = terms * np.where(np.arange(2, n_max) % 2 == 0, 1.0, -1.0)
    return np.cumsum(terms)


def power_sum_closed(p: int, n, alternating: bool = False):
    """Closed asymptotic form of the power sum (valid up to an additive constant).

    p = 1: three descending powers of (n - 1/2); p = -1: the single
    inverse-twist term; p = 0 (alternating only): the parity-flipping
    half-magnitude term.  Accepts scalar or array n.
    """
    if p == 0 and not alternating:
        raise ValueError("no closed form for the non-alternating p = 0 sum")
    if np.ndim(n) == 0:
        _validate_power_sum_args(p, int(n), alternating)
    t = np.asarray(n, dtype=float) - 0.5
    tw = np.exp(LOG_TWIST * np.log(t))
    if p == 1:
        value = t**2 * tw / (2.0 + LOG_TWIST) + 0.5 * t * tw + (1.0 + LOG_TWIST) / 12.0 * tw
    elif p == -1:
        value = tw / LOG_TWIST
    else:
        sign = np.where(np.asarray(n) % 2 == 0, 1.0, -1.0)
        value = -0.5 * sign * tw
    return complex(value) if np.ndim(n) == 0 else value


def asymptotic_form(t: float, a: float, b: float) -> complex:
    """The two-parameter family t^(2+ipi/2) + (1+ipi/4)(t^(1+ipi/2) + (a+b*ipi/4) t^(ipi/2)).

    Defined for t > 0 via the real logarithm; the centre approximants are
    a = 1/4 members of it (see APPROXIMANTS).
    """
    if np.any(np.asarray(t) <= 0.0):
        raise ValueError("t must be > 0")
    t = np.asarray(t, dtype=float)
    logt = np.log(t)
    tw = np.exp(LOG_TWIST * logt)
    value = t**2 * tw + UNIT_COEFF * (t * tw + (a + 0.25j * math.pi * b) * tw)
    return complex(value) if value.ndim == 0 else value


def approximant(n, family: Family):
    """Centre approximant of the family at index (or index array) n; see Approximant.

    For the all-polygon family this is the asymptotic family at t = n - 1/2
    with b = 43/6 (even n) or 31/6 (odd n); for the odd-polygon family it is
    2^(1+i*pi/4) times the member b = 5/3 at t = n.
    """
    scale, shift, b_even, b_odd = APPROXIMANTS[family]
    n = np.asarray(n)
    b = np.where(n % 2 == 0, float(b_even), float(b_odd))
    return float(scale) ** (1.0 + 0.25j * math.pi) * asymptotic_form(n - float(shift), 0.25, b)


def limit_distance(family: Family, parity: Parity) -> float:
    """Limiting centre-to-spiral distance: scale * (b - 1/2) / 8.

    That is scale * |gap_limit(b)| over the normalization modulus
    2*pi*sqrt(1 + pi^2/16), times 1/sqrt(1 + GROWTH_RATE^2) to turn the
    radial gap into a normal distance.  It gives 5/6, 7/12 and 7/24.
    """
    scale, _, b_even, b_odd = APPROXIMANTS[family]
    b = b_even if parity is Parity.EVEN else b_odd
    return float(scale * (b - Fraction(1, 2)) / 8)


def spiral_gap(z, theta_hint):
    """Radial gap |z| - exp(4*theta/pi), with theta the argument of z unwrapped to the branch nearest theta_hint.

    Takes scalars or arrays that broadcast together.  Callers tracking the
    asymptotic family pass theta_hint = (pi/2) log t, the continuous branch
    the family's argument follows.
    """
    z = np.asarray(z)
    if np.any(z == 0):
        raise ValueError("z must be nonzero")
    principal = np.angle(z)
    theta = principal + 2.0 * math.pi * np.round((theta_hint - principal) / (2.0 * math.pi))
    return np.abs(z) - np.exp(GROWTH_RATE * theta)


def gap_limit(b: float) -> float:
    """Limiting radial gap of the asymptotic family: (1/2 - b)(1 + pi^2/16)."""
    return (0.5 - b) * (1.0 + math.pi**2 / 16.0)
