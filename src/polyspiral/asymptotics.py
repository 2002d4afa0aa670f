"""Expansion machinery behind the centre sequence's spiral limit.

Harmonic-sum expansions, Euler-Maclaurin corrections (order 1 from f',
order 3 when f''' is given too), the three complex power sums with their
closed asymptotic forms (p = 0 is the alternating sum), the two-parameter
asymptotic family the centres of both chains follow (one approximant
table, APPROXIMANTS), the radial gap between a point and the spiral
r = exp(4*theta/pi), and the limiting distances.
"""

from __future__ import annotations

import math
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


def _index(n, first: int = 1) -> np.ndarray:
    n = np.asarray(n)
    if np.any(n < first):
        raise ValueError(f"n must be >= {first}")
    return n


def detemple_bounds(n):
    """Strict two-sided bounds (lower, upper) on H_n - gamma - log(n + 1/2), for an index or index array n."""
    t = _index(n).astype(float)
    return 1.0 / (24.0 * (t + 1.0) ** 2), 1.0 / (24.0 * t**2)


def alt_harmonic_expansion(n):
    """Expansion of the alternating partial sum: log 2 -(-1)^n/(2n) + (-1)^n/(4n^2), for an index or index array n."""
    n = _index(n)
    sign = np.where(n % 2 == 1, -1.0, 1.0)
    t = n.astype(float)
    return math.log(2.0) - sign / (2.0 * t) + sign / (4.0 * t * t)


def _periodized_integral(
    g: Callable[[np.ndarray], np.ndarray], bern: Callable[[np.ndarray], np.ndarray], m: int, n: int
) -> complex:
    """Integral of g(t) * B({t}) over [m, n], Gauss-Legendre per unit interval."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    starts = np.arange(m, n, dtype=float)
    frac = 0.5 * (nodes + 1.0)  # nodes mapped to [0, 1)
    t = starts[:, None] + frac[None, :]
    values = np.asarray(g(t)) * bern(frac)[None, :]
    return complex(0.5 * np.sum(values * weights[None, :]))


def em_sum_minus_integral(
    f: Callable[[np.ndarray], np.ndarray],
    df: Callable[[np.ndarray], np.ndarray],
    m: int,
    n: int,
    d3f: Callable[[np.ndarray], np.ndarray] | None = None,
) -> complex:
    """Euler-Maclaurin value of sum_{i=m}^{n} f(i) - integral_m^n f.

    Without d3f this is order 1: the endpoint average plus the B_1-weighted
    integral of f'.  With d3f it is order 3: the endpoint average plus
    (f'(n) - f'(m))/12 and the B_3-weighted integral of f'''/6.  Callables
    must accept numpy arrays.
    """
    if m >= n:
        raise ValueError("m must be < n")
    endpoint = 0.5 * (complex(f(float(m))) + complex(f(float(n))))
    if d3f is None:
        return endpoint + _periodized_integral(df, lambda x: x - 0.5, m, n)  # B_1
    gradient = (complex(df(float(n))) - complex(df(float(m)))) / 12.0
    return endpoint + gradient + _periodized_integral(d3f, lambda x: ((x - 1.5) * x + 0.5) * x, m, n) / 6.0  # B_3


def power_sum_prefix(p: int, n_max: int) -> np.ndarray:
    """sum_{k=2}^{n-1} (k + 1/2)^(p + i*pi/2) for every n = 3..n_max; at p = 0 term k carries the sign (-1)^k."""
    if p not in (-1, 0, 1):
        raise ValueError("p must be in {-1, 0, 1}")
    k = np.arange(2, _index(n_max, 3))
    terms = np.exp((p + LOG_TWIST) * np.log(k + 0.5))
    if p == 0:
        terms = terms * np.where(k % 2 == 0, 1.0, -1.0)
    return np.cumsum(terms)


def power_sum_closed(p: int, n) -> np.ndarray:
    """Closed asymptotic form of power_sum_prefix (up to an additive constant), for an index or index array n >= 3.

    p = 1: three descending powers of (n - 1/2); p = -1: the single
    inverse-twist term; p = 0 (the alternating sum): the parity-flipping
    half-magnitude term.
    """
    n = _index(n, 3)
    t = np.atleast_1d(n - 0.5)  # a scalar n takes the array path too, and is reshaped back below
    tw = np.exp(LOG_TWIST * np.log(t))
    if p == 1:
        value = t**2 * tw / (2.0 + LOG_TWIST) + 0.5 * t * tw + (1.0 + LOG_TWIST) / 12.0 * tw
    elif p == -1:
        value = tw / LOG_TWIST
    elif p == 0:
        value = -0.5 * np.where(n % 2 == 0, 1.0, -1.0) * tw
    else:
        raise ValueError("p must be in {-1, 0, 1}")
    return value.reshape(n.shape)


def asymptotic_form(t, a, b) -> np.ndarray:
    """The two-parameter family t^(2+ipi/2) + (1+ipi/4)(t^(1+ipi/2) + (a+b*ipi/4) t^(ipi/2)).

    Defined for t > 0 via the real logarithm; the centre approximants are
    a = 1/4 members of it (see APPROXIMANTS).
    """
    shape = np.broadcast_shapes(np.shape(t), np.shape(a), np.shape(b))
    t = np.atleast_1d(np.asarray(t, dtype=float))  # a scalar t takes the array path too, and is reshaped back below
    if np.any(t <= 0.0):
        raise ValueError("t must be > 0")
    tw = np.exp(LOG_TWIST * np.log(t))
    return (t**2 * tw + UNIT_COEFF * (t * tw + (a + 0.25j * math.pi * b) * tw)).reshape(shape)


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
