"""Invariant sweeps exposed through the CLI `verify` subcommand.

Each suite runs one family of checks and reports the margin left under its
bound; a nonpositive margin is a failure.  Every bound is a fixed literal
next to the check that uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics as asym
from .geometry import Family, centers, compensated_cumsum
from .metrics import FRAMES, NORMALIZATION, NORMALIZATION_MODULUS
from .spiral import offset_distance_profile

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str


def _check(name: str, worst: float, bound: float, detail: str) -> CheckResult:
    """Passes when worst <= bound, with margin bound - worst."""
    return CheckResult(name, worst <= bound, bound - worst, detail)


def suite_harmonic() -> list[CheckResult]:
    """Strict two-sided bounds on the harmonic-sum expansion residual, n <= 10^4."""
    n = np.arange(1, 10_001)
    partial = compensated_cumsum(1.0 / n)
    residual = partial - asym.EULER_GAMMA - np.log(n + 0.5)
    lower, upper = asym.detemple_bounds(n)
    slack = float(min((residual - lower).min(), (upper - residual).min()))
    return [_check("harmonic-two-sided-bounds", -slack, 0.0, f"n <= 10000, min slack {slack:.3e}")]


def suite_alt_harmonic() -> list[CheckResult]:
    """n^3-scaled residual of the alternating-sum expansion stays bounded for 10 <= n <= 10^4."""
    n = np.arange(1, 10_001)
    partial = compensated_cumsum(np.where(n % 2 == 1, 1.0, -1.0) / n)
    scaled = np.abs(partial - asym.alt_harmonic_expansion(n)) * n.astype(float) ** 3
    worst = float(scaled[n >= 10].max())
    detail = f"max n^3 residual {worst:.3e} over n in [10, 10000], bound 2.0"
    return [_check("alt-harmonic-cubed-residual", worst, 2.0, detail)]


def _power_callables(p: int):
    q = p + asym.LOG_TWIST

    def f(t):
        return np.exp(q * np.log(np.asarray(t, dtype=float) + 0.5))

    def df(t):
        return q * np.exp((q - 1) * np.log(np.asarray(t, dtype=float) + 0.5))

    def d3f(t):
        return q * (q - 1) * (q - 2) * np.exp((q - 3) * np.log(np.asarray(t, dtype=float) + 0.5))

    return f, df, d3f


def suite_euler_maclaurin() -> list[CheckResult]:
    """Polynomial exactness and cross-order agreement of the correction."""
    results = []

    worst = 0.0
    for coeffs in [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (1.0, -2.0, 3.0, 0.5), (0.25, 1.0, -1.5, 2.0)]:
        c0, c1, c2, c3 = coeffs
        f = lambda t: c0 + c1 * np.asarray(t, float) + c2 * np.asarray(t, float) ** 2 + c3 * np.asarray(t, float) ** 3
        df = lambda t: c1 + 2 * c2 * np.asarray(t, float) + 3 * c3 * np.asarray(t, float) ** 2
        d3f = lambda t: 6 * c3 * np.ones_like(np.asarray(t, float))
        m, n = 0, 7
        direct = sum(f(float(i)) for i in range(m, n + 1)) - _poly_integral(coeffs, m, n)
        value = asym.em_sum_minus_integral(f, df, m, n, d3f)
        worst = max(worst, abs(value - direct))
    results.append(_check("em-cubic-exactness", worst, 1e-12, f"max error {worst:.3e}"))

    worst = 0.0
    for p in (-1, 0, 1):
        f, df, d3f = _power_callables(p)
        one = asym.em_sum_minus_integral(f, df, 2, 1000)
        three = asym.em_sum_minus_integral(f, df, 2, 1000, d3f)
        worst = max(worst, abs(one - three))
    results.append(_check("em-order-agreement", worst, 1e-10, f"max order gap {worst:.3e}"))
    return results


def _poly_integral(coeffs, m: float, n: float) -> float:
    total = 0.0
    for k, c in enumerate(coeffs):
        total += c * (n ** (k + 1) - m ** (k + 1)) / (k + 1)
    return total


def suite_power_sums() -> list[CheckResult]:
    """Closed forms track the direct sums up to a constant, at rate 1/n for 50 <= n <= 5000."""
    results = []

    ns = np.arange(50, 5001)
    for p in (1, -1):
        prefix = asym.power_sum_prefix(p, 10_001)
        diff = (prefix[2 * ns - 3] - asym.power_sum_closed(p, 2 * ns)) - (
            prefix[ns - 3] - asym.power_sum_closed(p, ns)
        )
        fitted = float((ns * np.abs(diff)).max())
        detail = f"fitted C {fitted:.3e} over n in [50, 5000], bound 10.0"
        results.append(_check(f"pair-difference-rate-p{p:+d}", fitted, 10.0, detail))

    prefix0 = asym.power_sum_prefix(0, 10_001)
    worst = float(np.abs(prefix0).max())
    detail = f"max |sum| {worst:.3e} for n <= 10^4, bound 2.0"
    results.append(_check("alternating-sum-bounded", worst, 2.0, detail))

    mods = np.abs(asym.power_sum_closed(0, np.arange(3, 2000)))
    worst = float(np.abs(mods - 0.5).max())
    results.append(_check("alternating-closed-modulus", worst, 1e-15, f"max | |closed| - 1/2 | = {worst:.3e}"))
    return results


#: The balanced member b = 1/2 (zero gap) at a = 0 and 1/4, and every approximant constant.
GAP_CASES = ((0.0, 0.5), (0.25, 0.5)) + tuple(
    sorted({(0.25, float(b)) for approx in asym.APPROXIMANTS.values() for b in (approx.b_even, approx.b_odd)})
)

#: Relative agreement required of limit_distance and its gap_limit derivation.
LIMIT_DISTANCE_RTOL = 1e-14


def suite_gap_limit() -> list[CheckResult]:
    """Radial gaps of the asymptotic family reach their limits at rate 1/t."""
    results = []

    a, b = (np.array(column) for column in zip(*GAP_CASES))
    z = asym.asymptotic_form(1e4, a, b)
    worst = float(np.abs(asym.spiral_gap(z, 0.5 * math.pi * math.log(1e4)) - asym.gap_limit(b)).max())
    results.append(_check("gap-limit-at-1e4", worst, 1e-2, f"max |gap - limit| {worst:.3e}"))

    ts = np.geomspace(1e2, 1e5, 61)
    z = asym.asymptotic_form(ts, a[:, None], b[:, None])
    res = ts * (asym.spiral_gap(z, 0.5 * math.pi * np.log(ts)) - asym.gap_limit(b[:, None]))
    worst = float(np.abs(res).max())
    results.append(_check("gap-rate-bounded", worst, 10.0, f"max t*residual {worst:.3e}"))

    z = asym.asymptotic_form(1e4, np.array([0.0, 0.25, 1.0]), b[:, None])
    gaps = asym.spiral_gap(z, 0.5 * math.pi * math.log(1e4))
    spread = float((gaps.max(axis=1) - gaps.min(axis=1)).max())
    results.append(_check("gap-a-independence", spread, 1e-3, f"max spread over a {spread:.3e}"))

    worst = 0.0
    for family, approx in asym.APPROXIMANTS.items():
        for parity, b in ((asym.Parity.EVEN, approx.b_even), (asym.Parity.ODD, approx.b_odd)):
            derived = float(approx.scale) * abs(asym.gap_limit(float(b))) / (
                NORMALIZATION_MODULUS * math.sqrt(1.0 + asym.GROWTH_RATE**2)
            )
            limit = asym.limit_distance(family, parity)
            worst = max(worst, abs(derived - limit) / limit)
    detail = f"max relative |scale*|gap_limit|/(s*sqrt(1+beta^2)) - limit_distance| {worst:.3e}"
    results.append(_check("limit-distance-from-gap", worst, LIMIT_DISTANCE_RTOL, detail))
    return results


def suite_approximant() -> list[CheckResult]:
    """In each family's fixed frame, centre residuals from the approximant decay like 1/n (approximant units)."""
    ns = np.arange(500, 1001)
    results = []
    for family in Family:
        w = FRAMES[family].to_spiral(centers(family, 1000)[-len(ns) :])
        residual = np.abs(w * NORMALIZATION - asym.approximant(ns, family))
        worst = float((ns * residual).max())
        detail = f"max n*residual {worst:.3e} on window (500, 1000), bound 50.0"
        results.append(_check(f"approximant-residual-rate-{family.value}", worst, 50.0, detail))
    return results


OFFSET_CASES = ((4.0 / math.pi, 1.0, 5.0), (4.0 / math.pi, 5.0, 25.0), (1.0, 1.0, 5.0))


def suite_offset_distance() -> list[CheckResult]:
    """Offset-curve distances match c/sqrt(1+beta^2) at rate 1/r."""
    results = []
    rs = np.geomspace(1e2, 1e4, 25)
    for beta, c, bound in OFFSET_CASES:
        d, predicted = offset_distance_profile(beta, c, rs)
        worst = float((np.abs(d - predicted) * rs).max())
        detail = f"max r*|d - pred| {worst:.3e}, bound {bound:g}"
        results.append(_check(f"offset-rate-beta{beta:.3f}-c{c:g}", worst, bound, detail))
    return results


SUITES = {
    "harmonic": suite_harmonic,
    "alt-harmonic": suite_alt_harmonic,
    "euler-maclaurin": suite_euler_maclaurin,
    "power-sums": suite_power_sums,
    "gap-limit": suite_gap_limit,
    "approximant": suite_approximant,
    "offset-distance": suite_offset_distance,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
