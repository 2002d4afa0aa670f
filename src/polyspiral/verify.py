"""Invariant sweeps exposed through the CLI `verify` subcommand.

Each suite runs one family of checks and reports the margin left under its
bound; a nonpositive margin is a failure.  Tolerances can be overridden by
name (see DEFAULT_TOLERANCES).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics as asym
from .geometry import CenterSequence, centers_all, compensated_cumsum
from .metrics import APPROXIMANT_SCALE, NORMALIZATION_MODULUS, fit_motion_to_approximant
from .spiral import offset_distance_profile

DEFAULT_TOLERANCES = {
    "alt-harmonic-bound": 2.0,
    "em-exactness": 1e-12,
    "em-order-agreement": 1e-10,
    "pair-difference-bound": 10.0,
    "alternating-sum-bound": 2.0,
    "closed-modulus": 1e-15,
    "gap-tolerance": 1e-2,
    "gap-rate-bound": 10.0,
    "gap-a-independence": 1e-3,
    "approximant-residual-bound": 50.0,
    "offset-rate-bound": 5.0,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str


def _check(name: str, worst: float, bound: float, detail: str) -> CheckResult:
    """Passes when worst <= bound, with margin bound - worst."""
    return CheckResult(name, worst <= bound, bound - worst, detail)


def suite_harmonic(n_max: int = 10_000, tolerances: dict | None = None) -> list[CheckResult]:
    """Strict two-sided bounds on the harmonic-sum expansion residual."""
    n = np.arange(1, n_max + 1)
    partial = compensated_cumsum(1.0 / n)
    residual = partial - asym.EULER_GAMMA - np.log(n + 0.5)
    lower = 1.0 / (24.0 * (n + 1.0) ** 2)
    upper = 1.0 / (24.0 * n.astype(float) ** 2)
    margin = float(min((residual - lower).min(), (upper - residual).min()))
    return [
        CheckResult(
            "harmonic-two-sided-bounds",
            margin > 0.0,
            margin,
            f"n <= {n_max}, min slack {margin:.3e}",
        )
    ]


def suite_alt_harmonic(n_max: int = 10_000, tolerances: dict | None = None) -> list[CheckResult]:
    """n^3-scaled residual of the alternating-sum expansion stays bounded."""
    tol = _tol(tolerances, "alt-harmonic-bound")
    n = np.arange(1, n_max + 1)
    sign = np.where(n % 2 == 1, 1.0, -1.0)
    partial = compensated_cumsum(sign / n)
    expansion = math.log(2.0) + sign / (2.0 * n) - sign / (4.0 * n.astype(float) ** 2)
    scaled = np.abs(partial - expansion) * n.astype(float) ** 3
    worst = float(scaled[n >= 10].max())
    detail = f"max n^3 residual {worst:.3e} over n in [10, {n_max}], bound {tol}"
    return [_check("alt-harmonic-cubed-residual", worst, tol, detail)]


def _power_callables(p: int):
    q = p + asym.LOG_TWIST

    def f(t):
        return np.exp(q * np.log(np.asarray(t, dtype=float) + 0.5))

    def df(t):
        return q * np.exp((q - 1) * np.log(np.asarray(t, dtype=float) + 0.5))

    def d3f(t):
        return q * (q - 1) * (q - 2) * np.exp((q - 3) * np.log(np.asarray(t, dtype=float) + 0.5))

    return f, df, d3f


def suite_euler_maclaurin(tolerances: dict | None = None) -> list[CheckResult]:
    """Polynomial exactness and cross-order agreement of the correction."""
    tol_exact = _tol(tolerances, "em-exactness")
    tol_agree = _tol(tolerances, "em-order-agreement")
    results = []

    worst = 0.0
    for coeffs in [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (1.0, -2.0, 3.0, 0.5), (0.25, 1.0, -1.5, 2.0)]:
        c0, c1, c2, c3 = coeffs
        f = lambda t: c0 + c1 * np.asarray(t, float) + c2 * np.asarray(t, float) ** 2 + c3 * np.asarray(t, float) ** 3
        df = lambda t: c1 + 2 * c2 * np.asarray(t, float) + 3 * c3 * np.asarray(t, float) ** 2
        d3f = lambda t: 6 * c3 * np.ones_like(np.asarray(t, float))
        m, n = 0, 7
        direct = sum(f(float(i)) for i in range(m, n + 1)) - _poly_integral(coeffs, m, n)
        value = asym.em_sum_minus_integral(f, m, n, asym.EmOrder.THREE, df=df, d3f=d3f)
        worst = max(worst, abs(value - direct))
    results.append(_check("em-cubic-exactness", worst, tol_exact, f"max error {worst:.3e}"))

    worst = 0.0
    for p in (-1, 0, 1):
        f, df, d3f = _power_callables(p)
        one = asym.em_sum_minus_integral(f, 2, 1000, asym.EmOrder.ONE, df=df)
        three = asym.em_sum_minus_integral(f, 2, 1000, asym.EmOrder.THREE, df=df, d3f=d3f)
        worst = max(worst, abs(one - three))
    results.append(_check("em-order-agreement", worst, tol_agree, f"max order gap {worst:.3e}"))
    return results


def _poly_integral(coeffs, m: float, n: float) -> float:
    total = 0.0
    for k, c in enumerate(coeffs):
        total += c * (n ** (k + 1) - m ** (k + 1)) / (k + 1)
    return total


def suite_power_sums(n_max: int = 5000, tolerances: dict | None = None) -> list[CheckResult]:
    """Closed forms track the direct sums up to a constant, at rate 1/n."""
    tol_pair = _tol(tolerances, "pair-difference-bound")
    tol_alt = _tol(tolerances, "alternating-sum-bound")
    tol_mod = _tol(tolerances, "closed-modulus")
    results = []

    ns = np.arange(50, n_max + 1)
    for p in (1, -1):
        prefix = asym.power_sum_prefix(p, 2 * n_max + 1)
        diff = (prefix[2 * ns - 3] - asym.power_sum_closed(p, 2 * ns)) - (
            prefix[ns - 3] - asym.power_sum_closed(p, ns)
        )
        fitted = float((ns * np.abs(diff)).max())
        detail = f"fitted C {fitted:.3e} over n in [50, {n_max}], bound {tol_pair}"
        results.append(_check(f"pair-difference-rate-p{p:+d}", fitted, tol_pair, detail))

    prefix0 = asym.power_sum_prefix(0, 10_001, alternating=True)
    worst = float(np.abs(prefix0).max())
    detail = f"max |sum| {worst:.3e} for n <= 10^4, bound {tol_alt}"
    results.append(_check("alternating-sum-bounded", worst, tol_alt, detail))

    mods = np.abs(asym.power_sum_closed(0, np.arange(3, 2000), alternating=True))
    worst = float(np.abs(mods - 0.5).max())
    results.append(_check("alternating-closed-modulus", worst, tol_mod, f"max | |closed| - 1/2 | = {worst:.3e}"))
    return results


#: The balanced member b = 1/2 (zero gap) and every approximant constant.
GAP_CASES = ((0.0, 0.5),) + tuple(
    sorted({(0.25, float(b)) for approx in asym.APPROXIMANTS.values() for b in (approx.b_even, approx.b_odd)})
)

#: Relative agreement required of limit_distance and its gap_limit derivation.
LIMIT_DISTANCE_RTOL = 1e-14


def suite_gap_limit(tolerances: dict | None = None) -> list[CheckResult]:
    """Radial gaps of the asymptotic family reach their limits at rate 1/t."""
    tol_gap = _tol(tolerances, "gap-tolerance")
    tol_rate = _tol(tolerances, "gap-rate-bound")
    tol_a = _tol(tolerances, "gap-a-independence")
    results = []

    worst = 0.0
    for a, b in GAP_CASES:
        z = asym.asymptotic_form(1e4, a, b)
        gap = asym.spiral_gap(z, 0.5 * math.pi * math.log(1e4))
        worst = max(worst, abs(gap - asym.gap_limit(b)))
    results.append(_check("gap-limit-at-1e4", worst, tol_gap, f"max |gap - limit| {worst:.3e}"))

    ts = np.geomspace(1e2, 1e5, 61)
    worst = 0.0
    for a, b in GAP_CASES:
        res = np.array(
            [t * (asym.spiral_gap(asym.asymptotic_form(t, a, b), 0.5 * math.pi * math.log(t)) - asym.gap_limit(b)) for t in ts]
        )
        worst = max(worst, float(np.abs(res).max()))
    results.append(_check("gap-rate-bounded", worst, tol_rate, f"max t*residual {worst:.3e}"))

    spread = 0.0
    for _, b in GAP_CASES:
        gaps = [
            asym.spiral_gap(asym.asymptotic_form(1e4, a, b), 0.5 * math.pi * math.log(1e4)) for a in (0.0, 0.25, 1.0)
        ]
        spread = max(spread, max(gaps) - min(gaps))
    results.append(_check("gap-a-independence", spread, tol_a, f"max spread over a {spread:.3e}"))

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


def suite_approximant(seq: CenterSequence | None = None, window: tuple[int, int] = (500, 1000), tolerances: dict | None = None) -> list[CheckResult]:
    """After the motion fit, scaled-centre residuals decay like 1/n."""
    tol = _tol(tolerances, "approximant-residual-bound")
    if seq is None:
        seq = centers_all(window[1])
    motion, _ = fit_motion_to_approximant(seq, window)
    ns = np.arange(window[0], window[1] + 1)
    a = APPROXIMANT_SCALE * seq.slice(*window)
    b = asym.approximant(ns, seq.family)
    residual = np.abs(a - (np.exp(1j * motion.rotation) * b + motion.translation))
    worst = float((ns * residual).max())
    detail = f"max n*residual {worst:.3e} on window {window}, bound {tol}"
    return [_check("approximant-residual-rate", worst, tol, detail)]


OFFSET_CASES = ((4.0 / math.pi, 1.0, 5.0), (4.0 / math.pi, 5.0, 25.0), (1.0, 1.0, 5.0))


def suite_offset_distance(tolerances: dict | None = None) -> list[CheckResult]:
    """Offset-curve distances match c/sqrt(1+beta^2) at rate 1/r."""
    scale = _tol(tolerances, "offset-rate-bound") / 5.0
    results = []
    rs = np.geomspace(1e2, 1e4, 25)
    for beta, c, bound in OFFSET_CASES:
        bound = bound * scale
        rows = offset_distance_profile(beta, c, rs)
        worst = float(max(abs(d - pred) * r for r, d, pred in rows))
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


def _tol(tolerances: dict | None, name: str) -> float:
    if tolerances and name in tolerances:
        return float(tolerances[name])
    return DEFAULT_TOLERANCES[name]


def run_suite(name: str, tolerances: dict | None = None) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](tolerances=tolerances)
