"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one PASS/FAIL line (visible with -v/-s or on failure).
"""

import math
import time

import numpy as np
import pytest

from polyspiral import asymptotics as asym
from polyspiral import geometry as geo
from polyspiral import metrics as mt
from polyspiral import verify
from polyspiral.asymptotics import Parity
from polyspiral.cli import main
from polyspiral.spiral import offset_distance_profile


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_seed_exactness():
    seed = geo.centers(geo.Family.ALL_POLYGONS, 3).center(3)
    err = abs(seed - complex(-math.sqrt(3.0) / 6.0, 0.0))
    _report("01-seed-exactness", err <= 1e-12, f"|P3 + sqrt(3)/6| = {err:.3e} (tol 1e-12)")


@pytest.mark.parametrize("family", geo.Family)
def test_criterion_02_vertex_oracle_equivalence(family):
    start = time.perf_counter()
    chain = geo.build_chain(family, 200)
    seq = geo.centers(family, 200)
    worst = max(abs(complex(p.mean()) - c) for p, c in zip(chain, seq.centers))
    violations = geo.validate_chain(chain, family)
    elapsed = time.perf_counter() - start
    _report(
        f"02-vertex-oracle-equivalence-{family.value}",
        worst <= 1e-9 and not violations,
        f"max centroid error {worst:.3e} (tol 1e-9), {len(violations)} violations, {elapsed:.2f}s",
    )


def test_criterion_03_turning_structure():
    # steps leaving the 2-gon (centred at 0) through the 10000-gon; the k-gon turns them by pi/k if k is odd
    steps = np.diff(geo.centers(geo.Family.ALL_POLYGONS, 10_001).centers, prepend=0.0)
    k = np.arange(3, 10_001)
    expected = np.where(k % 2 == 1, np.pi / k, 0.0)
    worst = float(np.max(np.abs(np.angle(steps[1:] / steps[:-1]) - expected)))
    _report("03-turning-structure", worst <= 1e-12, f"max turning-angle error {worst:.3e} (tol 1e-12)")


def test_criterion_04_harmonic_bounds_strict():
    result = verify.suite_harmonic()[0]
    _report("04-harmonic-bounds-strict", result.passed, result.detail)


def test_criterion_05_alt_harmonic_residual():
    result = verify.suite_alt_harmonic()[0]
    _report("05-alt-harmonic-residual", result.passed, result.detail)


def test_criterion_06_euler_maclaurin():
    results = verify.suite_euler_maclaurin()
    ok = all(r.passed for r in results)
    _report("06-euler-maclaurin", ok, "; ".join(r.detail for r in results))


def test_criterion_07_power_sum_closed_forms():
    worst_c = 0.0
    ns = np.arange(50, 5001)
    for p in (1, -1):
        prefix = asym.power_sum_prefix(p, 10_001)
        diff = (prefix[2 * ns - 3] - asym.power_sum_closed(p, 2 * ns)) - (
            prefix[ns - 3] - asym.power_sum_closed(p, ns)
        )
        worst_c = max(worst_c, float((ns * np.abs(diff)).max()))
    mods = np.abs(asym.power_sum_closed(0, np.arange(3, 5001)))
    mod_err = float(np.abs(mods - 0.5).max())
    _report(
        "07-power-sum-closed-forms",
        worst_c <= 10.0 and mod_err <= 1e-15,
        f"fitted C {worst_c:.3e} (bound 10), | |S0 closed| - 1/2 | = {mod_err:.3e}",
    )


def test_criterion_08_approximant_residual_rate(p_seq, p_fit):
    start = time.perf_counter()
    motion, _ = p_fit
    ns = np.arange(500, 1001)
    a = mt.APPROXIMANT_SCALE * p_seq.slice(500, 1000)
    b = asym.approximant(ns, geo.Family.ALL_POLYGONS)
    worst = float((ns * np.abs(a - (np.exp(1j * motion.rotation) * b + motion.translation))).max())
    elapsed = time.perf_counter() - start
    _report(
        "08-approximant-residual-rate",
        worst <= 50.0,
        f"max n*residual {worst:.3f} on [500, 1000] (bound 50), {elapsed:.2f}s",
    )


def test_criterion_09_gap_limits():
    worst_gap = 0.0
    for b in (0.5, 43.0 / 6.0, 31.0 / 6.0):
        z = asym.asymptotic_form(1e4, 0.25, b)
        gap = asym.spiral_gap(z, 0.5 * math.pi * math.log(1e4))
        worst_gap = max(worst_gap, abs(gap - asym.gap_limit(b)))
    ts = np.geomspace(1e2, 1e5, 61)
    worst_rate = 0.0
    for b in (0.5, 43.0 / 6.0, 31.0 / 6.0):
        res = [
            t * (asym.spiral_gap(asym.asymptotic_form(t, 0.25, b), 0.5 * math.pi * math.log(t)) - asym.gap_limit(b))
            for t in ts
        ]
        worst_rate = max(worst_rate, float(np.abs(res).max()))
    _report(
        "09-gap-limits",
        worst_gap <= 1e-2 and worst_rate <= 10.0,
        f"max |gap - limit| {worst_gap:.3e} at t=1e4 (tol 1e-2), max t*residual {worst_rate:.3f} (bound 10)",
    )


def test_criterion_10_offset_curve_distance():
    rs = np.geomspace(1e2, 1e4, 25)
    d, pred = offset_distance_profile(4.0 / math.pi, 1.0, rs)
    worst = float((np.abs(d - pred) * rs).max()) / 5.0
    _report(
        "10-offset-curve-distance",
        worst <= 1.0,
        f"max |d - pred| * r / 5 = {worst:.3e} over r in [1e2, 1e4] (bound 1)",
    )


def test_criterion_11_headline_constants(p_table, q_table):
    start = time.perf_counter()
    p_ex = mt.richardson_extrapolate(p_table)
    p_means = mt.parity_means(p_ex.select((p_ex.n >= 900) & (p_ex.n <= 1000)), extrapolated=True)
    even, odd = p_means[Parity.EVEN], p_means[Parity.ODD]

    q_ex = mt.richardson_extrapolate(q_table)
    q_sel = q_ex.extrapolated[(q_ex.n >= 900) & (q_ex.n <= 1000)]
    q_mean = float(np.mean(q_sel[~np.isnan(q_sel)]))

    combined = 0.5 * (even + odd)
    amplitude = 0.5 * (even - odd)
    errors = {
        "even-5/6": abs(even - 5.0 / 6.0),
        "odd-7/12": abs(odd - 7.0 / 12.0),
        "q-7/24": abs(q_mean - 7.0 / 24.0),
        "combined-17/24": abs(combined - 17.0 / 24.0),
        "amplitude-1/8": abs(amplitude - 0.125),
    }
    elapsed = time.perf_counter() - start
    ok = all(v <= 5e-3 for v in errors.values())
    detail = ", ".join(f"{k} err {v:.2e}" for k, v in errors.items())
    _report("11-headline-constants", ok, f"{detail} (tol 5e-3), {elapsed:.2f}s")


def test_criterion_12_inner_side(p_table, q_table):
    p_frac = mt.inner_side_fraction(p_table.select((p_table.n >= 100) & (p_table.n <= 1000)))
    q_frac = mt.inner_side_fraction(q_table.select((q_table.n >= 100) & (q_table.n <= 1000)))
    _report(
        "12-inner-side",
        p_frac == 1.0 and q_frac == 1.0,
        f"inner fractions: all-polygons {p_frac:.4f}, odd-polygons {q_frac:.4f} (must be 1)",
    )


def test_criterion_13_cross_route_agreement(p_fit, p_spiral_fit, q_fit, q_spiral_fit):
    fits = {"all": (p_fit, p_spiral_fit), "odd": (q_fit, q_spiral_fit)}
    diffs = {
        f"{family}-{parity.value}": abs(approx[1].per_parity_mean[parity] - spiral[1].per_parity_mean[parity])
        for family, (approx, spiral) in fits.items()
        for parity in Parity
    }
    ok = all(v <= 5e-3 for v in diffs.values())
    _report(
        "13-cross-route-agreement",
        ok,
        "parity mean differences " + ", ".join(f"{k} {v:.2e}" for k, v in diffs.items()) + " (tol 5e-3)",
    )


def test_criterion_14_cli_determinism(tmp_path):
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    args = ["distances", "--family", "all", "--n-max", "2000"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()

    svg_path = tmp_path / "chain.svg"
    assert main(["render", "--n-max", "10", "--out", str(svg_path)]) == 0
    import xml.etree.ElementTree as ET

    root = ET.parse(svg_path).getroot()
    polygons = root.findall(".//{http://www.w3.org/2000/svg}polygon")
    _report(
        "14-cli-determinism",
        identical and len(polygons) == 8,
        f"distance runs byte-identical: {identical}; render polygons: {len(polygons)} (expect 8)",
    )
