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


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_seed_exactness():
    (seed,) = geo.centers(geo.Family.ALL_POLYGONS, 3)
    err = abs(seed - complex(-math.sqrt(3.0) / 6.0, 0.0))
    _report("01-seed-exactness", err <= 1e-12, f"|P3 + sqrt(3)/6| = {err:.3e} (tol 1e-12)")


@pytest.mark.parametrize("family", geo.Family)
def test_criterion_02_vertex_oracle_equivalence(family):
    start = time.perf_counter()
    chain = geo.build_chain(family, 200)
    worst = max(abs(complex(p.mean()) - c) for p, c in zip(chain, geo.centers(family, 200)))
    violations = geo.validate_chain(chain, family)
    elapsed = time.perf_counter() - start
    _report(
        f"02-vertex-oracle-equivalence-{family.value}",
        worst <= 1e-9 and not violations,
        f"max centroid error {worst:.3e} (tol 1e-9), {len(violations)} violations, {elapsed:.2f}s",
    )


def test_criterion_03_turning_structure():
    # steps leaving the 2-gon (centred at 0) through the 10000-gon; the k-gon turns them by pi/k if k is odd
    steps = np.diff(geo.centers(geo.Family.ALL_POLYGONS, 10_001), prepend=0.0)
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
    frame, _ = p_fit
    ns = np.arange(500, 1001)
    # w*NORMALIZATION - b = exp(-i*phi)*(APPROXIMANT_SCALE*c - (exp(i*phi)*b + translation)), a unit factor
    w = frame.to_spiral(p_seq[500 - 3 : 1000 - 3 + 1])
    worst = float((ns * np.abs(w * mt.NORMALIZATION - asym.approximant(ns, geo.Family.ALL_POLYGONS))).max())
    elapsed = time.perf_counter() - start
    _report(
        "08-approximant-residual-rate",
        worst <= 50.0,
        f"max n*residual {worst:.3f} on [500, 1000] (bound 50), {elapsed:.2f}s",
    )


def test_criterion_09_gap_limits():
    results = verify.suite_gap_limit()
    ok = all(r.passed for r in results)
    _report("09-gap-limits", ok, "; ".join(r.detail for r in results))


def test_criterion_10_offset_curve_distance():
    results = verify.suite_offset_distance()
    ok = all(r.passed for r in results)
    _report("10-offset-curve-distance", ok, "; ".join(r.detail for r in results))


def test_criterion_11_headline_constants(p_table, q_table):
    start = time.perf_counter()
    p_n, p_d = p_table
    p_tail = (p_n >= 900) & (p_n <= 1000)
    p_means = mt.parity_means(p_n[p_tail], mt.richardson_extrapolate(p_n, p_d)[p_tail])
    even, odd = p_means[Parity.EVEN], p_means[Parity.ODD]

    q_n, q_d = q_table
    q_sel = mt.richardson_extrapolate(q_n, q_d)[(q_n >= 900) & (q_n <= 1000)]
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
    (p_n, p_d), (q_n, q_d) = p_table, q_table
    p_frac = mt.inner_side_fraction(p_d[(p_n >= 100) & (p_n <= 1000)])
    q_frac = mt.inner_side_fraction(q_d[(q_n >= 100) & (q_n <= 1000)])
    _report(
        "12-inner-side",
        p_frac == 1.0 and q_frac == 1.0,
        f"inner fractions: all-polygons {p_frac:.4f}, odd-polygons {q_frac:.4f} (must be 1)",
    )


def test_criterion_13_cross_route_agreement(p_fit, p_spiral_fit, q_fit, q_spiral_fit):
    # the routes share no constant: one fits the approximant, the other powers of the side count from 4/pi alone
    fits = {"all": (p_fit, p_spiral_fit), "odd": (q_fit, q_spiral_fit)}
    frames = {family: (abs(a[0].K - s[0].K), abs(a[0].z0 - s[0].z0)) for family, (a, s) in fits.items()}
    # a distance moves by at most |dz0| + |dK|*|w|, |w| <= 2.6e5 here: 4.6e-6 at the frame bounds
    diffs = {
        f"{family}-{parity.value}": abs(approx[1].per_parity_mean[parity] - spiral[1].per_parity_mean[parity])
        for family, (approx, spiral) in fits.items()
        for parity in Parity
    }
    ok = all(dk <= 1e-11 and dz <= 2e-6 for dk, dz in frames.values()) and all(v <= 1e-5 for v in diffs.values())
    _report(
        "13-cross-route-agreement",
        ok,
        "frame differences on 500:1000 "
        + ", ".join(f"{k} |dK| {dk:.2e} |dz0| {dz:.2e}" for k, (dk, dz) in frames.items())
        + " (tol 1e-11, 2e-6); parity mean differences "
        + ", ".join(f"{k} {v:.2e}" for k, v in diffs.items())
        + " (tol 1e-5)",
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
