import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyspiral import spiral as sp
from polyspiral.geometry import Family, centers
from polyspiral.metrics import FRAMES
from polyspiral.spiral import BLOCK

BETA = 4.0 / math.pi


def sampled_min(beta, z, lo, hi, samples=20001, zooms=5):
    """Smallest sampled distance from each point of z to r = exp(beta*theta) over [lo, hi].

    Samples the angle range densely, then repeatedly resamples a small
    interval around the best sample; derivative-free and independent of
    the solver.
    """
    z = np.asarray(z, dtype=complex)[:, None]
    lo, hi = np.broadcast_to(lo, z.shape[:1])[:, None], np.broadcast_to(hi, z.shape[:1])[:, None]
    theta = lo + (hi - lo) * np.linspace(0.0, 1.0, samples)
    best = np.full(z.shape[0], np.inf)
    rows = np.arange(z.shape[0])
    for _ in range(zooms + 1):
        d = np.abs(z - sp.point(beta, theta))
        pick = np.argmin(d, axis=1)
        best = np.minimum(best, d[rows, pick])
        spacing = (theta[:, -1] - theta[:, 0]) / (theta.shape[1] - 1)
        theta = theta[rows, pick][:, None] + 2.0 * spacing[:, None] * np.linspace(-1.0, 1.0, 2001)
    return best


def solve(z):
    """Signed distance and angle of the single point z."""
    d, theta = sp.nearest_distances(BETA, [z])
    return float(d[0]), float(theta[0])


class TestSpiralCurve:
    def test_point_at_zero(self):
        assert complex(sp.point(BETA, 0.0)) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_point_quarter_turn(self):
        assert complex(sp.point(BETA, math.pi / 2.0)) == pytest.approx(1j * math.exp(2.0), abs=1e-12)

    def test_parameter_guards(self):
        z = [1.0 + 1.0j]
        with pytest.raises(ValueError):
            sp.nearest_distances(0.0, z)
        with pytest.raises(ValueError):
            sp.nearest_distances(-1.0, z)

    def test_tangent_direction(self):
        # the tangent (beta + i)*p(theta) makes the angle arctan(1/beta) with the
        # radius; a step left of it is inner (positive), right of it outer
        theta = np.linspace(0.5, 6.0, 12)
        p = sp.point(BETA, theta)
        left = 1j * (BETA + 1j) * p / abs(BETA + 1j)
        d_left, _ = sp.nearest_distances(BETA, p + 1e-3 * left)
        d_right, _ = sp.nearest_distances(BETA, p - 1e-3 * left)
        np.testing.assert_allclose(d_left, 1e-3 * np.abs(p), rtol=1e-6)
        np.testing.assert_allclose(d_right, -1e-3 * np.abs(p), rtol=1e-6)


class TestNearestDistance:
    def test_on_curve_point(self):
        d, theta = solve(complex(sp.point(BETA, 1.0)))
        assert abs(d) < 1e-10
        assert theta == pytest.approx(1.0, abs=1e-6)

    def test_against_dense_sampling_oracle(self):
        z = 2.0 + 0.0j
        seed = math.log(2.0) / BETA
        thetas = np.linspace(seed - 3.0 * math.pi, seed + 3.0 * math.pi, 10**6)
        oracle = float(np.abs(z - sp.point(BETA, thetas)).min())
        d, _ = solve(z)
        assert abs(d) == pytest.approx(oracle, abs=1e-6)

    def test_offset_curve_point_at_large_radius(self):
        # distance from the offset-1 curve at r ~ 10^3 to the base curve
        r = 1e3
        theta = math.log(r + 1.0) / BETA
        z = r * complex(math.cos(theta), math.sin(theta))
        d, _ = solve(z)
        assert d == pytest.approx(1.0 / math.sqrt(1.0 + BETA**2), abs=1e-2)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            sp.nearest_distances(BETA, 0j)
        with pytest.raises(ValueError):
            sp.nearest_distances(BETA, [1.0 + 0j, 0j])

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=-12.0, max_value=12.0),
    )
    def test_never_exceeds_sampled_distances(self, radius, angle, theta_offset):
        z = radius * complex(math.cos(angle), math.sin(angle))
        d, _ = solve(z)
        seed = math.log(radius) / BETA
        sample_theta = seed + theta_offset
        assert abs(d) <= abs(z - complex(sp.point(BETA, sample_theta))) + 1e-9

    def test_vectorized_matches_scalar(self):
        zs = np.array([2.0 + 1j, -3.0 + 0.5j, 0.1 - 0.2j])
        ds, thetas = sp.nearest_distances(BETA, zs)
        for i, z in enumerate(zs):
            d, theta = solve(complex(z))
            assert ds[i] == pytest.approx(d, abs=1e-12)
            assert thetas[i] == pytest.approx(theta, abs=1e-9)


class TestNewtonSolver:
    def test_far_field_matches_sampled_minimum(self, p_seq):
        rng = np.random.default_rng(7)
        radius = np.geomspace(1e2, 1e10, 60)
        synthetic = radius * np.exp(1j * rng.uniform(-math.pi, math.pi, radius.size))
        z = np.concatenate([FRAMES[Family.ALL_POLYGONS].to_spiral(p_seq.centers[::10]), synthetic])
        d, _ = sp.nearest_distances(BETA, z)
        seed = np.log(np.abs(z)) / BETA
        oracle = sampled_min(BETA, z, seed - 3.0 * math.pi, seed + 3.0 * math.pi)
        assert np.all(np.abs(d) <= oracle + np.abs(z) * 1e-14)

    @pytest.mark.parametrize(
        "beta, offset",
        [(BETA, 0.0), (BETA, 0.3), (BETA, 1.0), (3.0, 0.0), (3.0, 1.0)],
        ids=["base", "offset-0.3", "offset-1", "steep", "steep-offset-1"],
    )
    def test_matches_sampled_minimum_across_scales(self, beta, offset):
        rng = np.random.default_rng(11)
        radius = max(offset, 1.0) * np.exp(rng.uniform(-6.0, 6.0, 200))
        arg = rng.uniform(-math.pi, math.pi, radius.size)
        if offset > 0.0:  # every other point on the inner offset curve r = exp(beta*theta) - offset
            arg[::2] = np.log(radius[::2] + offset) / beta
        z = radius * np.exp(1j * arg)
        d, _ = sp.nearest_distances(beta, z)
        seed = np.log(radius) / beta
        oracle = sampled_min(beta, z, seed - 4.0 * math.pi, seed + 4.0 * math.pi)
        assert np.all(np.abs(d) <= oracle + 1e-13 * np.maximum(radius, 1.0))
        if offset > 0.0:  # far from the origin that curve runs inside the spiral
            assert np.all(d[::2][radius[::2] > 10.0 * offset] > 0.0)

    def test_block_boundary(self):
        rng = np.random.default_rng(9)
        n = BLOCK + 3
        z = rng.uniform(0.5, 1e3, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
        ds, thetas = sp.nearest_distances(BETA, z)
        edge = [0, 1, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2]
        for i in edge + list(range(2, BLOCK - 2, 97)):
            d, theta = solve(complex(z[i]))
            assert abs(ds[i] - d) <= 1e-12
            assert abs(thetas[i] - theta) <= 1e-12

    def test_peak_memory_is_bounded(self):
        rng = np.random.default_rng(10)
        z = rng.uniform(1.0, 1e6, 10**5) * np.exp(1j * rng.uniform(-math.pi, math.pi, 10**5))
        tracemalloc.start()
        try:
            sp.nearest_distances(BETA, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


def guard(beta):
    """The largest log-radius gap the one-start path takes."""
    return min(sp._NEAR_GAP, sp._NEAR_GAP_PER_BETA * beta)


def points_at_gap(beta, gaps, angles):
    """The point at log-radius beta*angle + gap on the ray of each angle."""
    angles = np.asarray(angles, dtype=float)
    return np.exp(beta * angles + np.asarray(gaps)) * np.exp(1j * angles)


class TestNearPath:
    @pytest.mark.parametrize("beta", [0.05, BETA, 3.0], ids=["flat", "base", "steep"])
    @pytest.mark.parametrize("side", [0.999, 1.001], ids=["inside", "outside"])
    def test_guard_boundary_matches_sampled_minimum(self, beta, side):
        angles = np.linspace(-6.0, 6.0, 25) / beta  # radii exp(-6)..exp(6)
        gaps = side * guard(beta) * np.where(np.arange(angles.size) % 2 == 0, 1.0, -1.0)
        z = points_at_gap(beta, gaps, angles)
        d, _ = sp.nearest_distances(beta, z)
        seed = np.log(np.abs(z)) / beta
        oracle = sampled_min(beta, z, seed - 4.0 * math.pi, seed + 4.0 * math.pi)
        np.testing.assert_array_less(np.abs(np.abs(d) - oracle), 1e-13 * np.abs(z))
        assert np.all((d > 0.0) == (gaps < 0.0))  # inside the turn is the inner side

    @pytest.mark.parametrize("beta", [0.05, BETA, 3.0], ids=["flat", "base", "steep"])
    def test_one_start_agrees_with_multi_start(self, beta, monkeypatch):
        rng = np.random.default_rng(12)
        angles = rng.uniform(-6.0, 6.0, 400) / beta
        z = points_at_gap(beta, rng.uniform(-0.999, 0.999, angles.size) * guard(beta), angles)
        d, theta = sp.nearest_distances(beta, z)
        monkeypatch.setattr(sp, "_NEAR_GAP", 0.0)  # every point takes the multi-start path
        d_multi, theta_multi = sp.nearest_distances(beta, z)
        np.testing.assert_array_less(np.abs(d - d_multi), 2e-15 * np.abs(z))
        np.testing.assert_allclose(theta, theta_multi, rtol=0.0, atol=1e-13)

    def test_mixed_block_keeps_order(self):
        rng = np.random.default_rng(13)
        angles = rng.uniform(-12.0, 12.0, 3000)
        near = rng.random(angles.size) < 0.5
        gaps = np.where(near, 0.5, rng.uniform(1.05, 4.0, angles.size)) * guard(BETA)
        gaps *= rng.choice([-1.0, 1.0], angles.size)
        z = points_at_gap(BETA, gaps, angles)
        d, theta = sp.nearest_distances(BETA, z)
        for sel in (near, ~near):
            d_sel, theta_sel = sp.nearest_distances(BETA, z[sel])
            np.testing.assert_allclose(d[sel], d_sel, rtol=1e-14)
            np.testing.assert_allclose(theta[sel], theta_sel, rtol=1e-14)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs x86 extended-precision long double")
    def test_tail_mean_is_unbiased(self):
        # Rows 8e5..1e6 of the all family, the tail that distances --n-max 1e6 averages.
        # The reference polishes each returned angle by two Newton steps in long double
        # from the same float64 point.  Taking the smaller of two float64 evaluations of
        # one minimum biases this mean by -4.9e-6 (33 standard errors); one start, -4.5e-7.
        w = FRAMES[Family.ALL_POLYGONS].to_spiral(centers(Family.ALL_POLYGONS, 1_000_000).slice(800_000, 1_000_000))
        d, theta = sp.nearest_distances(BETA, w)
        z, t = w.astype(np.clongdouble), theta.astype(np.longdouble)
        rate = np.longdouble(BETA) + 1j
        for _ in range(2):
            p = np.exp(rate * t)
            gap = np.conj(p - z)
            t -= (gap * rate * p).real / (np.abs(rate * p) ** 2 + (gap * rate * rate * p).real)
        gap = z - np.exp(rate * t)
        error = d - np.copysign(np.hypot(gap.real, gap.imag), d)
        assert abs(float(np.mean(error))) < 1.5e-6


class TestOffsetProfile:
    def test_zero_offset_gives_zero_distances(self):
        rs = np.array([10.0, 100.0])
        d, pred = sp.offset_distance_profile(BETA, 0.0, rs)
        assert pred == 0.0
        assert np.all(np.abs(d) <= 1e-14 * rs)

    def test_unit_offset_far_field(self):
        (d,), pred = sp.offset_distance_profile(BETA, 1.0, [1e4])
        assert pred == pytest.approx(0.61766782483885603, abs=1e-14)
        assert abs(d - pred) <= 5e-4

    def test_parameter_guards(self):
        # beta = 0 is rejected before the profile divides by it, which would warn (an error in tier-1)
        with pytest.raises(ValueError):
            sp.offset_distance_profile(0.0, 1.0, [10.0])
        with pytest.raises(ValueError):
            sp.offset_distance_profile(-1.0, 1.0, [10.0])
        with pytest.raises(ValueError):
            sp.offset_distance_profile(1.0, -1.0, [10.0])
