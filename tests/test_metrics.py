import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyspiral import metrics as mt
from polyspiral.asymptotics import EULER_GAMMA, Parity, approximant
from polyspiral.geometry import Family, centers
from polyspiral.spiral import BLOCK, point

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


class TestSpiralFrame:
    @settings(max_examples=100, deadline=None)
    @given(angles, finite, finite, finite, finite)
    def test_round_trip(self, alpha, cx, cy, zx, zy):
        frame = mt.SpiralFrame(cmath.exp(1j * alpha), complex(cx, cy))
        z = complex(zx, zy)
        back = frame.from_spiral(frame.to_spiral(z))
        assert abs(back - z) < 1e-12 * max(1.0, abs(z), abs(frame.z0))

    def test_unit_modulus_linear_part(self, p_fit, p_spiral_fit, q_fit, q_spiral_fit):
        # both routes build K as a unit phase: the approximant's from its rotation, the spiral route's from A_0
        for frame, _ in (p_fit, p_spiral_fit, q_fit, q_spiral_fit):
            assert abs(abs(frame.K) - 1.0) <= 1e-15


#: The closed-form rotations (pi/2)(gamma + ln 2) and that plus (pi/4) ln 2.
PHI = {
    Family.ALL_POLYGONS: 0.5 * math.pi * (EULER_GAMMA + math.log(2.0)),
    Family.ODD_POLYGONS: 0.5 * math.pi * (EULER_GAMMA + math.log(2.0)) + 0.25 * math.pi * math.log(2.0),
}


class TestNormalization:
    def test_modulus_value(self):
        # s = 2 pi sqrt(1 + pi^2/16), 50-digit oracle
        assert mt.NORMALIZATION_MODULUS == pytest.approx(7.9894111399312806, abs=1e-12)

    def test_composite_with_scale_factor_is_isometry(self):
        for frame in mt.FRAMES.values():
            assert abs(frame.K) == pytest.approx(1.0, abs=1e-15)

    def test_rotation_decomposition(self):
        # K_f = A exp(-i phi_f) / s^(1 + i pi/4): its phase is arg A - phi_f - (pi/4) ln s
        s = mt.NORMALIZATION_MODULUS
        for family, frame in mt.FRAMES.items():
            expected = cmath.phase(mt.APPROXIMANT_SCALE) - PHI[family] - 0.25 * math.pi * math.log(s)
            assert cmath.exp(1j * expected) == pytest.approx(frame.K, abs=1e-15)


def _synthetic_window(phi, c, noise=None):
    """All-family centres at indices 500..1000 that the approximant model fits with rotation phi and translation c."""
    ns = np.arange(500, 1001)
    a = np.exp(1j * phi) * approximant(ns, Family.ALL_POLYGONS) + c
    if noise is not None:
        a = a + noise(ns)
    return a / mt.APPROXIMANT_SCALE


def _window(z, family, lo, hi):
    """The centres of indices lo..hi from z, which starts at the family's first index."""
    return z[lo - family.first_index : hi - family.first_index + 1]


class TestApproximantFit:
    def test_exact_model_recovery(self):
        frame, _ = mt.fit_motion_to_approximant(Family.ALL_POLYGONS, (500, 1000), _synthetic_window(0.7, 3.0 - 2.0j))
        assert abs(frame.K - mt.APPROXIMANT_SCALE * cmath.exp(-0.7j) / mt.NORMALIZATION) < 1e-10
        assert abs(mt.APPROXIMANT_SCALE) * abs(frame.z0 - (3.0 - 2.0j) / mt.APPROXIMANT_SCALE) < 1e-10

    def test_noisy_recovery(self):
        noise = lambda ns: np.exp(1j * 0.4) / ns
        z = _synthetic_window(0.7, 3.0 - 2.0j, noise=noise)
        frame, _ = mt.fit_motion_to_approximant(Family.ALL_POLYGONS, (500, 1000), z)
        assert abs(frame.K - mt.APPROXIMANT_SCALE * cmath.exp(-0.7j) / mt.NORMALIZATION) < 5.0 / 501.0

    def test_real_sequence_residual_rate(self, p_fit):
        _, diag = p_fit
        assert diag.residual_slope < -0.5

    def test_window_stability(self, p_seq, p_fit):
        frame, _ = p_fit
        other, _ = mt.fit_motion_to_approximant(Family.ALL_POLYGONS, (1000, 2000), p_seq[1000 - 3 :])
        assert abs(frame.K - other.K) < 1e-2
        assert abs(mt.APPROXIMANT_SCALE) * abs(frame.z0 - other.z0) < 0.1

    def test_window_too_short(self, p_seq):
        with pytest.raises(ValueError):
            mt.fit_motion_to_approximant(Family.ALL_POLYGONS, (500, 505), p_seq[500 - 3 : 505 - 3 + 1])

    def test_index_drift_fails(self, p_seq):
        # shifting centres by one index breaks parity alignment
        shifted = p_seq[1:]
        with pytest.raises(mt.FitError, match="on window 500:1000: index drift suspected"):
            mt.fit_motion_to_approximant(Family.ALL_POLYGONS, (500, 1000), shifted[500 - 3 : 1000 - 3 + 1])

    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_index_drift_fails_on_every_window(self, family):
        # one rule from the first index on: centres shifted by an index either way read n*||da/db| - 1| near 1
        z, first = centers(family, 10001), family.first_index
        later = z[1:]
        earlier = np.concatenate(([0.0], z))  # the polygon before first_index
        for shifted in (later, earlier):
            for window in ((first, first + 7), (20, 60), (100, 200), (100, 10000)):
                with pytest.raises(mt.FitError, match="index drift"):
                    mt.fit_motion_to_approximant(family, window, _window(shifted, family, *window))

    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_aligned_windows_pass_the_drift_rule(self, family):
        # every start below 400, ends at +7, +20, 2x, 5x and 10x: aligned centres read at most 0.148 against 0.5
        z = centers(family, 3990)
        for start in range(family.first_index, 400):
            for end in {start + 7, start + 20, 2 * start, 5 * start, 10 * start}:
                if end - start >= 7:
                    mt.fit_motion_to_approximant(family, (start, end), _window(z, family, start, end))


class TestSpiralFit:
    def test_synthetic_points_on_spiral(self):
        # the points are the model's pure A_0 term, so one term fits them to their rounding and more only add noise
        ns = np.arange(300, 500)
        theta = 0.5 * math.pi * np.log(ns - 0.5) + 0.37
        w = point(mt.GROWTH_RATE, theta)
        phi0, c0, a, s = 1.234, 3.5 - 2.25j, mt.APPROXIMANT_SCALE, mt.NORMALIZATION
        truth = mt.SpiralFrame(a * cmath.exp(-1j * phi0) / s, c0 / a)
        frame, _ = mt.fit_motion_to_spiral(Family.ALL_POLYGONS, (300, 499), truth.from_spiral(w))
        assert abs(frame.K - truth.K) < 1e-14
        assert abs(a) * abs(frame.z0 - truth.z0) < 5e-9

    def test_window_too_short(self, p_seq):
        with pytest.raises(ValueError):
            mt.fit_motion_to_spiral(Family.ALL_POLYGONS, (500, 510), p_seq[500 - 3 : 510 - 3 + 1])

    @pytest.mark.parametrize(
        "window", [(100, 200), (500, 1000), (500, 2000), (2500, 5000), (5000, 10000)], ids=lambda w: f"{w[0]}:{w[1]}"
    )
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_spiral_route_recovers_frame(self, family, window):
        # from 4/pi alone, the route lands on FRAMES
        z = centers(family, window[1])[window[0] - family.first_index :]
        committed = mt.FRAMES[family]
        frame, _ = mt.fit_motion_to_spiral(family, window, z)
        assert abs(frame.K - committed.K) < 1e-11
        assert abs(frame.z0 - committed.z0) < 1e-6
        if window == (100, 200):  # where the approximant route is still off by its truncated tail
            approx, _ = mt.fit_motion_to_approximant(family, window, z)
            assert abs(frame.K - committed.K) < abs(approx.K - committed.K)
            assert abs(frame.z0 - committed.z0) < abs(approx.z0 - committed.z0)

    @pytest.mark.parametrize("window", [(400, 499), (1500, 1999)], ids=lambda w: f"{w[0]}:{w[1]}")
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_spiral_route_narrow_window(self, family, window):
        # on a window spanning less than a factor of 2 the columns are nearly collinear; the term count
        # that balances truncation against amplified rounding keeps z0 near the model's noise there
        committed = mt.FRAMES[family]
        frame, _ = mt.fit_motion_to_spiral(family, window, centers(family, window[1])[window[0] - family.first_index :])
        assert abs(frame.K - committed.K) < 1e-10
        assert abs(frame.z0 - committed.z0) < 3e-6


class TestDistanceTable:
    def test_parity_means(self, p_table):
        n, d = p_table
        tail = n >= 1500
        means = mt.parity_means(n[tail], d[tail])
        assert means[Parity.EVEN] == pytest.approx(5.0 / 6.0, abs=5e-3)
        assert means[Parity.ODD] == pytest.approx(7.0 / 12.0, abs=5e-3)

    def test_parity_constancy(self, p_table):
        n, d = p_table
        window = (n >= 1000) & (n <= 2000)
        assert float(np.std(d[window & (n % 2 == 0)])) <= 1e-2
        assert float(np.std(d[window & (n % 2 == 1)])) <= 1e-2

    def test_range_guards(self, p_seq):
        # distance_table measures the points it is given; a fit checks that z holds one centre per window index
        z = p_seq[500 - 3 : 1000 - 3 + 1]
        for fit in (mt.fit_motion_to_approximant, mt.fit_motion_to_spiral):
            fit(Family.ALL_POLYGONS, (500, 1000), z)
            for wrong in (z[1:], z[:-1], p_seq, z[:, None]):
                with pytest.raises(ValueError, match="for the 501 indices 500:1000"):
                    fit(Family.ALL_POLYGONS, (500, 1000), wrong)

    def test_records_sorted_with_parities(self, p_seq, p_table):
        # indices 3..2000 give 1998 distances; a window's distances are its own slice of the full column
        # bit for bit, also across a BLOCK boundary of the full column's solve (16380:16390 of 3..20000)
        _, d = p_table
        assert d.shape == (1998,)
        assert np.all(d >= 0.0)
        frame = mt.FRAMES[Family.ALL_POLYGONS]
        np.testing.assert_array_equal(mt.distance_table(frame, p_seq[1000 - 3 : 1200 - 3 + 1]), d[1000 - 3 : 1200 - 3 + 1])
        z = centers(Family.ALL_POLYGONS, 20000)
        lo, hi = 16380 - 3, 16390 - 3 + 1  # the positions of indices 16380..16390
        assert lo < BLOCK < hi
        np.testing.assert_array_equal(mt.distance_table(frame, z[lo:hi]), mt.distance_table(frame, z)[lo:hi])

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            mt.richardson_extrapolate(np.array([10, 20, 11, 23]), np.ones(4))
        with pytest.raises(ValueError):
            mt.richardson_extrapolate(np.array([10, 10]), np.ones(2))


class TestRichardson:
    def test_exact_linear_tail_eliminated(self):
        ns = np.arange(10, 81)
        extrapolated = mt.richardson_extrapolate(ns, 0.25 + 3.0 / ns**2)
        have = ~np.isnan(extrapolated)
        assert extrapolated[have] == pytest.approx(0.25, abs=1e-12)
        assert np.any(have & (ns % 2 == 1))
        assert np.any(have & (ns % 2 == 0))

    def test_partner_parity_respected(self):
        ns = np.array([10, 11, 20, 23])
        ext = dict(zip(ns.tolist(), mt.richardson_extrapolate(ns, 1.0 + 1.0 / ns).tolist()))
        assert not math.isnan(ext[10])  # partner 20
        assert not math.isnan(ext[11])  # partner 23 (= 2n + 1)
        assert math.isnan(ext[20])
        assert math.isnan(ext[23])

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.integers(min_value=1, max_value=120), min_size=20, max_size=100),
        st.floats(min_value=0.1, max_value=2.0),
    )
    def test_matches_per_index_partner_search(self, indices, scale):
        ns = sorted(indices)
        distances = [scale + 1.0 / n**2 + 0.01 * math.sin(n) for n in ns]
        by_n = dict(zip(ns, distances))
        expected = []
        for n, d in zip(ns, distances):
            m = next((m for m in (2 * n, 2 * n + 1, 2 * n - 1) if m in by_n and (m - n) % 2 == 0 and m != n), None)
            expected.append(math.nan if m is None else (m * m * by_n[m] - n * n * d) / (m * m - n * n))
        out = mt.richardson_extrapolate(np.array(ns), np.array(distances))
        np.testing.assert_array_equal(out, np.array(expected))

    def test_extrapolated_headline_values(self, p_table):
        n, d = p_table
        tail = (n >= 900) & (n <= 1000)
        means = mt.parity_means(n[tail], mt.richardson_extrapolate(n, d)[tail])
        assert means[Parity.EVEN] == pytest.approx(5.0 / 6.0, abs=1e-3)
        assert means[Parity.ODD] == pytest.approx(7.0 / 12.0, abs=1e-3)


class TestInnerSide:
    def test_constructed_offset_points(self):
        # points 0.1 inside and outside the spiral, measured by distance_table in the identity frame
        thetas = np.linspace(2.0, 8.0, 50)
        base = point(mt.GROWTH_RATE, thetas)
        inward = 1j * (mt.GROWTH_RATE + 1j) * base / np.abs((mt.GROWTH_RATE + 1j) * base)  # left of the tangent
        n = np.arange(50)

        def fraction(points):
            distance = mt.distance_table(mt.SpiralFrame(1.0, 0.0), points)
            np.testing.assert_allclose(np.abs(distance), 0.1, rtol=1e-6)
            return mt.inner_side_fraction(distance)

        assert fraction(base + 0.1 * inward) == 1.0
        assert fraction(base - 0.1 * inward) == 0.0
        assert fraction(base + np.where(n % 5 == 0, -0.1, 0.1) * inward) == 0.8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mt.inner_side_fraction(np.array([]))


class TestOddFamilyPipeline:
    def test_approximant_residual_rate(self, q_seq, q_fit):
        frame, diag = q_fit
        ns = np.arange(500, 1001)
        # w*NORMALIZATION - b = exp(-i*phi)*(APPROXIMANT_SCALE*c - (exp(i*phi)*b + translation)), a unit factor
        w = frame.to_spiral(q_seq[500 - 2 : 1000 - 2 + 1])
        residual = np.abs(w * mt.NORMALIZATION - approximant(ns, Family.ODD_POLYGONS))
        assert float((ns * residual).max()) < 5.0
        assert diag.residual_slope < -0.9

    def test_index_drift_fails(self, q_seq):
        shifted = q_seq[1:]
        with pytest.raises(mt.FitError):
            mt.fit_motion_to_approximant(Family.ODD_POLYGONS, (500, 1000), shifted[500 - 2 : 1000 - 2 + 1])

    def test_distances_converge(self, q_table):
        n, d = q_table
        tail = n >= 1500
        means = mt.parity_means(n[tail], d[tail])
        assert means[Parity.EVEN] == pytest.approx(7.0 / 24.0, abs=5e-3)
        assert means[Parity.ODD] == pytest.approx(7.0 / 24.0, abs=5e-3)
