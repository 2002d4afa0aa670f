import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyspiral import metrics as mt
from polyspiral.asymptotics import EULER_GAMMA, Parity, approximant
from polyspiral.geometry import CenterSequence, Family, centers

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


def _synthetic_sequence(n_max, phi, c, noise=None):
    ns = np.arange(Family.ALL_POLYGONS.first_index, n_max + 1)
    b = approximant(ns, Family.ALL_POLYGONS)
    a = np.exp(1j * phi) * b + c
    if noise is not None:
        a = a + noise(ns)
    return CenterSequence(Family.ALL_POLYGONS, a / mt.APPROXIMANT_SCALE)


class TestApproximantFit:
    def test_exact_model_recovery(self):
        seq = _synthetic_sequence(1000, 0.7, 3.0 - 2.0j)
        frame, _ = mt.fit_motion_to_approximant(seq, (500, 1000))
        assert abs(frame.K - mt.APPROXIMANT_SCALE * cmath.exp(-0.7j) / mt.NORMALIZATION) < 1e-10
        assert abs(mt.APPROXIMANT_SCALE) * abs(frame.z0 - (3.0 - 2.0j) / mt.APPROXIMANT_SCALE) < 1e-10

    def test_noisy_recovery(self):
        noise = lambda ns: np.exp(1j * 0.4) / ns
        seq = _synthetic_sequence(1000, 0.7, 3.0 - 2.0j, noise=noise)
        frame, _ = mt.fit_motion_to_approximant(seq, (500, 1000))
        assert abs(frame.K - mt.APPROXIMANT_SCALE * cmath.exp(-0.7j) / mt.NORMALIZATION) < 5.0 / 501.0

    def test_real_sequence_residual_rate(self, p_fit):
        _, diag = p_fit
        assert diag.residual_slope < -0.5

    def test_window_stability(self, p_seq, p_fit):
        frame, _ = p_fit
        other, _ = mt.fit_motion_to_approximant(p_seq, (1000, 2000))
        assert abs(frame.K - other.K) < 1e-2
        assert abs(mt.APPROXIMANT_SCALE) * abs(frame.z0 - other.z0) < 0.1

    def test_window_too_short(self, p_seq):
        with pytest.raises(ValueError):
            mt.fit_motion_to_approximant(p_seq, (500, 505))

    def test_index_drift_fails(self, p_seq):
        # shifting centres by one index breaks parity alignment
        shifted = CenterSequence(Family.ALL_POLYGONS, p_seq.centers[1:])
        with pytest.raises(mt.FitError):
            mt.fit_motion_to_approximant(shifted, (500, 1000))

    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_index_drift_fails_on_every_window(self, family):
        # one rule from the first index on: centres shifted by an index either way read n*||da/db| - 1| near 1
        seq, first = centers(family, 10001), family.first_index
        later = CenterSequence(family, seq.centers[1:])
        earlier = CenterSequence(family, np.concatenate(([0.0], seq.centers)))  # the polygon before first_index
        for shifted in (later, earlier):
            for window in ((first, first + 7), (20, 60), (100, 200), (100, 10000)):
                with pytest.raises(mt.FitError, match="index drift"):
                    mt.fit_motion_to_approximant(shifted, window)

    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_aligned_windows_pass_the_drift_rule(self, family):
        # every start below 400, ends at +7, +20, 2x, 5x and 10x: aligned centres read at most 0.148 against 0.5
        seq = centers(family, 3990)
        for start in range(family.first_index, 400):
            for end in {start + 7, start + 20, 2 * start, 5 * start, 10 * start}:
                if end - start >= 7:
                    mt.fit_motion_to_approximant(seq, (start, end))


class TestSpiralFit:
    def test_synthetic_points_on_spiral(self):
        # the points are the model's pure A_0 term, so one term fits them to their rounding and more only add noise
        ns = np.arange(Family.ALL_POLYGONS.first_index, 500)
        theta = 0.5 * math.pi * np.log(ns - 0.5) + 0.37
        w = mt.TARGET_SPIRAL.point(theta)
        phi0, c0, a, s = 1.234, 3.5 - 2.25j, mt.APPROXIMANT_SCALE, mt.NORMALIZATION
        truth = mt.SpiralFrame(a * cmath.exp(-1j * phi0) / s, c0 / a)
        seq = CenterSequence(Family.ALL_POLYGONS, truth.from_spiral(w))
        frame, _ = mt.fit_motion_to_spiral(seq, (300, 499))
        assert abs(frame.K - truth.K) < 1e-14
        assert abs(a) * abs(frame.z0 - truth.z0) < 5e-9

    def test_window_too_short(self, p_seq):
        with pytest.raises(ValueError):
            mt.fit_motion_to_spiral(p_seq, (500, 510))

    @pytest.mark.parametrize(
        "window", [(100, 200), (500, 1000), (500, 2000), (2500, 5000), (5000, 10000)], ids=lambda w: f"{w[0]}:{w[1]}"
    )
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_spiral_route_recovers_frame(self, family, window):
        # from 4/pi alone, the route lands on FRAMES
        seq = centers(family, window[1])
        committed = mt.FRAMES[family]
        frame, _ = mt.fit_motion_to_spiral(seq, window)
        assert abs(frame.K - committed.K) < 1e-11
        assert abs(frame.z0 - committed.z0) < 1e-6
        if window == (100, 200):  # where the approximant route is still off by its truncated tail
            approx, _ = mt.fit_motion_to_approximant(seq, window)
            assert abs(frame.K - committed.K) < abs(approx.K - committed.K)
            assert abs(frame.z0 - committed.z0) < abs(approx.z0 - committed.z0)

    @pytest.mark.parametrize("window", [(400, 499), (1500, 1999)], ids=lambda w: f"{w[0]}:{w[1]}")
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_spiral_route_narrow_window(self, family, window):
        # on a window spanning less than a factor of 2 the columns are nearly collinear; the term count
        # that balances truncation against amplified rounding keeps z0 near the model's noise there
        committed = mt.FRAMES[family]
        frame, _ = mt.fit_motion_to_spiral(centers(family, window[1]), window)
        assert abs(frame.K - committed.K) < 1e-10
        assert abs(frame.z0 - committed.z0) < 3e-6


def _table(ns, distances):
    ns = np.asarray(ns, dtype=np.int64)
    return mt.DistanceTable(ns, np.asarray(distances, dtype=float))


def _between(table, lo, hi):
    return table.select((table.n >= lo) & (table.n <= hi))


class TestDistanceTable:
    def test_parity_means(self, p_table):
        tail = p_table.select(p_table.n >= 1500)
        means = mt.parity_means(tail.n, tail.distance)
        assert means[Parity.EVEN] == pytest.approx(5.0 / 6.0, abs=5e-3)
        assert means[Parity.ODD] == pytest.approx(7.0 / 12.0, abs=5e-3)

    def test_parity_constancy(self, p_table):
        window = _between(p_table, 1000, 2000)
        assert float(np.std(window.distance[window.n % 2 == 0])) <= 1e-2
        assert float(np.std(window.distance[window.n % 2 == 1])) <= 1e-2

    def test_range_guards(self, p_seq):
        frame = mt.FRAMES[Family.ALL_POLYGONS]
        with pytest.raises(ValueError):
            mt.distance_table(p_seq, frame, 5000)
        with pytest.raises(ValueError):
            mt.distance_table(p_seq, frame, 100, n_min=2)

    def test_records_sorted_with_parities(self, p_table):
        assert p_table.n[0] == 3 and p_table.n.size == 1998
        assert np.all(np.diff(p_table.n) == 1)
        assert np.all(p_table.distance >= 0.0)
        assert np.all(np.isnan(p_table.extrapolated))

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            _table([10, 20, 11, 23], np.ones(4))
        with pytest.raises(ValueError):
            _table([10, 10], np.ones(2))


class TestRichardson:
    def test_exact_linear_tail_eliminated(self):
        ns = np.arange(10, 81)
        out = mt.richardson_extrapolate(_table(ns, 0.25 + 3.0 / ns**2))
        have = ~np.isnan(out.extrapolated)
        assert out.extrapolated[have] == pytest.approx(0.25, abs=1e-12)
        assert np.any(have & (out.n % 2 == 1))
        assert np.any(have & (out.n % 2 == 0))

    def test_partner_parity_respected(self):
        ns = np.array([10, 11, 20, 23])
        out = mt.richardson_extrapolate(_table(ns, 1.0 + 1.0 / ns))
        ext = dict(zip(out.n.tolist(), out.extrapolated.tolist()))
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
        out = mt.richardson_extrapolate(_table(ns, distances))
        np.testing.assert_array_equal(out.extrapolated, np.array(expected))

    def test_extrapolated_headline_values(self, p_table):
        out = mt.richardson_extrapolate(p_table)
        tail = _between(out, 900, 1000)
        means = mt.parity_means(tail.n, tail.extrapolated)
        assert means[Parity.EVEN] == pytest.approx(5.0 / 6.0, abs=1e-3)
        assert means[Parity.ODD] == pytest.approx(7.0 / 12.0, abs=1e-3)


class TestInnerSide:
    def test_constructed_offset_points(self):
        # points 0.1 inside and outside the spiral, measured by distance_table in the identity frame
        thetas = np.linspace(2.0, 8.0, 50)
        base = mt.TARGET_SPIRAL.point(thetas)
        inward = 1j * (mt.GROWTH_RATE + 1j) * base / np.abs((mt.GROWTH_RATE + 1j) * base)  # left of the tangent
        n = np.arange(50)

        def fraction(points):
            seq = CenterSequence(Family.ALL_POLYGONS, points)
            table = mt.distance_table(seq, mt.SpiralFrame(1.0, 0.0), seq.last_index)
            np.testing.assert_allclose(np.abs(table.distance), 0.1, rtol=1e-6)
            return mt.inner_side_fraction(table)

        assert fraction(base + 0.1 * inward) == 1.0
        assert fraction(base - 0.1 * inward) == 0.0
        assert fraction(base + np.where(n % 5 == 0, -0.1, 0.1) * inward) == 0.8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mt.inner_side_fraction(_table([], []))


class TestOddFamilyPipeline:
    def test_approximant_residual_rate(self, q_seq, q_fit):
        frame, diag = q_fit
        ns = np.arange(500, 1001)
        # w*NORMALIZATION - b = exp(-i*phi)*(APPROXIMANT_SCALE*c - (exp(i*phi)*b + translation)), a unit factor
        w = frame.to_spiral(q_seq.slice(500, 1000))
        residual = np.abs(w * mt.NORMALIZATION - approximant(ns, Family.ODD_POLYGONS))
        assert float((ns * residual).max()) < 5.0
        assert diag.residual_slope < -0.9

    def test_index_drift_fails(self, q_seq):
        shifted = CenterSequence(Family.ODD_POLYGONS, q_seq.centers[1:])
        with pytest.raises(mt.FitError):
            mt.fit_motion_to_approximant(shifted, (500, 1000))

    def test_distances_converge(self, q_table):
        tail = q_table.select(q_table.n >= 1500)
        means = mt.parity_means(tail.n, tail.distance)
        assert means[Parity.EVEN] == pytest.approx(7.0 / 24.0, abs=5e-3)
        assert means[Parity.ODD] == pytest.approx(7.0 / 24.0, abs=5e-3)
