import cmath
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracle
from polyspiral import geometry as geo
from polyspiral.geometry import Family

SQRT3 = math.sqrt(3.0)


def exact_harmonic(n):
    return sum(Fraction(1, j) for j in range(1, n + 1))


def exact_alt_harmonic(n):
    return sum(Fraction((-1) ** (j - 1), j) for j in range(1, n + 1))


def steps_all(n_max):
    """Centre steps leaving the 2-gon (centred at 0) through the (n_max-1)-gon."""
    return np.diff(geo.centers(Family.ALL_POLYGONS, n_max).centers, prepend=0.0)


def phase_error(step, angle):
    """Angle between a step and the direction exp(i*angle), in (-pi, pi]."""
    return abs(cmath.phase(step * cmath.exp(-1j * angle)))


def _float_terms():
    """Finite floats of either sign over 2^-30..2^30, so no prefix overflows or underflows."""
    return st.builds(
        lambda m, e, neg: (-m if neg else m) * 2.0**e,
        st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
        st.integers(min_value=-30, max_value=30),
        st.booleans(),
    )


class TestCompensatedCumsum:
    @staticmethod
    def assert_within_sum2_bound(sums, parts):
        eps = np.finfo(float).eps
        for n in range(1, len(parts) + 1):
            exact = math.fsum(parts[:n])
            bound = eps * abs(exact) + (n * eps) ** 2 * math.fsum(abs(t) for t in parts[:n])
            assert abs(sums[n - 1] - exact) <= bound

    @given(st.lists(_float_terms(), min_size=1, max_size=200))
    def test_real_prefixes_match_fsum(self, terms):
        self.assert_within_sum2_bound(geo.compensated_cumsum(np.array(terms)), terms)

    @given(st.lists(st.tuples(_float_terms(), _float_terms()), min_size=1, max_size=200))
    def test_complex_prefixes_match_fsum_per_component(self, pairs):
        re, im = (list(c) for c in zip(*pairs))
        sums = geo.compensated_cumsum(np.array(re) + 1j * np.array(im))
        self.assert_within_sum2_bound(sums.real, re)
        self.assert_within_sum2_bound(sums.imag, im)


#: Side counts up to index 3000, from the polygon centred at 0: the n-gon, and the (2n+1)-gon.
SIDES = {Family.ALL_POLYGONS: range(2, 3001), Family.ODD_POLYGONS: range(3, 6002, 2)}


class TestCentersOracle:
    @pytest.mark.parametrize("family", Family, ids=lambda family: f"centers_{family.value}")
    def test_relative_error_within_four_eps(self, family):
        seq = geo.centers(family, 3000)
        reference = oracle.centers(SIDES[family])
        for n in [*range(family.first_index, 301), 1000, 3000]:
            exact = reference[n - family.first_index]
            err = abs(mpmath.mpc(seq.center(n)) - exact) / abs(exact)
            assert err <= 4 * np.finfo(float).eps, (n, float(err))


class TestSteps:
    def test_magnitude_seed_case(self):
        # cot(pi/2) = 0 leaves only the triangle apothem
        assert abs(steps_all(3)[0]) == pytest.approx(SQRT3 / 6.0, abs=1e-15)

    def test_magnitude_three(self):
        # (1/sqrt(3) + 1) / 2, evaluated independently
        assert abs(steps_all(4)[1]) == pytest.approx(0.78867513459481288, abs=1e-14)

    def test_magnitude_four(self):
        assert abs(steps_all(5)[2]) == pytest.approx(1.1881909602355868, abs=1e-14)

    def test_angle_values(self):
        steps = steps_all(5)
        assert phase_error(steps[0], math.pi) < 1e-15
        assert phase_error(steps[1], 4.0 * math.pi / 3.0) < 1e-14
        assert phase_error(steps[2], 4.0 * math.pi / 3.0) < 1e-14

    @pytest.mark.parametrize("k", [2, 3, 10, 101, 1234])
    def test_angle_matches_harmonic_form(self, k):
        via_sums = 0.5 * math.pi * float(exact_harmonic(k) + exact_alt_harmonic(k))
        assert phase_error(steps_all(k + 1)[k - 2], via_sums) < 1e-11

    def test_angle_rational_oracle(self):
        # H_3 + h_3 = 8/3 exactly
        total = exact_harmonic(3) + exact_alt_harmonic(3)
        assert total == Fraction(8, 3)
        assert phase_error(steps_all(4)[1], math.pi / 2.0 * float(total)) < 1e-14

    def test_magnitude_strictly_increasing_with_linear_limit(self):
        mags = np.abs(steps_all(10_001))
        assert np.all(np.diff(mags) > 0.0)
        k = np.arange(2, 10_001, dtype=float)
        drift = mags - (2.0 * k + 1.0) / (2.0 * math.pi)
        assert abs(drift[-1]) < 1e-3
        assert np.all(np.abs(drift[1:]) < np.abs(drift[:-1]))


class TestCenterSequences:
    def test_seed_center(self):
        seq = geo.centers(Family.ALL_POLYGONS, 3)
        assert abs(seq.center(3) - complex(-SQRT3 / 6.0, 0.0)) < 1e-12

    def test_fourth_center_vs_oracle(self):
        # P_3 + step * exp(i 4 pi / 3), evaluated at 50-digit precision
        seq = geo.centers(Family.ALL_POLYGONS, 4)
        assert abs(seq.center(4) - complex(-0.68301270189221932, -0.68301270189221932)) < 1e-13

    def test_step_equals_magnitude_by_construction(self):
        seq = geo.centers(Family.ALL_POLYGONS, 4)
        apothems = 0.5 / math.tan(math.pi / 3.0) + 0.5 / math.tan(math.pi / 4.0)
        assert abs(abs(seq.center(4) - seq.center(3)) - apothems) < 1e-12

    def test_rejects_small_n_max(self):
        with pytest.raises(ValueError):
            geo.centers(Family.ALL_POLYGONS, 2)
        with pytest.raises(ValueError):
            geo.centers(Family.ODD_POLYGONS, 1)

    def test_step_magnitude_sweep(self, p_seq):
        diffs = np.abs(np.diff(p_seq.centers))
        k = np.arange(3, p_seq.last_index, dtype=float)
        mags = 0.5 * (1.0 / np.tan(np.pi / k) + 1.0 / np.tan(np.pi / (k + 1)))
        scale = np.abs(p_seq.centers[1:])
        # tolerance tracks the ulp of the accumulated magnitude
        tol = 1e-12 + 8.0 * np.finfo(float).eps * scale
        assert np.all(np.abs(diffs - mags) < tol)
        below = p_seq.slice(3, 200)
        assert np.all(np.abs(np.abs(np.diff(below)) - mags[: len(below) - 1]) < 1e-12)

    def test_odd_family_first_term(self):
        seq = geo.centers(Family.ODD_POLYGONS, 2)
        # magnitude (cot(pi/3) + cot(pi/5))/2 and angle pi (H_4 - H_2/2) = 4 pi/3
        assert abs(abs(seq.center(2)) - 0.97686609483039965) < 1e-13
        angle = exact_harmonic(4) - Fraction(1, 2) * exact_harmonic(2)
        assert angle == Fraction(4, 3)
        assert abs(seq.center(2) - complex(-0.48843304741519983, -0.84599085421882459)) < 1e-13

    def test_odd_family_step_magnitudes(self, q_seq):
        k = np.arange(2, q_seq.last_index, dtype=float)
        expected = 0.5 * (1.0 / np.tan(np.pi / (2 * k + 1)) + 1.0 / np.tan(np.pi / (2 * k + 3)))
        diffs = np.abs(np.diff(q_seq.centers))
        tol = 1e-12 + 8.0 * np.finfo(float).eps * np.abs(q_seq.centers[1:])
        assert np.all(np.abs(diffs - expected) < tol)

    def test_slice_and_index_guards(self):
        seq = geo.centers(Family.ALL_POLYGONS, 10)
        assert len(seq) == 8
        with pytest.raises(IndexError):
            seq.center(11)
        with pytest.raises(IndexError):
            seq.slice(2, 5)


class TestChain:
    def test_single_triangle(self):
        chain = geo.build_chain(Family.ALL_POLYGONS, 3)
        assert len(chain) == 1
        assert len(chain[0]) == 3
        assert abs(chain[0].mean() - complex(-SQRT3 / 6.0, 0.0)) < 1e-15

    def test_shared_edge_midpoint_matches_construction(self):
        chain = geo.build_chain(Family.ALL_POLYGONS, 5)
        assert len(chain) == 3
        seq = geo.centers(Family.ALL_POLYGONS, 5)
        tri, square = chain[0], chain[1]
        dist = np.abs(tri[:, None] - square[None, :])
        pairs = np.argwhere(dist < 1e-9)
        assert len(pairs) == 2
        midpoint = tri[pairs[:, 0]].mean()
        apothem = 0.5 / math.tan(math.pi / 3.0)
        expected = seq.center(3) + apothem * np.exp(4j * math.pi / 3.0)
        assert abs(midpoint - expected) < 1e-12

    def test_centroids_match_centers(self):
        chain = geo.build_chain(Family.ALL_POLYGONS, 50)
        seq = geo.centers(Family.ALL_POLYGONS, 50)
        for poly in chain:
            assert abs(complex(poly.mean()) - seq.center(len(poly))) < 1e-9

    @pytest.mark.parametrize("family", Family)
    def test_validation_catches_mirrored_centers(self, family, monkeypatch):
        # the chain is built from edges alone, so centres that bend the wrong way disagree with it
        correct = geo.centers

        def mirrored(family, n_max):
            seq = correct(family, n_max)
            return geo.CenterSequence(family, seq.centers.conj())

        monkeypatch.setattr(geo, "centers", mirrored)
        centroid = [v for v in geo.validate_chain(geo.build_chain(family, 20), family) if v.kind == "centroid"]
        # every polygon but the all family's triangle, whose centre is real
        assert len(centroid) == {Family.ALL_POLYGONS: 17, Family.ODD_POLYGONS: 19}[family]

    @pytest.mark.parametrize("family", Family)
    def test_right_hand_exit_edge_fails_validation(self, family):
        # build_chain's walk, but leaving each odd polygon by the right of its two opposite edges
        first, *rest = family.sides(20).tolist()
        direction = 1j * cmath.exp(-1j * math.pi / first) if first % 2 else 1j
        start = direction * complex(-0.5, 0.5 / math.tan(math.pi / first) if first > 2 else 0.0)
        chain = []
        for m in rest:
            chain.append(start + np.cumsum(direction * np.exp(2j * np.pi * np.arange(m) / m)))
            start = chain[-1][m // 2]
            if m % 2:
                direction *= cmath.exp(-1j * math.pi / m)
        violations = geo.validate_chain(chain, family)
        assert {v.kind for v in violations} == {"centroid"}
        # every polygon but the all family's triangle, whose centre is real
        assert len(violations) == {Family.ALL_POLYGONS: 17, Family.ODD_POLYGONS: 19}[family]

    @pytest.mark.parametrize("family", Family)
    def test_chain_reads_no_centre(self, family, monkeypatch):
        def no_centres(*args):
            raise AssertionError("build_chain read a centre")

        for name in ("centers", "centers_all", "centers_odd", "_centers"):
            monkeypatch.setattr(geo, name, no_centres)
        assert len(geo.build_chain(family, 50)) == 50 - family.first_index + 1

    def test_unit_edges(self):
        chain = geo.build_chain(Family.ALL_POLYGONS, 40)
        for poly in chain:
            lengths = np.abs(np.roll(poly, -1) - poly)
            assert np.max(np.abs(lengths - 1.0)) < 1e-9

    def test_validate_small_and_large(self):
        assert geo.validate_chain(geo.build_chain(Family.ALL_POLYGONS, 3), Family.ALL_POLYGONS) == []
        assert geo.validate_chain(geo.build_chain(Family.ALL_POLYGONS, 100), Family.ALL_POLYGONS) == []

    def test_validate_flags_perturbation(self):
        chain = geo.build_chain(Family.ALL_POLYGONS, 10)
        chain[4][1] += 1e-3
        kinds = {v.kind for v in geo.validate_chain(chain, Family.ALL_POLYGONS)}
        assert "unit-edge" in kinds

    @pytest.mark.parametrize("family", Family)
    def test_validate_is_fast_at_two_thousand(self, family):
        start = time.perf_counter()
        assert geo.validate_chain(geo.build_chain(family, 2000), family) == []
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("vertex", [0, -1])
    def test_validate_flags_moved_shared_vertex(self, vertex):
        chain = geo.build_chain(Family.ALL_POLYGONS, 10)
        chain[4][vertex] += 1e-3
        flagged = {v.polygon for v in geo.validate_chain(chain, Family.ALL_POLYGONS) if v.kind == "shared-edge"}
        assert flagged == {len(chain[3])}

    def test_validate_rejects_empty(self):
        with pytest.raises(ValueError):
            geo.validate_chain([], Family.ALL_POLYGONS)

    def test_rejects_small_n_max(self):
        with pytest.raises(ValueError):
            geo.build_chain(Family.ALL_POLYGONS, 2)
