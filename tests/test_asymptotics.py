import cmath
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyspiral import asymptotics as asym
from polyspiral import geometry as geo
from polyspiral.geometry import Family
from test_geometry import exact_alt_harmonic, exact_harmonic


class TestHarmonicExpansions:
    def test_gamma_bracket(self):
        assert 0.577215 < asym.EULER_GAMMA < 0.577216

    def test_two_sided_bound_at_ten(self):
        value = float(exact_harmonic(10)) - asym.EULER_GAMMA - math.log(10.5)
        lo, hi = asym.detemple_bounds(10)
        assert lo == pytest.approx(1.0 / (24 * 121), abs=1e-18)
        assert hi == pytest.approx(1.0 / 2400, abs=1e-18)
        assert lo < value < hi

    def test_two_sided_bound_at_one(self):
        value = float(exact_harmonic(1)) - asym.EULER_GAMMA - math.log(1.5)
        assert value == pytest.approx(0.017319, abs=1e-6)
        assert 1.0 / 96.0 < value < 1.0 / 24.0

    def test_alt_expansion_at_ten(self):
        expected = math.log(2.0) - 0.05 + 0.0025
        assert asym.alt_harmonic_expansion(10) == pytest.approx(expected, abs=1e-15)
        assert abs(float(exact_alt_harmonic(10)) - asym.alt_harmonic_expansion(10)) < 2e-5

    def test_alt_expansion_tends_to_log_two(self):
        assert asym.alt_harmonic_expansion(10**9) == pytest.approx(math.log(2.0), abs=1e-8)

    def test_alt_residual_cubic_rate_at_hundred(self):
        residual = abs(float(exact_alt_harmonic(100)) - asym.alt_harmonic_expansion(100))
        assert residual <= 2.0 / 100**3

    @pytest.mark.parametrize("func", [asym.alt_harmonic_expansion])
    def test_rejects_nonpositive(self, func):
        with pytest.raises(ValueError):
            func(0)
        with pytest.raises(ValueError):
            func(np.array([3, 0, 5]))

    @pytest.mark.parametrize(
        "func, first",
        [
            (asym.detemple_bounds, 1),
            (asym.alt_harmonic_expansion, 1),
            (lambda t: asym.asymptotic_form(t, 0.25, 43.0 / 6.0), 1),
            *((partial(asym.power_sum_closed, p), 3) for p in (-1, 0, 1)),
            *((lambda n, family=family: asym.approximant(n, family), 1) for family in Family),
        ],
        ids=[
            "detemple_bounds", "alt_harmonic_expansion", "asymptotic_form", "power_sum_closed_p-1",
            "power_sum_closed_p0", "power_sum_closed_p1", "approximant_all", "approximant_odd",
        ],
    )
    def test_arrays_match_scalars(self, func, first):
        # parity comes from the integer index, so odd and even entries of one array differ in sign
        ns = np.arange(first, first + 39)
        vectorized = np.asarray(func(ns))
        for i, n in enumerate(ns):
            np.testing.assert_array_equal(vectorized[..., i], func(int(n)))


class TestBernoulli:
    def test_unit_interval_integrals_vanish(self):
        # the periodic Bernoulli functions in the Euler-Maclaurin remainders have mean zero
        for bern in (asym.B1, asym.B3):
            assert bern.integ()(1.0) - bern.integ()(0.0) == 0

    def test_cubic_endpoint_roots(self):
        assert asym.B3(0.0) == 0.0
        assert asym.B3(1.0) == 0.0

    def test_values(self):
        assert asym.B1(0.75) == pytest.approx(0.25, abs=1e-15)
        assert asym.B3(0.5) == pytest.approx(0.0, abs=1e-15)


def _poly_callables(c0, c1, c2, c3):
    f = lambda t: c0 + c1 * np.asarray(t, float) + c2 * np.asarray(t, float) ** 2 + c3 * np.asarray(t, float) ** 3
    df = lambda t: c1 + 2 * c2 * np.asarray(t, float) + 3 * c3 * np.asarray(t, float) ** 2
    d3f = lambda t: 6 * c3 * np.ones_like(np.asarray(t, float))
    return f, df, d3f


class TestEulerMaclaurin:
    def test_constant_function(self):
        f, df, _ = _poly_callables(1.0, 0.0, 0.0, 0.0)
        value = asym.em_sum_minus_integral(f, df, 0, 5)
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_square_on_unit_interval(self):
        f, df, d3f = _poly_callables(0.0, 0.0, 1.0, 0.0)
        value = asym.em_sum_minus_integral(f, df, 0, 1, d3f)
        # S = 1, I = 1/3: endpoint average 1/2 plus gradient term 1/6
        assert value == pytest.approx(2.0 / 3.0, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
        st.integers(-3, 3), st.integers(1, 9),
    )
    def test_cubic_exactness(self, c0, c1, c2, c3, m, span):
        n = m + span
        f, df, d3f = _poly_callables(c0, c1, c2, c3)
        direct = sum(f(float(i)) for i in range(m, n + 1))
        direct -= sum(c * (n ** (k + 1) - m ** (k + 1)) / (k + 1) for k, c in enumerate((c0, c1, c2, c3)))
        value = asym.em_sum_minus_integral(f, df, m, n, d3f)
        assert value == pytest.approx(direct, abs=1e-11)

    def test_linear_exactness_order_one(self):
        f, df, _ = _poly_callables(0.5, -2.0, 0.0, 0.0)
        direct = sum(f(float(i)) for i in range(2, 9)) - (0.5 * (8 - 2) - 1.0 * (64 - 4))
        assert direct == -9.5
        value = asym.em_sum_minus_integral(f, df, 2, 8)
        assert value == pytest.approx(direct, abs=1e-12)

    def test_complex_power_vs_direct_oracle(self):
        q = 1.0 + asym.LOG_TWIST
        f = lambda t: np.exp(q * np.log(np.asarray(t, float) + 0.5))
        df = lambda t: q * np.exp((q - 1) * np.log(np.asarray(t, float) + 0.5))
        d3f = lambda t: q * (q - 1) * (q - 2) * np.exp((q - 3) * np.log(np.asarray(t, float) + 0.5))
        # direct summation minus exact antiderivative difference, 50-digit oracle
        oracle = complex(29.45931523960457598836964, 41.53949022852972519678096)
        value = asym.em_sum_minus_integral(f, df, 2, 99, d3f)
        assert abs(value - oracle) < 1e-10
        value_one = asym.em_sum_minus_integral(f, df, 2, 99)
        assert abs(value_one - oracle) < 1e-10

    def test_rejects_bad_range_and_missing_derivatives(self):
        f, df, _ = _poly_callables(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            asym.em_sum_minus_integral(f, df, 5, 5)
        with pytest.raises(TypeError):
            asym.em_sum_minus_integral(f, m=0, n=5)


class TestPowerSums:
    def test_single_term(self):
        # prefix[n - 3] is the sum up to k = n - 1; n = 3 is the single term k = 2
        expected = cmath.exp((1 + 0.5j * math.pi) * math.log(2.5))
        assert asym.power_sum_prefix(1, 3)[0] == pytest.approx(expected, abs=1e-15)
        assert asym.power_sum_prefix(1, 3)[0] == pytest.approx(
            complex(0.3277790861614548, 2.4784190264511693), abs=1e-14
        )

    def test_alternating_two_terms(self):
        # signs (+, -) for k = 2, 3
        assert asym.power_sum_prefix(0, 4)[4 - 3] == pytest.approx(
            complex(0.5178011434198642, 0.0691576433474505), abs=1e-14
        )

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            asym.power_sum_prefix(2, 10)
        with pytest.raises(ValueError):
            asym.power_sum_prefix(1, 2)
        with pytest.raises(ValueError):
            asym.power_sum_closed(2, 10)

    def test_closed_form_checks_every_index(self):
        # an index array is checked entry by entry, as a scalar index is
        for p in (-1, 0, 1):
            for n in (2, np.array([1, 2]), np.array([0]), np.array([10, 2, 11])):
                with pytest.raises(ValueError, match="n must be >= 3"):
                    asym.power_sum_closed(p, n)

    def test_alternating_sum_stays_bounded(self):
        prefix = asym.power_sum_prefix(0, 2000)
        assert np.abs(prefix).max() <= 2.0

    def test_closed_alternating_modulus_is_half(self):
        for n in (10, 11, 1000, 1001):
            assert abs(abs(asym.power_sum_closed(0, n)) - 0.5) < 1e-15

    @pytest.mark.parametrize("p", [1, -1])
    def test_pair_differences_decay(self, p):
        prefix = asym.power_sum_prefix(p, 2001)
        ns = np.arange(50, 1001)
        diff = (prefix[2 * ns - 3] - asym.power_sum_closed(p, 2 * ns)) - (
            prefix[ns - 3] - asym.power_sum_closed(p, ns)
        )
        assert float((ns * np.abs(diff)).max()) <= 10.0

    def test_prefix_matches_scalar(self):
        prefix = asym.power_sum_prefix(1, 50)
        direct = sum(cmath.exp((1 + 0.5j * math.pi) * math.log(k + 0.5)) for k in range(2, 47))
        assert prefix[47 - 3] == pytest.approx(direct, abs=1e-12)


class TestApproximant:
    def test_parity_coefficients(self):
        all_family = asym.APPROXIMANTS[Family.ALL_POLYGONS]
        assert all_family == (1, Fraction(1, 2), Fraction(43, 6), Fraction(31, 6))
        assert all_family.b_even - all_family.b_odd == 2
        assert asym.APPROXIMANTS[Family.ODD_POLYGONS] == (2, 0, Fraction(5, 3), Fraction(5, 3))
        assert set(asym.APPROXIMANTS) == set(Family)

    def test_table_is_frozen(self):
        with pytest.raises(TypeError):
            asym.APPROXIMANTS[Family.ODD_POLYGONS] = asym.APPROXIMANTS[Family.ALL_POLYGONS]

    @pytest.mark.parametrize(
        "family, even, odd",
        [(Family.ALL_POLYGONS, Fraction(5, 6), Fraction(7, 12)), (Family.ODD_POLYGONS, Fraction(7, 24), Fraction(7, 24))],
    )
    def test_limit_distances(self, family, even, odd):
        assert asym.limit_distance(family, asym.Parity.EVEN) == float(even)
        assert asym.limit_distance(family, asym.Parity.ODD) == float(odd)

    def test_odd_family_scale_is_spiral_symmetry(self):
        # 2^(1 + i pi/4) doubles the radius and turns by (pi/4) log 2, so it
        # maps r = exp(4 theta/pi) onto itself
        factor = asym.approximant(100, Family.ODD_POLYGONS) / asym.asymptotic_form(100.0, 0.25, 5.0 / 3.0)
        assert abs(factor) == pytest.approx(2.0, abs=1e-15)
        theta = 1.3
        z = cmath.exp((asym.GROWTH_RATE + 1j) * theta)
        assert abs(asym.spiral_gap(factor * z, theta + cmath.phase(factor))) < 1e-14

    def test_odd_family_matches_centres(self):
        # the scaled odd centres step like the approximant up to one fixed
        # rotation: ratios vary by 3.8e-9 here, by 1.4e-8 with b off by 0.01
        # and by 5.7e-4 with the all-family shift t = n - 1/2
        ns = np.arange(500, 1001)
        b = asym.approximant(ns, Family.ODD_POLYGONS)
        centers = geo.centers(Family.ODD_POLYGONS, 1000).slice(500, 1000)
        ratios = np.diff(2.0 * math.pi * asym.UNIT_COEFF * centers) / np.diff(b)
        assert float(np.abs(ratios - ratios.mean()).max()) < 1e-8

    def test_leading_term_dominates(self):
        n = 10**4
        assert abs(asym.approximant(n, Family.ALL_POLYGONS)) / (n - 0.5) ** 2 == pytest.approx(1.0, abs=1e-3)

    def test_matches_family_members(self):
        assert asym.approximant(10, Family.ALL_POLYGONS) == pytest.approx(asym.asymptotic_form(9.5, 0.25, 43.0 / 6.0), abs=1e-12)
        assert asym.approximant(11, Family.ALL_POLYGONS) == pytest.approx(asym.asymptotic_form(10.5, 0.25, 31.0 / 6.0), abs=1e-12)

    def test_vectorized_agrees_with_scalar(self):
        ns = np.array([7, 8, 9])
        for family in Family:
            vec = asym.approximant(ns, family)
            for i, n in enumerate(ns):
                assert vec[i] == pytest.approx(asym.approximant(int(n), family), abs=1e-12)


class TestAsymptoticFamily:
    def test_unit_argument(self):
        assert asym.asymptotic_form(1.0, 0.0, 0.0) == pytest.approx(2.0 + 0.25j * math.pi, abs=1e-15)

    def test_against_high_precision_oracle(self):
        value = asym.asymptotic_form(100.0, 0.25, 43.0 / 6.0)
        oracle = complex(5798.99910750235115518448, 8264.653339169683947377386)
        assert abs(value - oracle) / abs(oracle) < 1e-9

    def test_ratio_tends_to_one(self):
        t = 1e6
        assert abs(asym.asymptotic_form(t, 0.25, 43.0 / 6.0)) / t**2 == pytest.approx(1.0, abs=1e-5)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            asym.asymptotic_form(0.0, 0.0, 0.0)


class TestSpiralGap:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            asym.spiral_gap(0j, 0.0)

    def test_balanced_coefficient_gap_vanishes(self):
        z = asym.asymptotic_form(1e4, 0.3, 0.5)
        assert abs(asym.spiral_gap(z, 0.5 * math.pi * math.log(1e4))) < 1e-3

    def test_even_coefficient_gap(self):
        z = asym.asymptotic_form(1e4, 0.25, 43.0 / 6.0)
        gap = asym.spiral_gap(z, 0.5 * math.pi * math.log(1e4))
        assert gap == pytest.approx(-(20.0 / 3.0) * (1.0 + math.pi**2 / 16.0), abs=1e-2)
        assert asym.gap_limit(43.0 / 6.0) == pytest.approx(-10.779001833787233, abs=1e-12)

    def test_odd_coefficient_gap(self):
        z = asym.asymptotic_form(1e4, 0.25, 31.0 / 6.0)
        gap = asym.spiral_gap(z, 0.5 * math.pi * math.log(1e4))
        assert gap == pytest.approx(-(14.0 / 3.0) * (1.0 + math.pi**2 / 16.0), abs=1e-2)
        assert asym.gap_limit(31.0 / 6.0) == pytest.approx(-7.545301283651063, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-5.0, max_value=12.0))
    def test_points_on_curve_have_zero_gap(self, theta):
        z = cmath.exp(asym.GROWTH_RATE * theta) * cmath.exp(1j * theta)
        assert abs(asym.spiral_gap(z, theta)) < 1e-9 * max(1.0, abs(z))

    def test_unwrapping_follows_hint(self):
        # a point on the curve at 0.3 + 2*pi*k has zero gap only on the branch of its hint
        theta = 0.3 + 2.0 * math.pi * np.array([-2, 0, 3])
        z = np.exp((asym.GROWTH_RATE + 1j) * theta)
        assert np.all(np.abs(asym.spiral_gap(z, theta + 0.4)) <= 1e-12 * np.abs(z))
        next_turn = np.exp(asym.GROWTH_RATE * (theta + 2.0 * math.pi))
        assert np.all(asym.spiral_gap(z, theta + 2.0 * math.pi) < -0.99 * next_turn)

    def test_array_gaps_match_scalar_gaps(self):
        ts = np.geomspace(1e2, 1e5, 7)
        b = np.array([[0.5], [43.0 / 6.0]])
        gaps = asym.spiral_gap(asym.asymptotic_form(ts, 0.25, b), 0.5 * math.pi * np.log(ts))
        assert gaps.shape == (2, 7)
        for i, j in np.ndindex(gaps.shape):
            z = asym.asymptotic_form(ts[j], 0.25, b[i, 0])
            assert gaps[i, j] == asym.spiral_gap(z, 0.5 * math.pi * math.log(ts[j]))
