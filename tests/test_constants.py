"""The per-family spiral frames, the growth-rate correction, and the accuracy they give.

TestLiterals recomputes every float constant that metrics commits and is the
recipe for regenerating them: on a mismatch the assertion message prints
the correctly rounded values to paste into metrics.FRAMES and
metrics.GROWTH_RATE_ERROR.
"""

import cmath
import functools
import math

import pytest
from mpmath import mp, mpc, mpf

import oracle
from polyspiral import metrics as mt
from polyspiral.asymptotics import APPROXIMANTS
from polyspiral.cli import main
from polyspiral.geometry import Family, centers

#: Every fifth index of this window feeds the translation fit (both parities, ~1 s per family).
WINDOW, STRIDE = (2500, 5000), 5
#: Tail terms t^(i*pi/2) * t^-k, k = 0..TAIL_ORDER, each with a parity-alternating twin.
TAIL_ORDER = 4
#: Side counts up to index WINDOW[1], from the polygon centred at 0: the n-gon, and the (2n+1)-gon.
SIDES = {Family.ALL_POLYGONS: range(2, WINDOW[1] + 1), Family.ODD_POLYGONS: range(3, 2 * WINDOW[1] + 2, 2)}


def least_squares(columns: list, rhs: list) -> list:
    """Coefficients x minimizing |sum_j x_j columns[j] - rhs|, by modified Gram-Schmidt QR."""
    q, r = [], [[0] * len(columns) for _ in columns]
    for j, v in enumerate(columns):
        for i in range(j):
            r[i][j] = mp.fdot(v, q[i], conjugate=True)
            v = [a - r[i][j] * b for a, b in zip(v, q[i])]
        r[j][j] = mp.sqrt(mp.fdot(v, v, conjugate=True).real)
        q.append([a / r[j][j] for a in v])
    y = [mp.fdot(rhs, qj, conjugate=True) for qj in q]
    x = [0] * len(columns)
    for j in reversed(range(len(columns))):
        x[j] = (y[j] - mp.fsum(r[j][i] * x[i] for i in range(j + 1, len(columns)))) / r[j][j]
    return x


def rotation(family: Family):
    """phi_f in closed form: (pi/2)(gamma + ln 2), plus (pi/4) ln 2 for the odd family."""
    phi = mp.pi / 2 * (mp.euler + mp.ln(2))
    return phi + mp.pi / 4 * mp.ln(2) if family is Family.ODD_POLYGONS else phi


def frame(family: Family) -> tuple:
    """(K_f, z_f) at 60 digits; see metrics.SpiralFrame."""
    lo, hi = WINDOW
    centers = oracle.centers(SIDES[family])[lo - family.first_index :]
    scale, shift, b_even, b_odd = (mpf(x.numerator) / x.denominator for x in APPROXIMANTS[family])
    with mp.workdps(60):
        unit = mpc(1, mp.pi / 4)
        approximant_scale = 2 * mp.pi * unit
        phi = rotation(family)
        leading = mp.expj(phi) * mp.power(scale, unit) / approximant_scale
        rhs, columns = [], [[] for _ in range(1 + 2 * (TAIL_ORDER + 1))]
        for n in range(lo, hi + 1, STRIDE):
            t = n - shift
            twist = mp.expj(mp.pi / 2 * mp.ln(t))
            b = b_even if n % 2 == 0 else b_odd
            approximant = twist * (t * t + unit * (t + mpc(mpf(1) / 4, b * mp.pi / 4)))
            rhs.append(centers[n - lo] - leading * approximant)
            columns[0].append(mpc(1))
            tail = twist
            for k in range(TAIL_ORDER + 1):
                columns[1 + 2 * k].append(tail)
                columns[2 + 2 * k].append(tail if n % 2 == 0 else -tail)
                tail *= mpf(lo) / t  # columns scaled by (lo/t)^k
        z = least_squares(columns, rhs)[0]
        k = approximant_scale * mp.expj(-phi) / mp.power(abs(approximant_scale), unit)
    return k, z


def within_ulp(literal: complex, value) -> bool:
    return all(abs(a - float(b)) <= math.ulp(float(b)) for a, b in ((literal.real, value.real), (literal.imag, value.imag)))


class TestLiterals:
    @pytest.mark.parametrize("family", list(Family))
    def test_frame(self, family):
        k, z = frame(family)
        literal = mt.FRAMES[family]
        recipe = f"SpiralFrame({complex(k)!r}, {complex(z)!r})"
        assert within_ulp(literal.K, k), f"K_f of {family}: use {recipe}"
        assert within_ulp(literal.z0, z), f"z_f of {family}: use {recipe}"

    def test_growth_rate_error(self):
        with mp.workdps(60):
            error = mpf(mt.GROWTH_RATE) - 4 / mp.pi
        assert abs(mt.GROWTH_RATE_ERROR - float(error)) <= math.ulp(float(error)), f"use {float(error)!r}"


@functools.cache
def long_sequence(family: Family):
    """One 50000-centre sequence per family, shared by every window of TestFitCrossCheck."""
    return centers(family, 50_000)


class TestFitCrossCheck:
    @pytest.mark.parametrize("window", [(2_500, 5_000), (5_000, 10_000), (25_000, 50_000)], ids=lambda w: "%d:%d" % w)
    @pytest.mark.parametrize("family", Family, ids=lambda family: f"{family}-centers_{family.value}")
    def test_fit_recovers_closed_rotation(self, family, window):
        lo, hi = (i - family.first_index for i in window)
        frame, _ = mt.fit_motion_to_approximant(family, window, long_sequence(family)[lo : hi + 1])
        with mp.workdps(30):
            phi = float(rotation(family))
        assert abs(frame.K - mt.APPROXIMANT_SCALE * cmath.exp(-1j * phi) / mt.NORMALIZATION) <= 1e-14
        assert abs(frame.K - mt.FRAMES[family].K) <= 1e-14
        assert abs(frame.z0 - mt.FRAMES[family].z0) <= 1e-7


def summary(capsys, *argv) -> dict[str, float]:
    assert main(["distances", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    return dict((key[2:], float(value)) for key, value in (line.split("=") for line in lines if line.startswith("# ")))


TARGETS = {"all": {"even": 5 / 6, "odd": 7 / 12}, "odd": {"even": 7 / 24, "odd": 7 / 24}}


class TestAccuracy:
    def test_raw_means_at_1e5(self, capsys):
        # without the fl(4/pi) correction both means are off by ~7e-7
        means = summary(capsys, "--n-max", "100000")
        for parity, target in TARGETS["all"].items():
            assert abs(means[f"raw_mean_{parity}"] - target) < 3e-7

    @pytest.mark.parametrize("family", ["all", "odd"])
    def test_extrapolated_means_at_4000(self, capsys, family):
        means = summary(capsys, "--family", family, "--n-max", "4000", "--extrapolate")
        for parity, target in TARGETS[family].items():
            assert abs(means[f"extrapolated_mean_{parity}"] - target) < 1e-8

    @pytest.mark.parametrize("family", ["all", "odd"])
    def test_extrapolation_gains_tenfold_at_2000(self, capsys, family):
        means = summary(capsys, "--family", family, "--n-max", "2000", "--extrapolate")
        for parity, target in TARGETS[family].items():
            raw = abs(means[f"raw_mean_{parity}"] - target)
            assert abs(means[f"extrapolated_mean_{parity}"] - target) * 10 <= raw
