"""floattext against Python: every float spelled byte for byte as format(x + 0.0, ".15g") and repr(x).

About 1.3e6 values, chosen where a formatter goes wrong: uniform and
log-uniform magnitudes, 1- to 17-digit decimals, integers ending in zeros
and their neighbours, exact decimal ties, powers of two and ten, the
kernel's range edges, integers up to 2^53 + 2, random bit patterns and
signed zeros.
"""

import math

import numpy as np
import pytest

from polyspiral import floattext

BLOCK = 1 << 16


def g15(v: float) -> str:
    return format(v + 0.0, ".15g")


def both_signs(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, -x])


def neighbours(x: np.ndarray, steps: int = 1) -> np.ndarray:
    out, up, down = [x], x, x
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def decimals(rng, digits: int, count: int) -> np.ndarray:
    """Floats nearest to random `digits`-digit decimals spread over [1e-4, 1e16)."""
    mantissas = rng.integers(10 ** (digits - 1), 10**digits, count).tolist()
    exponents = rng.integers(-3 - digits, 17 - digits, count).tolist()
    return np.array([float(f"{m}e{e}") for m, e in zip(mantissas, exponents)])


def round_integers(rng, count: int) -> np.ndarray:
    """Floats nearest to integers in [1e6, 1e16) ending in 1 to 6 zeros: repr's digits may end left of the units."""
    v = (10.0 ** rng.uniform(6, 16, count)).astype(np.int64)
    zeros = 10 ** rng.integers(1, 7, count)
    return (v - v % zeros).astype(float)


def decimal_ties(rng, count: int) -> np.ndarray:
    """Exact floats u/2^j whose 16 significant digits end in 5, halfway between two 15-digit decimals, and m + 1/2."""
    j = rng.integers(1, 21, count)
    five = 5.0**j
    u = np.floor(rng.uniform(1e15 / five, 1e16 / five)) // 2 * 2 + 1  # odd, and 5^j*u has 16 digits
    ties = np.ldexp(u, -j)
    return np.concatenate([ties, np.arange(count) + 0.5])


#: The kernel's range edges and the float64 range's, whose neighbours are all finite.
EDGES = np.array([1e-4, 1e15, 1e16, 2.0**53, 0.0, 5e-324, 2.2250738585072014e-308, 1e308])

#: Each case's values, from a generator seeded per case.
CASES = {
    "uniform": lambda rng: both_signs(rng.uniform(1e-4, 1e16, 100_000)),
    "log-uniform": lambda rng: both_signs(10.0 ** rng.uniform(-4, 16, 100_000)),
    "decimals": lambda rng: both_signs(
        neighbours(np.concatenate([decimals(rng, d, 4_000) for d in range(1, 18)] + [round_integers(rng, 12_000)]))
    ),
    "ties": lambda rng: both_signs(decimal_ties(rng, 50_000)),
    "powers": lambda rng: both_signs(np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-30, 31)])),
    "edges": lambda rng: both_signs(np.append(neighbours(EDGES, 5), 1.7976931348623157e308)),
    "integers": lambda rng: np.concatenate(
        [np.arange(100_000.0), rng.integers(0, 2**53, 100_000).astype(float), 2.0**53 + np.arange(-100, 3)]
    ),
    "bits": lambda rng: rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
}


def values(case: str) -> np.ndarray:
    return CASES[case](np.random.default_rng(sorted(CASES).index(case)))


def kernel_text(field, x: np.ndarray) -> str:
    return "".join(floattext.rows(((0, field), "\n"), (x[i : i + BLOCK],)) for i in range(0, len(x), BLOCK))


def assert_same(got: str, want: str, x: np.ndarray) -> None:
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got.split("\n"), want.split("\n")) if g != w]
        pytest.fail(f"{len(bad)} values differ, first {bad[:5]}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_python(case):
    x = values(case)
    floats = x.tolist()
    assert_same(kernel_text(floattext.g15, x), "".join(format(v + 0.0, ".15g") + "\n" for v in floats), x)
    assert_same(kernel_text(floattext.shortest, x), "".join(repr(v) + "\n" for v in floats), x)


def test_cases_cover_a_million_values():
    assert sum(len(values(case)) for case in CASES) >= 10**6


#: Rows Python spells beside kernel rows, negative ones among them, in one block.  In the second block every
#: kernel value's sign fits its integer part's leading blank and every fraction leaves a blank at its end.
SPELLED_AND_SIGNED = (
    [math.nan, 1.5, -math.inf, math.inf, -0.0, 1e-5, -1e-5, 1e16, -1e16, -0.6830127018922194, -123456.789, 2.5e-4],
    [-123.5, 456.25, math.nan, -789.125, math.inf, -0.0, 1e-5, 1e16, -2.0, -999.75],
)


def test_nan_text_and_infinities():
    x = np.array([math.nan, 1.5, -math.inf, math.inf, -0.0])
    assert floattext.rows(((0, lambda c: floattext.g15(c, nan="")), ";"), (x,)) == ";1.5;-inf;inf;0;"
    assert floattext.rows(((0, lambda c: floattext.shortest(c, nan="null")), ";"), (x,)) == "null;1.5;-inf;inf;-0.0;"
    for block in SPELLED_AND_SIGNED:
        for field, spell, nan in ((floattext.g15, g15, ""), (floattext.shortest, repr, "null")):
            text = floattext.rows(("[", (0, lambda c: field(c, nan=nan)), "];"), (np.array(block),))
            assert text == "".join(f"[{nan if math.isnan(v) else spell(v)}];" for v in block)


def test_integers_and_words():
    n = np.array([0, 7, 10, 9999, 10**4, 123456789012345, 10**15 - 1])
    assert floattext.rows(((0, floattext.integers), ","), (n,)) == "".join(f"{k}," for k in n.tolist())
    for texts in (["even", "odd"], ["", "odd", "a longer label"]):  # the second mixes word widths
        text = floattext.rows(((0, lambda c: floattext.words(texts, c % len(texts))), "|"), (n,))
        assert text == "".join(texts[k % len(texts)] + "|" for k in n.tolist())


def test_fields_and_literals_interleave():
    n, x = np.array([3, 4]), np.array([-0.6830127018922194, 1e-7])
    template = ("[", (0, floattext.integers), "] ", (1, floattext.shortest), " ~ ", (1, floattext.g15), "\n")
    assert floattext.rows(template, (n, x)) == "[3] -0.6830127018922194 ~ -0.683012701892219\n[4] 1e-07 ~ 1e-07\n"
    for block in SPELLED_AND_SIGNED:
        n = np.arange(len(block)) * 1001
        text = floattext.rows(template + ((1, floattext.g15), ","), (n, np.array(block)))
        want = (f"[{k}] {v!r} ~ {g15(v)}\n{g15(v)}," for k, v in zip(n.tolist(), block))
        assert text == "".join(want)
