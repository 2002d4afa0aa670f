"""Text rows from numpy columns, byte-identical to Python's ``format(x + 0.0, ".15g")`` and ``repr(x)``.

Spelling one float costs Python about a microsecond, and the CLI writes
tables of a million rows.  This module spells a whole block of floats at
once in numpy, exactly:

* x*10^k, with 0 <= k <= 22 so that 10^k is an exact float, is formed as
  the exact pair hi + lo by Dekker's TwoProduct (1971) and rounded to the
  nearest integer, ties to even, decided exactly by TwoSum.
* ``.15g`` text comes from the 15-digit integer.
* ``repr`` text comes from the smallest digit count p, searched downward
  from 16 (17 digits always round-trip), whose correctly rounded p-digit
  decimal lies in x's rounding interval, in the spirit of Adams' Ryu
  (PLDI 2018).  Half an ulp times 10^k is exact.  Two shortest decimals
  are never equally near x, so the correctly rounded one is the nearest,
  as repr requires.  No candidate ever lies on the interval's boundary:
  for x in [1e-4, 2^53) the boundary x +- ulp/2 is an odd multiple of a
  negative power of two, with at least 17 significant digits, and in
  [2^53, 1e16) it is an odd integer while the only candidate with k >= 0
  is x itself.  So the rule of float(), that a boundary reads back as x
  only when x's mantissa is even, never decides.
* Python's own ``format``/``repr`` spells what the kernel cannot do
  exactly: zeros, |x| < 1e-4, |x| >= 1e15 for ``.15g`` or 1e16 for
  ``repr`` (the sizes Python writes with an exponent), powers of two,
  whose rounding interval is lopsided, infinities, and ``repr`` digits
  that would need k < 0.  NaN is written as a text the caller names.

Text is laid out in 4-byte words, NUL where nothing is written.  A field
is a list of word columns, each holding one index per row into
``_words_table()``, whose digit groups come with their leading or
trailing zeros blanked and a sign or decimal point beside them, plus
patches that overwrite whole rows with text spelled by Python.  ``rows``
gathers a block's words in one step and drops every NUL.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence, Union

import numpy as np

#: A field of a block: one index column into _words_table() per word, and (rows, words) patches replacing those rows.
Field = tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]
#: A row template item: literal text, or (column index, function from that column to a Field).
Item = Union[str, tuple[int, Callable[[np.ndarray], Field]]]

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter of a binary64 into two 26-bit halves

#: 10^k for k = 0..22, each an exact float, and each split into two halves.
_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)


def _ceil_pow10(j: int) -> float:
    """The smallest float >= 10^j."""
    f = float(f"1e{j}")
    num, den = f.as_integer_ratio()
    return f if num * 10 ** max(-j, 0) >= den * 10 ** max(j, 0) else math.nextafter(f, math.inf)


#: The smallest float >= 10^j for j = -4..17, so a float x >= _CEIL_POW10[j + 4] exactly when x >= 10^j.
_CEIL_POW10 = np.array([_ceil_pow10(j) for j in range(-4, 18)])


#: The tables of _words_table, in order, and their sizes: one word per digit group g, 1000 for the
#: three-digit groups after a decimal point.
_TABLE_SIZES = dict(
    digits=10**4, lead=10**4, neg_lead=10**4, nul=10**4, neg_nul=10**4, trail=10**4,
    dot=1000, dot_trail=1000, dot_trail_repr=1000,
)
#: Where each table starts.
_AT = dict(zip(_TABLE_SIZES, np.cumsum([0, *_TABLE_SIZES.values()]).tolist()))


@functools.cache
def _words_table() -> np.ndarray:
    """Every word a fixed-point number is made of, as uint32; built on first use, so that
    commands writing no rows never hold it.

    The tables, by digit group g:
    digits "0042"; lead "  42", for the group holding the first digit
    ("   0" for 0); neg_lead " -42"; nul "    "; neg_nul "   -", before a
    four-digit first group; trail "42  " for the last nonzero group of a
    fraction ("    " for 0); dot ".042" and dot_trail ".042" with trailing
    zeros blanked (nothing at all for 0, or ".0" in dot_trail_repr).
    """
    g = np.arange(10**4)
    digits = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    zero = [digits[:, j] == 48 for j in range(4)]
    leading = np.zeros_like(digits, dtype=bool)  # the last digit always shows, so zero is written "0"
    leading[:, 0] = zero[0]
    for j in (1, 2):
        leading[:, j] = leading[:, j - 1] & zero[j]
    trailing = np.zeros_like(leading)
    trailing[:, 3] = zero[3]
    for j in (2, 1, 0):
        trailing[:, j] = trailing[:, j + 1] & zero[j]
    lead = np.where(leading, 0, digits)
    neg_lead = lead.copy()
    first = leading[:, 0].astype(int) + leading[:, 1] + leading[:, 2]  # bytes before the first digit
    has_room = first > 0
    neg_lead[g[has_room], first[has_room] - 1] = ord("-")
    trail = np.where(trailing, 0, digits)
    dot = digits[:1000].copy()
    dot[:, 0] = ord(".")
    dot_trail = trail[:1000].copy()
    dot_trail[:, 0] = np.where(g[:1000] > 0, ord("."), 0)
    dot_trail_repr = dot_trail.copy()
    dot_trail_repr[0, :2] = (ord("."), ord("0"))
    nul = np.zeros_like(digits)
    neg_nul = nul.copy()
    neg_nul[:, 3] = ord("-")
    tables = [digits, lead, neg_lead, nul, neg_nul, trail, dot, dot_trail, dot_trail_repr]  # in _TABLE_SIZES order
    return np.concatenate(tables).view(np.uint32)[:, 0]


#: The table of an integer-part word at 6*sign + 1 + r, r = the number's digits minus those right of the word,
#: clipped to -1..4: r <= 0 blank (r = 0 holds the sign of a number whose first group has four digits),
#: 1..3 lead, 4 full.
_INTEGER_TABLE = np.array(
    [_AT["nul"], _AT["nul"], _AT["lead"], _AT["lead"], _AT["lead"], _AT["digits"]]
    + [_AT["nul"], _AT["neg_nul"], _AT["neg_lead"], _AT["neg_lead"], _AT["neg_lead"], _AT["digits"]]
)


def _exponent(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)) exactly, for floats a in [1e-4, 1e17).

    log10 may land a unit off next to a power of ten; the comparisons with
    _CEIL_POW10 correct it either way.
    """
    e = np.minimum(np.maximum(np.floor(np.log10(a)), -4), 16).astype(np.int64)
    return e - (a < _CEIL_POW10[e + 4]) + (a >= _CEIL_POW10[e + 5])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _round_scaled(a, a_hi, a_lo, k):
    """N = a*10^k rounded to the nearest integer, ties to even, and a*10^k - N as the exact sum w + err.

    TwoProduct gives a*10^k = hi + lo exactly.  With f = floor(hi) and
    (s, err) = TwoSum(hi - f, lo), the value is f + s + err; q = rint(s)
    leaves u = s - q in [-1/2, 1/2], exactly, and err is below half an ulp
    of s, so it can only push a remainder of exactly +-1/2 across the half.
    """
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    f = np.floor(hi)
    frac = hi - f
    s = frac + lo
    b = s - frac
    err = (frac - (s - b)) + (lo - b)
    q = np.rint(s)
    u = s - q
    n = f.astype(np.int64) + q.astype(np.int64)
    away = (np.abs(u) == 0.5) & ((err * u > 0) | ((err == 0) & (n & 1 == 1)))
    step = np.where(away, np.sign(u), 0.0)
    return n + step.astype(np.int64), u - step, err


def _inside(w, err, h):
    """Whether |w + err| < h, exactly; |w + err| = h never occurs (see the module docstring)."""
    t = w + err
    b = t - w
    t_err = (w - (t - b)) + (err - b)
    t_err = np.where(t < 0, -t_err, t_err)
    t = np.abs(t)
    return (t < h) | ((t == h) & (t_err < 0))


def _shortest_digits(a, e):
    """(N, k, p): repr's p significant digits N of a = N*10^-k, a in [1e-4, 1e16).

    Rows whose search reaches k < 0 come back with k = -1, to be spelled
    by Python.
    """
    a_hi, a_lo = _split(a)
    half_ulp = 0.5 * np.spacing(a)
    k = 15 - e  # 16 digits
    n, w, err = _round_scaled(a, a_hi, a_lo, k)
    inside = _inside(w, err, half_ulp * _POW10[k])
    p = np.where(inside, 16, 17)
    k += ~inside
    rows = np.flatnonzero(inside)
    for digits in range(15, 0, -1):
        kk = digits - 1 - e[rows]
        stuck = kk < 0
        if stuck.any():
            k[rows[stuck]] = -1
            rows, kk = rows[~stuck], kk[~stuck]
        found, w, err = _round_scaled(a[rows], a_hi[rows], a_lo[rows], kk)
        inside = _inside(w, err, half_ulp[rows] * _POW10[kk])
        rows = rows[inside]
        if not rows.size:
            break
        n[rows], k[rows], p[rows] = found[inside], kk[inside], digits
    rows = np.flatnonzero(p == 17)
    n[rows] = _round_scaled(a[rows], a_hi[rows], a_lo[rows], k[rows])[0]
    return n, k, p


def _integer_words(v, length, neg, width):
    """Index columns of non-negative integers v of length digits, right-aligned in width words, "-" where neg."""
    columns = []
    sign = 6 * neg + 1
    for j in range(width):
        q = v // 10000
        columns.append(_INTEGER_TABLE[np.minimum(np.maximum(length - 4 * j, -1), 4) + sign] + (v - q * 10000))
        v = q
    return columns[::-1]


def _fraction_words(high, low, repr_style):
    """Index columns of a fraction given as 23 digits high*10^12 + low, trailing zeros blank, "." first.

    Only the columns up to the last nonzero digit of any row are
    returned; repr keeps at least ".0".
    """
    groups = []
    for v in (high, low):
        q = v // 10**4
        top = q // 10**4
        groups += [top, q - top * 10**4, v - q * 10**4]
    width = 1 + max((j for j in range(1, 6) if groups[j].any()), default=0)
    if not repr_style and width == 1 and not groups[0].any():
        return []
    columns = []
    nonzero_right = np.zeros(len(high), bool)
    for j in range(width - 1, -1, -1):
        full, trail = ("dot", "dot_trail_repr" if repr_style else "dot_trail") if j == 0 else ("digits", "trail")
        columns.append(np.where(nonzero_right, _AT[full], _AT[trail]) + groups[j])
        nonzero_right |= groups[j] != 0
    return columns[::-1]


def _words(texts: Sequence[str]) -> np.ndarray:
    """texts as rows of NUL-padded words."""
    width = max(1, -(-max(map(len, texts)) // 4))
    padded = np.array([t.encode("ascii") for t in texts], dtype=f"S{4 * width}")
    return padded.view(np.uint32).reshape(len(texts), width)


def _floats(x, repr_style: bool, nan: str) -> Field:
    """The field of g15 (repr_style false) or shortest (true)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    a = np.abs(x)
    kernel = (a >= _CEIL_POW10[0]) & (a < (1e16 if repr_style else 1e15))  # false for NaN
    if repr_style:
        kernel &= (x.view(np.int64) & ((1 << 52) - 1)) != 0  # powers of two
    every = bool(kernel.all())
    if not every:
        a = np.where(kernel, a, 1.5)
    e = _exponent(a)
    if repr_style:
        n, k, p = _shortest_digits(a, e)
    else:
        k, p = 14 - e, 15
        n = _round_scaled(a, *_split(a), k)[0]
    carry = n == _POW10_INT[p]  # rounded up to 10^p
    n = np.where(carry, n // 10, n)
    k = k - carry
    length = np.maximum(p - k, 1)  # digits before the decimal point
    fixed = (k >= 0) & (length <= 16)  # else Python writes an exponent, or k < 0
    if not fixed.all():
        kernel &= fixed
        every = False
    neg = x < 0
    if not every:
        n, k, length, neg = np.where(kernel, n, 0), np.where(kernel, k, 0), np.where(kernel, length, 1), neg & kernel

    kc = np.minimum(k, 18)  # N < 10^17: past 18 fraction digits the integer part is 0
    integer = n // _POW10_INT[kc]
    fraction = n - integer * _POW10_INT[kc]
    m = np.maximum(k - 11, 0)  # the fraction as 23 digits, in halves of 11 and 12
    high = fraction // _POW10_INT[m]
    low = (fraction - high * _POW10_INT[m]) * _POW10_INT[12 - m]
    high *= _POW10_INT[np.maximum(11 - k, 0)]
    width = -(-int((length + neg).max(initial=1)) // 4)
    columns = _integer_words(integer, length, neg.astype(np.int64), width) + _fraction_words(high, low, repr_style)

    patches = []
    if not every:
        missing = np.isnan(x)
        if missing.any():
            patches.append((np.flatnonzero(missing), _words([nan])))
        spelled = np.flatnonzero(~(kernel | missing))
        if spelled.size:
            spell = repr if repr_style else lambda v: format(v + 0.0, ".15g")
            patches.append((spelled, _words([spell(v) for v in x[spelled].tolist()])))
    return columns, patches


def g15(x: np.ndarray, nan: str = "nan") -> Field:
    """format(v + 0.0, ".15g") of each float v in x (so -0.0 is "0"), and nan for NaN."""
    return _floats(x, False, nan)


def shortest(x: np.ndarray, nan: str = "nan") -> Field:
    """repr(v) of each float v in x, and nan for NaN."""
    return _floats(x, True, nan)


def integers(v: np.ndarray) -> Field:
    """str(i) of each integer 0 <= i < 10^15 in v."""
    v = np.asarray(v, dtype=np.int64)
    if len(v) and not (v.min() >= 0 and v.max() < 10**15):
        raise ValueError("integers spells 0 <= i < 10^15 only")
    length = _exponent(np.maximum(v, 1).astype(np.float64)) + 1
    return _integer_words(v, length, 0, -(-int(length.max(initial=1)) // 4)), []


def words(texts: Sequence[str], index: np.ndarray) -> Field:
    """texts[i] for each i in index."""
    return [], [(slice(None), _words(texts)[index])]


def rows(template: Sequence[Item], columns: Sequence[np.ndarray]) -> str:
    """The template's text for each row of the equal-length columns, concatenated."""
    count = len(columns[0]) if columns else 0
    index, patches = [], []
    for item in template:
        start = len(index)
        if isinstance(item, str):
            field_columns, field_patches = [], [(slice(None), _words([item]))]
        else:
            column, field = item
            field_columns, field_patches = field(columns[column])
        width = max([len(field_columns)] + [text.shape[1] for _, text in field_patches])
        index += field_columns + [_AT["nul"]] * (width - len(field_columns))
        patches += [(start, start + width, where, text) for where, text in field_patches]
    gather = np.empty((len(index), count), np.intp)
    for j, column in enumerate(index):
        gather[j] = column
    canvas = np.ascontiguousarray(_words_table()[gather].T)  # gathering by columns, then transposing, is faster
    for start, stop, where, text in patches:
        canvas[where, start : start + text.shape[1]] = text
        canvas[where, start + text.shape[1] : stop] = 0
    chars = canvas.view(np.uint8).ravel()
    return chars[chars != 0].tobytes().decode("ascii")
