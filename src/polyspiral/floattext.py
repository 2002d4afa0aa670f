"""Text rows from numpy columns, byte-identical to Python's ``format(x + 0.0, ".15g")`` and ``repr(x)``.

Spelling one float costs Python about a microsecond, and the CLI writes
tables of a million rows.  This module spells a whole block of floats at
once in numpy, exactly:

* x*10^k, with k = 16 - floor(log10(x)) <= 20 so that 10^k is an exact
  float, is formed as the exact pair hi + lo by Dekker's TwoProduct (1971),
  and then as a 17-digit integer n plus a remainder r in [-1/2, 1/2].
* ``.15g`` text comes from n + r rounded to a multiple of 100, ties to even.
* ``repr`` text drops the most trailing digits j for which a multiple of
  10^j lies in x's rounding interval, scaled by 10^k, as in Adams' Ryu
  (PLDI 2018) and Giulietti's Schubfach (2020): the interval's ends are
  floored once to int64, and floor division by 10 strips a digit from both
  until no row of the block has a multiple left between them.  Two shortest
  decimals are never equally near x, so n + r rounded to a multiple of
  10^j is the nearest, as repr requires.  No candidate ever lies on the
  interval's boundary: for x in [1e-4, 2^53) the boundary x +- ulp/2 is an
  odd multiple of a negative power of two with at least 17 significant
  digits, never a multiple of 10 once scaled; in [2^53, 1e16) it scales to
  ten times an odd integer, while 10x is the multiple of 10 inside.  So
  float()'s rule, that a boundary reads back as x only when x's mantissa
  is even, never decides.
* Python's own ``format``/``repr`` spells what the kernel cannot do
  exactly: zeros, |x| < 1e-4, |x| >= 1e15 for ``.15g`` or 1e16 for
  ``repr`` (the sizes Python writes with an exponent), powers of two,
  whose rounding interval is lopsided, infinities, and ``repr`` digits
  that end left of the units place, as in 28947741720.0.  NaN is written
  as a text the caller names.

Text is laid out in 4-byte words, NUL where nothing is written.  A field
is a list of word columns, one word per row each, with the rows Python
spells written in.  Every digit word comes from one table, ``_DIGITS``, of
the words "0000".."9999": an integer part's groups are masked to their
last digits; a fraction's first group has three digits and the point in
place of its leading "0", and its last nonzero group is masked before its
trailing zeros.  ``rows`` lays a block's literal words and word columns
side by side and drops every NUL.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Union

import numpy as np

#: A field of a block: one word column per word, a uint32 per row.
Field = list
#: A row template item: literal text, or (column index, function from that column to a Field).
Item = Union[str, tuple[int, Callable[[np.ndarray], Field]]]

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter of a binary64 into two 26-bit halves


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


#: 10^k for k = 0..22, each an exact float, and each split into two halves.
_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))
_POW10_HI, _POW10_LO = _split(_POW10)
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)


def _ceil_pow10(j: int) -> float:
    """The smallest float >= 10^j."""
    f = float(f"1e{j}")
    num, den = f.as_integer_ratio()
    return f if num * 10 ** max(-j, 0) >= den * 10 ** max(j, 0) else math.nextafter(f, math.inf)


#: The smallest float >= 10^j for j = -4..17, so a float x >= _CEIL_POW10[j + 4] exactly when x >= 10^j.
_CEIL_POW10 = np.array([_ceil_pow10(j) for j in range(-4, 18)])


def _words(texts: Sequence[str]) -> np.ndarray:
    """texts as rows of NUL-padded words."""
    width = max(1, -(-max(map(len, texts)) // 4))
    padded = np.array([t.encode("ascii") for t in texts], dtype=f"S{4 * width}")
    return padded.view(np.uint32).reshape(len(texts), width)


def _text_words(chars: np.ndarray) -> np.ndarray:
    """Rows of 4 bytes as words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32)[..., 0]


_GROUPS = np.arange(10**4)[:, None]  # every four-digit group g, a column against its four digit places
#: The word of each four-digit group g: "0042" for 42.
_DIGITS = _text_words(48 + _GROUPS // np.array([1000, 100, 10, 1]) % 10)
#: _SHOW_LAST[j, length] keeps the bytes of word j, counted from the right, that an integer of length digits
#: writes: "  42" is _DIGITS[42] & _SHOW_LAST[0, 2].
_SHOW_LAST = _text_words(255 * (np.arange(4) + np.arange(17)[:, None] >= 4 * np.arange(1, 5)[:, None, None]))
#: _TRAILING[g] keeps group g's digits up to its last nonzero one: "42  " is _DIGITS[4200] & _TRAILING[4200].
_TRAILING = _text_words(255 * (_GROUPS % np.array([10**4, 1000, 100, 10]) != 0))
_MINUS = _words(["-"])[0, 0]
_NONE = np.uint32(0)  # the empty word, typed so that np.where keeps a column uint32 on NumPy 1.x too
_ZERO_TO_POINT = _words(["0"])[0, 0] ^ _words(["."])[0, 0]  # turns a word's first byte from "0" into "."
_FIRST_TWO = _text_words([255, 255, 0, 0])  # keeps a word's first two bytes: repr's ".0"


def _exponent(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)) exactly, for floats a in [1e-4, 1e17).

    log10 may land a unit off next to a power of ten; the comparisons with
    _CEIL_POW10 correct it either way.
    """
    e = np.minimum(np.maximum(np.floor(np.log10(a)), -4), 16).astype(np.int64)
    return e - (a < _CEIL_POW10[e + 4]) + (a >= _CEIL_POW10[e + 5])


def _scaled(a, e):
    """(n, r, k): a*10^k = n + r exactly, for k = 16 - e, n an integer of 17 digits and |r| <= 1/2.

    TwoProduct's hi >= 1e16 > 2^53 is an even integer, so n = hi + rint(lo)
    is a*10^k rounded half-even, and r = lo - rint(lo) is exact.
    """
    k = 16 - e
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    q = np.rint(lo)
    return hi.astype(np.int64) + q.astype(np.int64), lo - q, k


def _round_off(n, r, j):
    """(n + r) / 10^j rounded to the nearest integer, ties to even, for integers n and |r| <= 1/2."""
    m = _POW10_INT[j]
    q = n // m
    twice = 2 * (n - q * m)  # n + r lies above q*m + m/2 when twice > m, or twice == m and r > 0
    return q + ((twice > m) | ((twice == m) & ((r > 0) | ((r == 0) & (q & 1 == 1)))))


def _dropped_digits(a, n, r, k):
    """The most trailing digits j of n + r = a*10^k whose multiples of 10^j meet a's rounding interval, scaled.

    h, half an ulp of a times 10^k, r - h and r + h are exact: multiples of
    2^-47 below 2^5.  A multiple of 10^j lies in (n + r - h, n + r + h]
    when floor division by 10^j tells the floored ends apart.
    """
    h = 0.5 * np.spacing(a) * _POW10[k]
    low = n + np.floor(r - h).astype(np.int64)
    high = n + np.floor(r + h).astype(np.int64)
    j = np.zeros_like(n)
    for _ in range(16):
        low, high = low // 10, high // 10
        inside = high > low
        if not inside.any():
            break
        j += inside  # a row with no multiple of 10^j between its ends has none of 10^(j+1)
    return j


def _integer_words(v, length):
    """Word columns of non-negative integers v of length digits, right-aligned."""
    columns = []
    for j in range(-(-int(length.max(initial=1)) // 4)):
        q = v // 10**4
        columns.append(_DIGITS[v - q * 10**4] & _SHOW_LAST[j, length])
        v = q
    return columns[::-1]


def _fraction_words(fraction, k, repr_style):
    """Word columns of the k-digit fractions: ".ddd", then groups of four, trailing zeros blank.

    A zero fraction is written ".0" by repr and not at all by .15g.
    """
    width = (int(k.max(initial=0)) + 4) // 4
    m = np.maximum(k - 11, 0)  # 23 digits, in halves of 11 and 12
    high, low = np.divmod(fraction, _POW10_INT[m])
    halves = [high * _POW10_INT[np.maximum(11 - k, 0)], low * _POW10_INT[12 - m]]
    groups = []
    for v in halves:
        q = v // 10**4
        top = q // 10**4
        groups += [top, q - top * 10**4, v - q * 10**4]
    columns = []
    nonzero_right = np.zeros(len(fraction), bool)
    for j in reversed(range(width)):
        g = groups[j]
        digits, keep = _DIGITS[g], _TRAILING[g]
        if j == 0:  # the first group has three digits: "0ddd" becomes ".ddd", and repr keeps ".0"
            digits, keep = digits ^ _ZERO_TO_POINT, keep | (_FIRST_TWO if repr_style else _NONE)
        columns.append(np.where(nonzero_right, digits, digits & keep))
        nonzero_right |= g != 0
    return columns[::-1]


def _floats(x, repr_style: bool, nan: str) -> Field:
    """The field of g15 (repr_style false) or shortest (true)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    a = np.abs(x)
    kernel = (a >= _CEIL_POW10[0]) & (a < (1e16 if repr_style else 1e15))  # false for NaN
    if repr_style:
        kernel &= (x.view(np.int64) & ((1 << 52) - 1)) != 0  # powers of two
    a = np.where(kernel, a, 1.5)
    n, r, k = _scaled(a, _exponent(a))
    j = _dropped_digits(a, n, r, k) if repr_style else 2  # .15g keeps 15 of the 17 digits
    n, k, p = _round_off(n, r, j), k - j, 17 - j
    carry = n == _POW10_INT[p]  # rounded up to 10^p
    if carry.any():
        n, k = np.where(carry, n // 10, n), k - carry
    length = np.maximum(p - k, 1)  # digits before the decimal point
    kernel &= (k >= 0) & (length <= 16)  # else Python writes an exponent, or k < 0
    n, k, length, neg = np.where(kernel, n, 0), np.where(kernel, k, 0), np.where(kernel, length, 1), (x < 0) & kernel

    integer, fraction = np.divmod(n, _POW10_INT[np.minimum(k, 18)])  # n < 10^17: no integer part past 18 digits
    columns = [np.where(neg, _MINUS, _NONE), *_integer_words(integer, length), *_fraction_words(fraction, k, repr_style)]

    missing = np.isnan(x)
    spelled = np.flatnonzero(~(kernel | missing))
    spell = repr if repr_style else lambda v: format(v + 0.0, ".15g")
    for where, texts in ((np.flatnonzero(missing), [nan]), (spelled, [spell(v) for v in x[spelled].tolist()])):
        if where.size:  # the caller's text for NaN, or Python's, overwrites these rows
            text = _words(texts)
            columns += [np.zeros(len(x), np.uint32) for _ in range(text.shape[1] - len(columns))]
            for i, column in enumerate(columns):
                column[where] = text[:, i] if i < text.shape[1] else 0
    return columns


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
    length = np.maximum(np.searchsorted(_POW10_INT, v, side="right"), 1)  # digits: the powers of ten <= v
    return _integer_words(v, length)


def words(texts: Sequence[str], index: np.ndarray) -> Field:
    """texts[i] for each i in index."""
    return list(_words(texts).T[:, index])


def rows(template: Sequence[Item], columns: Sequence[np.ndarray]) -> str:
    """The template's text for each row of the equal-length columns, concatenated.

    Each literal and each word column of a field is one row of a canvas of
    words; transposed, the canvas holds the text row by row, NUL-padded,
    and dropping every NUL spells it.
    """
    count = len(columns[0]) if columns else 0
    parts = []
    for item in template:
        parts += list(_words([item])[0]) if isinstance(item, str) else item[1](columns[item[0]])
    canvas = np.empty((len(parts), count), np.uint32)
    for row, word in zip(canvas, parts):
        row[...] = word
    canvas = np.ascontiguousarray(canvas.T)  # filling by columns, then transposing, is faster
    return canvas.tobytes().translate(None, b"\0").decode("ascii")
