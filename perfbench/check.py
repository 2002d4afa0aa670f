"""Output gate for the benchmark.

Each ``check_*`` function validates one CLI output (schema, row count and
values) and returns the accuracy figures the benchmark reports from it.
Any violation raises ``CheckFailed``.  The centre reference is an mpmath
summation of the step series, independent of the program's float64 code.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
from mpmath import mp, mpc, mpf

#: Limiting distances per family and parity (the paper's 5/6, 7/12, 7/24).
TARGETS = {
    "all": {"even": 5.0 / 6.0, "odd": 7.0 / 12.0},
    "odd": {"even": 7.0 / 24.0, "odd": 7.0 / 24.0},
}
FIRST_INDEX = {"all": 3, "odd": 2}

#: Largest accepted |raw parity mean - target|.  At the benchmark's sizes the
#: raw error is 5e-7 to 6e-5, so this only trips on a wrong constant, parity
#: mix-up or failed fit, never on the float64 precision floor.
RAW_TOLERANCE = 1e-3

#: Largest accepted relative error of a printed centre against the mpmath
#: reference; float64 output reaches about 1e-13 at index 4e4.
CENTER_TOLERANCE = 1e-10

#: Printed numbers carry 15 significant digits; summaries recomputed from
#: the printed rows must agree with the printed summary to this relative
#: precision.
PRINT_RTOL = 1e-12


class CheckFailed(Exception):
    """An output violates the CLI's contract or the accuracy gate."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: not a number: {text!r}") from None
    _require(math.isfinite(value), f"{what}: not finite: {text!r}")
    return value


def _lines(text: str) -> list[str]:
    _require(text.endswith("\n"), "output does not end with a newline")
    return text[:-1].split("\n")


def check_distances(text: str, family: str, n_max: int, extrapolate: bool) -> dict[str, float]:
    """Validate ``distances`` CSV output; return raw_err and extrap_err."""
    lines = _lines(text)
    _require(lines[0] == "n,parity,distance,extrapolated", f"bad header {lines[0]!r}")
    first = FIRST_INDEX[family]
    count = n_max - first + 1
    rows, summary_lines = lines[1 : 1 + count], lines[1 + count :]
    _require(len(rows) == count, f"expected {count} rows, got {len(rows)}")

    tail_from = int(0.8 * n_max)
    sums = {"even": [0.0, 0], "odd": [0.0, 0]}
    for expected_n, row in enumerate(rows, start=first):
        fields = row.split(",")
        _require(len(fields) == 4, f"row {expected_n}: expected 4 fields, got {row!r}")
        _require(fields[0] == str(expected_n), f"row {expected_n}: bad index {fields[0]!r}")
        parity = "even" if expected_n % 2 == 0 else "odd"
        _require(fields[1] == parity, f"row {expected_n}: bad parity {fields[1]!r}")
        distance = _float(fields[2], f"row {expected_n} distance")
        _require(distance > 0.0, f"row {expected_n}: nonpositive distance")
        if fields[3]:
            _float(fields[3], f"row {expected_n} extrapolated")
        if expected_n >= tail_from:
            sums[parity][0] += distance
            sums[parity][1] += 1

    summary = {}
    for line in summary_lines:
        _require(line.startswith("# ") and "=" in line, f"bad summary line {line!r}")
        key, value = line[2:].split("=", 1)
        summary[key] = _float(value, key)
    _require(summary.get("inner_side_fraction") == 1.0, f"inner_side_fraction={summary.get('inner_side_fraction')}, expected 1")

    raw_err = extrap_err = 0.0
    for parity, target in TARGETS[family].items():
        _require(f"raw_mean_{parity}" in summary, f"summary lacks raw_mean_{parity}")
        _require(summary.get(f"target_{parity}") == float(f"{target:.15g}"), f"bad target_{parity}")
        raw = summary[f"raw_mean_{parity}"]
        total, n = sums[parity]
        _require(abs(raw - total / n) <= PRINT_RTOL * abs(raw), f"raw_mean_{parity}={raw} disagrees with its rows ({total / n})")
        raw_err = max(raw_err, abs(raw - target))
        if extrapolate:
            _require(f"extrapolated_mean_{parity}" in summary, f"summary lacks extrapolated_mean_{parity}")
            extrap_err = max(extrap_err, abs(summary[f"extrapolated_mean_{parity}"] - target))
    _require(raw_err <= RAW_TOLERANCE, f"raw_err {raw_err:.3e} exceeds {RAW_TOLERANCE:.0e}")
    out = {"raw_err": raw_err}
    if extrapolate:
        out["extrap_err"] = extrap_err
    return out


def _center_columns(ns, re, im, family: str, n_max: int, reference: dict[int, complex]) -> dict[str, float]:
    """Check the index column and finiteness of the centre columns; return center_err."""
    first = FIRST_INDEX[family]
    _require(len(ns) == n_max - first + 1, f"expected {n_max - first + 1} rows, got {len(ns)}")
    _require(bool(np.all(ns == np.arange(first, n_max + 1))), "index column is not first..n_max in order")
    _require(bool(np.all(np.isfinite(re)) and np.all(np.isfinite(im))), "non-finite centre value")
    err = max(abs(complex(re[n - first], im[n - first]) - ref) / abs(ref) for n, ref in reference.items())
    _require(err <= CENTER_TOLERANCE, f"center_err {err:.3e} exceeds {CENTER_TOLERANCE:.0e}")
    return {"center_err": err}


def check_centers_csv(text: str, family: str, n_max: int, reference: dict[int, complex]) -> dict[str, float]:
    """Validate ``centers`` CSV output; return center_err at the reference indices."""
    header = "n,re,im\n"
    _require(text.startswith(header) and text.endswith("\n"), "bad header or missing final newline")
    body = text[len(header) :]
    rows = body.count("\n")
    _require(body.count(",") == 2 * rows, "rows do not all have three fields")
    try:
        cells = np.array(body.replace("\n", ",").split(",")[:-1], dtype=np.float64)
    except ValueError as exc:
        raise CheckFailed(f"non-numeric cell: {exc}") from None
    table = cells.reshape(rows, 3)
    return _center_columns(table[:, 0], table[:, 1], table[:, 2], family, n_max, reference)


def check_centers_json(text: str, family: str, n_max: int, reference: dict[int, complex]) -> dict[str, float]:
    """Validate ``centers --format json`` output; return center_err."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None
    _require(isinstance(payload, dict) and payload.keys() == {"family", "records"}, "bad top-level keys")
    _require(payload["family"] == family, f"bad family {payload['family']!r}")
    records = payload["records"]
    _require(isinstance(records, list) and all(type(r) is dict and r.keys() == {"n", "re", "im"} for r in records), "bad record keys")
    _require(all(type(r["n"]) is int and type(r["re"]) is float and type(r["im"]) is float for r in records), "bad value type")
    columns = [np.array([r[key] for r in records]) for key in ("n", "re", "im")]
    return _center_columns(*columns, family, n_max, reference)


def check_verify(text: str, suites) -> dict[str, float]:
    """Validate ``verify`` output: only PASS lines, and each named suite reported."""
    lines = _lines(text)
    for line in lines:
        _require(line.startswith("PASS ") and " margin=" in line, f"bad verify line {line!r}")
    reported = {line.split()[1].split("/")[0] for line in lines}
    _require(reported >= set(suites), f"suites missing from the report: {sorted(set(suites) - reported)}")
    return {}


def check_render(text: str, n_max: int) -> dict[str, float]:
    """Validate ``render --overlay`` SVG: one polygon and centre per chain entry, one spiral."""
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        raise CheckFailed(f"invalid SVG: {exc}") from None
    ns = "{http://www.w3.org/2000/svg}"
    _require(root.tag == f"{ns}svg", f"root element {root.tag!r}")
    count = n_max - 2
    _require(len(root.findall(f"{ns}polygon")) == count, "bad polygon count")
    _require(len(root.findall(f"{ns}circle")) == count, "bad centre count")
    _require(len(root.findall(f"{ns}polyline")) == 1, "missing spiral overlay")
    return {}


def reference_centers(family: str, indices) -> dict[int, complex]:
    """Centres at the given sequence indices, summed in 30-digit arithmetic.

    All polygons: c_n = sum_{k=2}^{n-1} m_k exp(i pi f_k) with
    m_k = (cot(pi/k) + cot(pi/(k+1))) / 2 and f_k the sum of 1/j over odd
    j <= k.  Odd polygons: c_n = sum_{k=2}^{n} m_k exp(i pi (H_2k - H_k/2))
    with m_k = (cot(pi/(2k-1)) + cot(pi/(2k+1))) / 2.
    """
    want = set(indices)
    _require(min(want) >= FIRST_INDEX[family], "reference index below the first centre")
    out = {}
    with mp.workdps(30):
        total = mpc(0)
        if family == "all":
            frac, half_cot = mpf(0), mpf(0)  # cot(pi/2) = 0
            for k in range(2, max(want)):
                if k == 2:
                    frac += 1  # the j = 1 term
                elif k % 2:
                    frac += mpf(1) / k
                half_cot_next = mp.cot(mp.pi / (k + 1)) / 2
                total += (half_cot + half_cot_next) * mp.expjpi(frac)
                half_cot = half_cot_next
                if k + 1 in want:
                    out[k + 1] = complex(total)
        else:
            h_k, h_2k = mpf(1), mpf(3) / 2  # H_1 and H_2
            half_cot = mp.cot(mp.pi / 3) / 2
            for k in range(2, max(want) + 1):
                h_k += mpf(1) / k
                h_2k += mpf(1) / (2 * k - 1) + mpf(1) / (2 * k)
                half_cot_next = mp.cot(mp.pi / (2 * k + 1)) / 2
                total += (half_cot + half_cot_next) * mp.expjpi(h_2k - h_k / 2)
                half_cot = half_cot_next
                if k in want:
                    out[k] = complex(total)
    return out
