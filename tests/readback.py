"""A reader of `distances` CSV output that recomputes every summary line from the printed rows.

Like tests/oracle.py it is plain Python and imports nothing from polyspiral,
so a summary that disagrees with its own rows cannot hide behind shared
code.  The rules are README's:

- a column's tail is its top fifth, the rows from int(0.8*m) on, m being the
  last index with a value in that column;
- a parity mean is math.fsum of the tail's values of that parity over their
  count, printed only for a parity that has a value;
- with any extrapolated value, the extrapolated means, and where both
  parities have one, their combined mean (e + o)/2 and alternation (e - o)/2;
- the targets 5/6 and 7/12 (all) or 7/24 (odd) beside each raw mean, and
  their combined mean and alternation;
- inner_side_fraction, the share of printed distances above 0.

CI imports it for the MAX_N tables, as tests/test_cli.py does for small ones.
"""

import math

TARGETS = {"all": {"even": 5 / 6, "odd": 7 / 12}, "odd": {"even": 7 / 24, "odd": 7 / 24}}


def read(path):
    """The rows of a distances CSV as their four fields, and its summary lines as {key: value text}."""
    rows, summary = [], {}
    with open(path, encoding="utf-8") as fh:
        assert next(fh) == "n,parity,distance,extrapolated\n"
        for line in fh:
            if line.startswith("# "):
                key, value = line[2:].rstrip("\n").split("=")
                summary[key] = value
            else:
                rows.append(line.rstrip("\n").split(","))
    return rows, summary


def columns(rows):
    """The rows' n, distance and extrapolated columns; an empty extrapolated field reads NaN."""
    ns = [int(n) for n, _, _, _ in rows]
    return ns, [float(d) for _, _, d, _ in rows], [float(x) if x else math.nan for _, _, _, x in rows]


def _tail_means(ns, values):
    have = [(n, v) for n, v in zip(ns, values) if not math.isnan(v)]
    if not have:
        return {}
    lo = int(0.8 * have[-1][0])
    means = {}
    for parity, name in ((0, "even"), (1, "odd")):
        tail = [v for n, v in have if n >= lo and n % 2 == parity]
        if tail:
            means[name] = math.fsum(tail) / len(tail)
    return means


def summary(rows, family):
    """The summary `distances --family family` prints for these rows, recomputed: {key: value}."""
    ns, ds, xs = columns(rows)
    targets = TARGETS[family]
    out = {}
    for parity, mean in _tail_means(ns, ds).items():
        out["raw_mean_" + parity] = mean
        out["target_" + parity] = targets[parity]
    extrapolated = _tail_means(ns, xs)
    out.update(("extrapolated_mean_" + parity, mean) for parity, mean in extrapolated.items())
    if len(extrapolated) == 2:
        out["extrapolated_combined_mean"] = 0.5 * (extrapolated["even"] + extrapolated["odd"])
        out["extrapolated_alternation"] = 0.5 * (extrapolated["even"] - extrapolated["odd"])
    out["target_combined_mean"] = 0.5 * (targets["even"] + targets["odd"])
    out["target_alternation"] = 0.5 * (targets["even"] - targets["odd"])
    out["inner_side_fraction"] = sum(d > 0.0 for d in ds) / len(ds)
    return out


def mismatches(rows, printed, family, rel=1e-12):
    """The keys printed but not recomputed or the other way round, and those whose values differ by more than rel.

    rel is relative to the value, but for an alternation (e - o)/2 to the combined mean (e + o)/2: where the two
    means nearly cancel (odd family, 7e-11 from means of 0.29 at --n-max 240) the rows' 15 printed digits leave
    the difference known only to the means' own rounding.
    """
    want = summary(rows, family)
    bad = sorted(set(printed) ^ set(want))
    size = {k: abs(want[k.replace("alternation", "combined_mean")]) for k in want}
    return bad + [k for k in want if k in printed and not abs(float(printed[k]) - want[k]) <= rel * size[k]]
