"""Command-line surface: sequence dumps, verification suites, motion fits,
convergence tables and SVG figures.

Exit codes: 0 all good, 1 check or fit failure, 2 usage error, 3 I/O error.
CSV and text output write floats as format(x, ".15g"), JSON as repr (the
shortest text that reads back as the same float), so identical
arguments produce identical bytes.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import floattext
from .asymptotics import GROWTH_RATE, Parity, limit_distance
from .geometry import Family, build_chain, centers_all, centers_odd
from .metrics import (
    APPROXIMANT_SCALE,
    FRAMES,
    NORMALIZATION,
    FitError,
    distance_table,
    fit_motion_to_approximant,
    fit_motion_to_spiral,
    inner_side_fraction,
    parity_means,
    richardson_extrapolate,
)
from .spiral import BLOCK, nearest_distances, point
from .svgout import scene_from_chain

MAX_N = 10**6
RENDER_MAX_N = 100
FORMATS = ("csv", "json")

_PARITY = (Parity.EVEN.value, Parity.ODD.value)


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x + 0.0:.15g}"  # fold -0.0 into 0


def _parse_window(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError as exc:
        raise UsageError(f"bad window {text!r}; expected A:B") from exc


def fit_window(args: argparse.Namespace) -> tuple[int, int]:
    """fit's window: --window A:B checked against n_max, or a default drawn from n_max."""
    first = Family(args.family).first_index
    if args.window is not None:
        lo, hi = window = _parse_window(args.window)
        if not (first <= lo < hi <= args.n_max):
            raise UsageError(f"--window must satisfy {first} <= A < B <= n_max")
        return window
    return max(first, args.n_max // 4), min(args.n_max, max(first + 1, args.n_max // 2))


def _write(out: str | None, head: str, tail: str = "", row=(), columns=(), sep: str = "") -> None:
    """The CLI's one output path: head, rows, then tail, to out or to stdout.

    row is a floattext template over the numpy columns; floattext.rows
    formats BLOCK rows at a time, joined by sep, and each block is written
    before the next is formatted.  sys.stdout is looked up per call because
    callers swap it (tests, perfbench/tracer.py).  Commands compute
    everything before calling this, so a failed run writes nothing.
    """
    template = (sep, *row) if sep else row
    try:
        with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(head)
            for start in range(0, len(columns[0]) if columns else 0, BLOCK):
                text = floattext.rows(template, [column[start : start + BLOCK] for column in columns])
                fh.write(text if start else text[len(sep) :])
            fh.write(tail)
            fh.flush()
    except OSError as exc:
        raise IOError(f"cannot write {out or 'stdout'}: {exc}") from exc


def _parity(n: np.ndarray) -> floattext.Field:
    return floattext.words(_PARITY, n % 2)


# Row templates of centers and distances over their (n, value, value)
# columns.  CSV floats are written as _fmt does (.15g, -0.0 folded); a JSON
# row is the record json.dumps(indent=2, sort_keys=True) writes inside
# "records", floats as repr.  json.dumps spells NaN and inf unlike repr, so
# the commands assert their columns finite; the one exception is a missing
# extrapolation (NaN), written empty or null.
_ROWS = {
    ("centers", "csv"): ((0, floattext.integers), ",", (1, floattext.g15), ",", (2, floattext.g15), "\n"),
    ("centers", "json"): (
        '    {\n      "im": ', (2, floattext.shortest), ',\n      "n": ', (0, floattext.integers),
        ',\n      "re": ', (1, floattext.shortest), "\n    }",
    ),
    ("distances", "csv"): (
        (0, floattext.integers), ",", (0, _parity), ",", (1, floattext.g15), ",",
        (2, functools.partial(floattext.g15, nan="")), "\n",
    ),
    ("distances", "json"): (
        '    {\n      "distance": ', (1, floattext.shortest),
        ',\n      "extrapolated": ', (2, functools.partial(floattext.shortest, nan="null")),
        ',\n      "n": ', (0, floattext.integers), ',\n      "parity": "', (0, _parity), '"\n    }',
    ),
}


def _write_table(args: argparse.Namespace, command: str, columns, csv_header: str, doc: dict, footer: str = "") -> None:
    """A CSV header, rows and footer, or json.dumps(doc) with the rows as its "records"."""
    rows = _ROWS[command, args.format]
    if args.format == "csv":
        _write(args.out, csv_header, footer, rows, columns)
    else:
        head, tail = json.dumps({**doc, "records": []}, indent=2, sort_keys=True).split('"records": []')
        _write(args.out, head + '"records": [\n', "\n  ]" + tail + "\n", rows, columns, ",\n")


def _sequence(args: argparse.Namespace, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices first_index..n_max of --family and their centres."""
    z = (centers_all if args.family == Family.ALL_POLYGONS.value else centers_odd)(n_max)
    return np.arange(Family(args.family).first_index, n_max + 1), z


def cmd_centers(args: argparse.Namespace) -> int:
    n, z = _sequence(args, args.n_max)
    assert np.isfinite(z).all()
    columns = (n, z.real, z.imag)
    _write_table(args, "centers", columns, "n,re,im\n", {"family": args.family})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # only this command runs the lemma suites
    for name in args.suites:
        if name != "all" and name not in verify.SUITES:
            raise UsageError(f"unknown suite {name!r}; choose from {sorted(verify.SUITES)} or 'all'")
    names = sorted(verify.SUITES) if "all" in args.suites else list(dict.fromkeys(args.suites))
    lines = []
    failed = False
    for name in names:
        for result in verify.run_suite(name):  # looked up per call: perfbench/tracer.py wraps it
            failed |= not result.passed
            status = "PASS" if result.passed else "FAIL"
            lines.append(f"{status} {name}/{result.name} margin={_fmt(result.margin)} ({result.detail})")
    _write(args.out, "\n".join(lines) + "\n")
    return 1 if failed else 0


def cmd_fit(args: argparse.Namespace) -> int:
    window = fit_window(args)
    n, z = _sequence(args, window[1])  # built through hi only: a centre does not depend on how many are built
    fit = {"approximant": fit_motion_to_approximant, "spiral": fit_motion_to_spiral}[args.route]
    try:
        frame, diag = fit(Family(args.family), window, z[n >= window[0]])
    except ValueError as exc:  # the fits reject windows too short for them
        raise UsageError(f"fit window {window[0]}:{window[1]}: {exc}") from exc
    # the frame as APPROXIMANT_SCALE * centre ~ exp(i*rotation) * approximant + translation
    translation = APPROXIMANT_SCALE * frame.z0
    info = {
        "route": args.route,
        "window": list(window),
        "rotation": cmath.phase(APPROXIMANT_SCALE / (NORMALIZATION * frame.K)),
        "translation_re": translation.real,
        "translation_im": translation.imag,
        "residual_max": diag.residual_max,
        "residual_slope": diag.residual_slope,
        "parity_mean": {p.value: v for p, v in diag.per_parity_mean.items()},
    }
    _write(args.out, json.dumps(info, indent=2, sort_keys=True) + "\n")
    return 0


def _summary(
    args: argparse.Namespace, n: np.ndarray, distance: np.ndarray, extrapolated: np.ndarray
) -> list[tuple[str, float]]:
    targets = {parity: limit_distance(Family(args.family), parity) for parity in Parity}
    tail = n >= int(0.8 * n[-1])
    raw = parity_means(n[tail], distance[tail])
    pairs = []
    for parity, mean in raw.items():
        pairs.append((f"raw_mean_{parity.value}", mean))
        pairs.append((f"target_{parity.value}", targets[parity]))
    if args.extrapolate:
        have = n[~np.isnan(extrapolated)]
        if len(have):
            tail = n >= int(0.8 * have[-1])
            ext = parity_means(n[tail], extrapolated[tail])
            pairs += [(f"extrapolated_mean_{parity.value}", mean) for parity, mean in ext.items()]
            if Parity.EVEN in ext and Parity.ODD in ext:
                pairs.append(("extrapolated_combined_mean", 0.5 * (ext[Parity.EVEN] + ext[Parity.ODD])))
                pairs.append(("extrapolated_alternation", 0.5 * (ext[Parity.EVEN] - ext[Parity.ODD])))
    pairs.append(("target_combined_mean", 0.5 * (targets[Parity.EVEN] + targets[Parity.ODD])))
    pairs.append(("target_alternation", 0.5 * (targets[Parity.EVEN] - targets[Parity.ODD])))
    pairs.append(("inner_side_fraction", inner_side_fraction(distance)))
    return pairs


def cmd_distances(args: argparse.Namespace) -> int:
    n, z = _sequence(args, args.n_max)
    distance = distance_table(FRAMES[Family(args.family)], z)
    extrapolated = richardson_extrapolate(n, distance) if args.extrapolate else np.full(len(n), np.nan)
    summary = _summary(args, n, distance, extrapolated)
    assert np.isfinite(distance).all() and not np.isinf(extrapolated).any()
    columns = (n, distance, extrapolated)
    footer = "".join(f"# {key}={_fmt(value)}\n" for key, value in summary)
    _write_table(args, "distances", columns, "n,parity,distance,extrapolated\n", {"summary": dict(summary)}, footer)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    scene = scene_from_chain(build_chain(Family.ALL_POLYGONS, args.n_max))
    if args.overlay:
        frame = FRAMES[Family.ALL_POLYGONS]
        _, thetas = nearest_distances(GROWTH_RATE, frame.to_spiral(np.array(scene.centers)))
        grid = np.linspace(thetas.min() - 0.5 * math.pi, thetas.max() + 0.5 * math.pi, 600)
        scene.spiral = frame.from_spiral(point(GROWTH_RATE, grid))
    _write(args.out, scene.to_svg())
    return 0


#: Every option of the CLI, by flag.
_OPTIONS = {
    "--family": dict(choices=[f.value for f in Family], default=Family.ALL_POLYGONS.value),
    "--n-max": dict(dest="n_max", type=int, default=100),
    "--window": dict(metavar="A:B"),
    "--route": dict(choices=["approximant", "spiral"], default="approximant"),
    "--format": dict(choices=FORMATS, default="csv"),
    "--extrapolate": dict(action="store_true"),
    "--overlay": dict(action="store_true"),
    "--out": dict(metavar="PATH"),
}

#: Each subcommand's function, help and the options it reads besides --out.
_COMMANDS = {
    "centers": (cmd_centers, "write the centre sequence", ("--family", "--n-max", "--format")),
    "verify": (cmd_verify, "run verification suites", ()),
    "fit": (cmd_fit, "fit the rigid motion", ("--family", "--n-max", "--window", "--route")),
    "distances": (cmd_distances, "emit the convergence table", ("--family", "--n-max", "--format", "--extrapolate")),
    "render": (cmd_render, "write an SVG figure", ("--n-max", "--overlay")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyspiral", description="Polygon-chain spirals and their limiting distances.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "verify":
            p.add_argument("suites", nargs="+", metavar="SUITE", help="a suite name, or 'all'")
        for option in options + ("--out",):
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "n_max" in args:  # render has no --family: it draws the all-polygon chain
            first = Family(getattr(args, "family", Family.ALL_POLYGONS.value)).first_index
            last = RENDER_MAX_N if args.command == "render" else MAX_N
            if not first <= args.n_max <= last:
                raise UsageError(f"--n-max must be in [{first}, {last}]")
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 1
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
