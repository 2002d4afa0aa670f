"""Command-line surface: sequence dumps, verification suites, motion fits,
convergence tables and SVG figures.

Exit codes: 0 all good, 1 check or fit failure, 2 usage error, 3 I/O error.
CSV and text output write floats as format(x, ".15g"), JSON as repr (the
shortest text that reads back as the same float), so identical
configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import floattext, verify
from .asymptotics import Parity, limit_distance
from .geometry import CenterSequence, Family, build_chain, centers_all, centers_odd
from .metrics import (
    FRAMES,
    DistanceTable,
    FitError,
    TARGET_SPIRAL,
    distance_table,
    fit_motion_to_approximant,
    fit_motion_to_spiral,
    inner_side_fraction,
    parity_means,
    richardson_extrapolate,
)
from .spiral import BLOCK
from .svgout import scene_from_chain

MAX_N = 10**6
FORMATS = ("csv", "json")

_PARITY = (Parity.EVEN.value, Parity.ODD.value)


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    family: Family = Family.ALL_POLYGONS
    n_max: int = 100
    window: tuple[int, int] | None = None
    fmt: str = "csv"
    out: str | None = None
    extrapolate: bool = False
    overlay: bool = False

    @property
    def first_index(self) -> int:
        return 3 if self.family is Family.ALL_POLYGONS else 2

    def validate(self) -> None:
        first = self.first_index
        if not first <= self.n_max <= MAX_N:
            raise UsageError(f"--n-max must be in [{first}, {MAX_N}]")
        if self.fmt not in FORMATS:
            raise UsageError(f"format must be one of {list(FORMATS)}, not {self.fmt!r}")

    def fit_window(self) -> tuple[int, int]:
        """The window of fit; only fit reads it, so only fit checks it against n_max."""
        first = self.first_index
        if self.window is not None:
            lo, hi = self.window
            if not (first <= lo < hi <= self.n_max):
                raise UsageError(f"--window must satisfy {first} <= A < B <= n_max")
            return self.window
        return max(first, self.n_max // 4), min(self.n_max, max(first + 1, self.n_max // 2))


def _fmt(x: float) -> str:
    return f"{x + 0.0:.15g}"  # fold -0.0 into 0


def _parse_window(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError as exc:
        raise UsageError(f"bad window {text!r}; expected A:B") from exc


#: The keys a config file may hold; each command reads only those it needs.
_CONFIG_KEYS = ("family", "n_max", "window", "format", "out", "extrapolate")


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise IOError(f"cannot read config {args.config}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"bad config file {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError(f"bad config file {args.config}: expected a JSON object")
        try:
            unknown = sorted(data.keys() - _CONFIG_KEYS)
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r}; choose from {list(_CONFIG_KEYS)}")
            if "family" in data:
                cfg.family = Family(data["family"])
            if "n_max" in data:
                if type(data["n_max"]) is not int:  # also rejects true/false
                    raise ValueError(f"n_max must be a JSON integer, not {data['n_max']!r}")
                cfg.n_max = data["n_max"]
            if "window" in data:
                w = data["window"]
                lo, hi = w.split(":") if isinstance(w, str) else w
                if not isinstance(w, str) and (type(lo) is not int or type(hi) is not int):  # also rejects true/false
                    raise ValueError(f"window bounds must be JSON integers, not {w!r}")
                cfg.window = int(lo), int(hi)
            if "format" in data:
                cfg.fmt = str(data["format"])
            if "out" in data:
                if not isinstance(data["out"], str):
                    raise ValueError(f"out must be a JSON string, not {data['out']!r}")
                cfg.out = data["out"]
            if "extrapolate" in data:
                if not isinstance(data["extrapolate"], bool):
                    raise ValueError(f"extrapolate must be a JSON boolean, not {data['extrapolate']!r}")
                cfg.extrapolate = data["extrapolate"]
        except (AttributeError, TypeError, ValueError) as exc:
            raise UsageError(f"bad config file {args.config}: {exc}") from exc

    if getattr(args, "family", None) is not None:
        cfg.family = Family(args.family)
    if getattr(args, "n_max", None) is not None:
        cfg.n_max = args.n_max
    if getattr(args, "window", None) is not None:
        cfg.window = _parse_window(args.window)
    if getattr(args, "format", None) is not None:
        cfg.fmt = args.format
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    if getattr(args, "extrapolate", False):
        cfg.extrapolate = True
    if getattr(args, "overlay", False):
        cfg.overlay = True
    cfg.validate()
    return cfg


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


def _write_table(cfg: RunConfig, command: str, columns, csv_header: str, doc: dict, footer: str = "") -> None:
    """A CSV header, rows and footer, or json.dumps(doc) with the rows as its "records"."""
    rows = _ROWS[command, cfg.fmt]
    if cfg.fmt == "csv":
        _write(cfg.out, csv_header, footer, rows, columns)
    else:
        head, tail = json.dumps({**doc, "records": []}, indent=2, sort_keys=True).split('"records": []')
        _write(cfg.out, head + '"records": [\n', "\n  ]" + tail + "\n", rows, columns, ",\n")


def _sequence(cfg: RunConfig) -> CenterSequence:
    if cfg.family is Family.ALL_POLYGONS:
        return centers_all(cfg.n_max)
    return centers_odd(cfg.n_max)


def cmd_centers(cfg: RunConfig) -> int:
    seq = _sequence(cfg)
    assert np.isfinite(seq.centers).all()
    columns = (np.arange(seq.first_index, seq.last_index + 1), seq.centers.real, seq.centers.imag)
    _write_table(cfg, "centers", columns, "n,re,im\n", {"family": cfg.family.value})
    return 0


def cmd_verify(cfg: RunConfig, suites: list[str]) -> int:
    names = sorted(verify.SUITES) if suites == ["all"] else suites
    for name in names:
        if name not in verify.SUITES:
            raise UsageError(f"unknown suite {name!r}; choose from {sorted(verify.SUITES)} or 'all'")
    lines = []
    failed = False
    for name in names:
        for result in verify.run_suite(name):  # looked up per call: perfbench/tracer.py wraps it
            failed |= not result.passed
            status = "PASS" if result.passed else "FAIL"
            lines.append(f"{status} {name}/{result.name} margin={_fmt(result.margin)} ({result.detail})")
    _write(cfg.out, "\n".join(lines) + "\n")
    return 1 if failed else 0


def cmd_fit(cfg: RunConfig, route: str) -> int:
    seq = _sequence(cfg)
    window = cfg.fit_window()
    try:
        motion, diag = fit_motion_to_approximant(seq, window)
        if route == "spiral":
            motion, diag = fit_motion_to_spiral(seq, window, init=motion)
    except ValueError as exc:  # the fits reject windows too short for them
        raise UsageError(f"fit window {window[0]}:{window[1]}: {exc}") from exc
    info = {
        "route": route,
        "window": list(window),
        "rotation": motion.rotation,
        "translation_re": motion.translation.real,
        "translation_im": motion.translation.imag,
        "residual_max": diag.residual_max,
        "residual_slope": diag.residual_slope,
        "objective": diag.objective,
        "evaluations": diag.evaluations,
        "parity_mean": {p.value: v for p, v in diag.per_parity_mean.items()},
    }
    _write(cfg.out, json.dumps(info, indent=2, sort_keys=True) + "\n")
    return 0


def _summary(cfg: RunConfig, table: DistanceTable) -> list[tuple[str, float]]:
    targets = {parity: limit_distance(cfg.family, parity) for parity in Parity}
    raw = parity_means(table.select(table.n >= int(0.8 * table.n[-1])))
    pairs = []
    for parity, mean in raw.items():
        pairs.append((f"raw_mean_{parity.value}", mean))
        pairs.append((f"target_{parity.value}", targets[parity]))
    if cfg.extrapolate:
        have = table.n[~np.isnan(table.extrapolated)]
        if len(have):
            ext = parity_means(table.select(table.n >= int(0.8 * have[-1])), extrapolated=True)
            pairs += [(f"extrapolated_mean_{parity.value}", mean) for parity, mean in ext.items()]
            if Parity.EVEN in ext and Parity.ODD in ext:
                pairs.append(("extrapolated_combined_mean", 0.5 * (ext[Parity.EVEN] + ext[Parity.ODD])))
                pairs.append(("extrapolated_alternation", 0.5 * (ext[Parity.EVEN] - ext[Parity.ODD])))
    if cfg.family is Family.ALL_POLYGONS:
        pairs.append(("target_combined_mean", 0.5 * (targets[Parity.EVEN] + targets[Parity.ODD])))
        pairs.append(("target_alternation", 0.5 * (targets[Parity.EVEN] - targets[Parity.ODD])))
    pairs.append(("inner_side_fraction", inner_side_fraction(table)))
    return pairs


def cmd_distances(cfg: RunConfig) -> int:
    table = distance_table(_sequence(cfg), FRAMES[cfg.family], cfg.n_max)
    if cfg.extrapolate:
        table = richardson_extrapolate(table)
    summary = _summary(cfg, table)
    assert np.isfinite(table.distance).all() and not np.isinf(table.extrapolated).any()
    columns = (table.n, table.distance, table.extrapolated)
    footer = "".join(f"# {key}={_fmt(value)}\n" for key, value in summary)
    _write_table(cfg, "distances", columns, "n,parity,distance,extrapolated\n", {"summary": dict(summary)}, footer)
    return 0


def cmd_render(cfg: RunConfig) -> int:
    if cfg.family is not Family.ALL_POLYGONS:
        raise UsageError("render only draws the all-polygon chain")
    if cfg.n_max > 100:
        raise UsageError("render is limited to --n-max <= 100")
    chain = build_chain(cfg.n_max)
    spiral_samples = None
    if cfg.overlay:
        frame = FRAMES[Family.ALL_POLYGONS]
        thetas = distance_table(centers_all(cfg.n_max), frame, cfg.n_max).theta
        grid = np.linspace(thetas.min() - 0.5 * math.pi, thetas.max() + 0.5 * math.pi, 600)
        spiral_samples = frame.from_spiral(TARGET_SPIRAL.point(grid))
    scene = scene_from_chain(chain, spiral_samples)
    _write(cfg.out, scene.to_svg())
    return 0


#: Every option of the CLI, by flag.
_OPTIONS = {
    "--family": dict(choices=[f.value for f in Family]),
    "--n-max": dict(dest="n_max", type=int),
    "--window": dict(metavar="A:B"),
    "--route": dict(choices=["approximant", "spiral"], default="approximant"),
    "--format": dict(choices=FORMATS),
    "--extrapolate": dict(action="store_true"),
    "--overlay": dict(action="store_true"),
    "--out": dict(metavar="PATH"),
    "--config": dict(metavar="PATH"),
}

#: Each subcommand's help and the options it reads besides --out and --config.
_COMMANDS = {
    "centers": ("write the centre sequence", ("--family", "--n-max", "--format")),
    "verify": ("run verification suites", ()),
    "fit": ("fit the rigid motion", ("--family", "--n-max", "--window", "--route")),
    "distances": ("emit the convergence table", ("--family", "--n-max", "--format", "--extrapolate")),
    "render": ("write an SVG figure", ("--n-max", "--overlay")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyspiral", description="Polygon-chain spirals and their limiting distances.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "verify":
            p.add_argument("suites", nargs="+", metavar="SUITE", help=f"{sorted(verify.SUITES)} or 'all'")
        for option in options + ("--out", "--config"):
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "centers":
            return cmd_centers(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.suites)
        if args.command == "fit":
            return cmd_fit(cfg, args.route)
        if args.command == "distances":
            return cmd_distances(cfg)
        if args.command == "render":
            return cmd_render(cfg)
        raise UsageError(f"unknown command {args.command!r}")
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
