"""Command-line surface: sequence dumps, verification suites, motion fits,
convergence tables and SVG figures.

Exit codes: 0 all good, 1 check or fit failure, 2 usage error, 3 I/O error.
Numbers are printed with at most 15 significant digits so identical
configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import verify
from .asymptotics import Parity, limit_distance
from .geometry import CenterSequence, Family, build_chain, centers_all, centers_odd
from .metrics import (
    APPROXIMANT_SCALE,
    DistanceTable,
    FitError,
    NORMALIZATION_MODULUS,
    RigidMotion,
    TARGET_SPIRAL,
    distance_table,
    fit_motion_to_approximant,
    fit_motion_to_spiral,
    inner_side_fraction,
    parity_means,
    richardson_extrapolate,
)
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
    tolerances: dict[str, float] = field(default_factory=dict)

    @property
    def first_index(self) -> int:
        return 3 if self.family is Family.ALL_POLYGONS else 2

    def validate(self) -> None:
        first = self.first_index
        if not first <= self.n_max <= MAX_N:
            raise UsageError(f"--n-max must be in [{first}, {MAX_N}]")
        if self.window is not None:
            lo, hi = self.window
            if not (first <= lo < hi <= self.n_max):
                raise UsageError(f"--window must satisfy {first} <= A < B <= n_max")
        if self.fmt not in FORMATS:
            raise UsageError(f"format must be one of {list(FORMATS)}, not {self.fmt!r}")

    def fit_window(self) -> tuple[int, int]:
        if self.window is not None:
            return self.window
        first = self.first_index
        return max(first, self.n_max // 4), min(self.n_max, max(first + 1, self.n_max // 2))


def _fmt(x: float) -> str:
    return f"{x + 0.0:.15g}"  # fold -0.0 into 0


def _parse_window(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError as exc:
        raise UsageError(f"bad window {text!r}; expected A:B") from exc


def _tolerance(name: str, value) -> tuple[str, float]:
    if name not in verify.DEFAULT_TOLERANCES:
        raise UsageError(f"unknown tolerance {name!r}; choose from {sorted(verify.DEFAULT_TOLERANCES)}")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value {value!r} for tolerance {name!r}") from exc
    if not math.isfinite(number):
        raise UsageError(f"tolerance {name!r} must be finite, not {value!r}")
    return name, number


def _parse_tolerance(pairs: list[str]) -> dict[str, float]:
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"bad tolerance {pair!r}; expected NAME=VALUE")
    return dict(_tolerance(*pair.split("=", 1)) for pair in pairs)


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise IOError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad config file {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError(f"bad config file {args.config}: expected a JSON object")
        try:
            if "family" in data:
                cfg.family = Family(data["family"])
            if "n_max" in data:
                if type(data["n_max"]) is not int:  # also rejects true/false
                    raise ValueError(f"n_max must be a JSON integer, not {data['n_max']!r}")
                cfg.n_max = data["n_max"]
            if "window" in data:
                w = data["window"]
                lo, hi = w.split(":") if isinstance(w, str) else w
                cfg.window = int(lo), int(hi)
            if "format" in data:
                cfg.fmt = str(data["format"])
            if "out" in data:
                cfg.out = str(data["out"])
            if "extrapolate" in data:
                if not isinstance(data["extrapolate"], bool):
                    raise ValueError(f"extrapolate must be a JSON boolean, not {data['extrapolate']!r}")
                cfg.extrapolate = data["extrapolate"]
            if "tolerances" in data:
                cfg.tolerances.update(_tolerance(k, v) for k, v in data["tolerances"].items())
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
    if getattr(args, "tolerance", None):
        cfg.tolerances.update(_parse_tolerance(args.tolerance))
    cfg.validate()
    return cfg


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {out}: {exc}") from exc


def _sequence(cfg: RunConfig) -> CenterSequence:
    if cfg.family is Family.ALL_POLYGONS:
        return centers_all(cfg.n_max)
    return centers_odd(cfg.n_max)


def cmd_centers(cfg: RunConfig) -> int:
    seq = _sequence(cfg)
    rows = zip(range(seq.first_index, seq.last_index + 1), seq.centers.real.tolist(), seq.centers.imag.tolist())
    if cfg.fmt == "csv":
        lines = ["n,re,im"] + [f"{n},{_fmt(re)},{_fmt(im)}" for n, re, im in rows]
        _write_output("\n".join(lines) + "\n", cfg.out)
    else:
        records = [{"n": n, "re": re, "im": im} for n, re, im in rows]
        _write_output(json.dumps({"family": cfg.family.value, "records": records}, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0


def cmd_verify(cfg: RunConfig, suites: list[str]) -> int:
    names = sorted(verify.SUITES) if suites == ["all"] else suites
    for name in names:
        if name not in verify.SUITES:
            raise UsageError(f"unknown suite {name!r}; choose from {sorted(verify.SUITES)} or 'all'")
    lines = []
    failed = False
    for name in names:
        for result in verify.run_suite(name, tolerances=cfg.tolerances):
            failed |= not result.passed
            status = "PASS" if result.passed else "FAIL"
            lines.append(f"{status} {name}/{result.name} margin={_fmt(result.margin)} ({result.detail})")
    _write_output("\n".join(lines) + "\n", cfg.out)
    return 1 if failed else 0


def _fit(cfg: RunConfig, route: str) -> tuple[RigidMotion, dict]:
    seq = _sequence(cfg)
    window = cfg.fit_window()
    try:
        motion, diag = fit_motion_to_approximant(seq, window)
        if route == "spiral":
            motion, diag = fit_motion_to_spiral(seq, TARGET_SPIRAL, window, init=motion)
    except ValueError as exc:  # the fits reject windows too short for them
        raise UsageError(f"fit window {window[0]}:{window[1]}: {exc}") from exc
    info = {
        "route": route,
        "window": list(window),
        "rotation": motion.rotation,
        "translation_re": motion.translation.real,
        "translation_im": motion.translation.imag,
        "residual_max": diag.residual_max,
        "objective": diag.objective,
        "parity_mean": {p.value: v for p, v in diag.per_parity_mean.items()},
    }
    return motion, info


def cmd_fit(cfg: RunConfig, route: str) -> int:
    _, info = _fit(cfg, route)
    _write_output(json.dumps(info, indent=2, sort_keys=True) + "\n", cfg.out)
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


def cmd_distances(cfg: RunConfig, route: str) -> int:
    motion, info = _fit(cfg, route)
    seq = _sequence(cfg)
    table = distance_table(seq, motion, cfg.n_max)
    if cfg.extrapolate:
        table = richardson_extrapolate(table)
    summary = _summary(cfg, table)

    extrapolated = [None if math.isnan(x) else x for x in table.extrapolated.tolist()]
    rows = zip(table.n.tolist(), table.distance.tolist(), extrapolated)
    if cfg.fmt == "csv":
        lines = ["n,parity,distance,extrapolated"]
        lines += [f"{n},{_PARITY[n % 2]},{_fmt(d)},{'' if x is None else _fmt(x)}" for n, d, x in rows]
        lines += [f"# {key}={_fmt(value)}" for key, value in summary]
        _write_output("\n".join(lines) + "\n", cfg.out)
    else:
        payload = {
            "fit": info,
            "records": [
                {"n": n, "parity": _PARITY[n % 2], "distance": d, "extrapolated": x} for n, d, x in rows
            ],
            "summary": dict(summary),
        }
        _write_output(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0


def cmd_render(cfg: RunConfig) -> int:
    if cfg.family is not Family.ALL_POLYGONS:
        raise UsageError("render only draws the all-polygon chain")
    if cfg.n_max > 100:
        raise UsageError("render is limited to --n-max <= 100")
    chain = build_chain(cfg.n_max)
    spiral_samples = None
    if cfg.overlay:
        window = cfg.window or (max(3, cfg.n_max // 2), cfg.n_max)
        if window[1] - window[0] + 1 < 8:
            raise UsageError("--overlay needs a fit window of at least 8 indices")
        seq = centers_all(cfg.n_max)
        motion, _ = fit_motion_to_approximant(seq, window)
        thetas = distance_table(seq, motion, cfg.n_max).theta
        grid = np.linspace(thetas.min() - 0.5 * math.pi, thetas.max() + 0.5 * math.pi, 600)
        w = TARGET_SPIRAL.point(grid)
        a = np.exp(1j * motion.rotation) * (NORMALIZATION_MODULUS ** (1.0 + 0.25j * math.pi)) * w + motion.translation
        spiral_samples = a / APPROXIMANT_SCALE
    scene = scene_from_chain(chain, spiral_samples)
    _write_output(scene.to_svg(), cfg.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyspiral", description="Polygon-chain spirals and their limiting distances.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, render: bool = False) -> None:
        p.add_argument("--family", choices=[f.value for f in Family], default=None)
        p.add_argument("--n-max", dest="n_max", type=int, default=None)
        p.add_argument("--window", default=None, metavar="A:B")
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--tolerance", action="append", default=None, metavar="NAME=VALUE")
        p.add_argument("--config", default=None, metavar="PATH")
        if render:
            p.add_argument("--overlay", action="store_true")

    p = sub.add_parser("centers", help="write the centre sequence")
    add_common(p)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="+", metavar="SUITE", help=f"{sorted(verify.SUITES)} or 'all'")
    add_common(p)

    p = sub.add_parser("fit", help="fit the rigid motion")
    p.add_argument("--route", choices=["approximant", "spiral"], default="approximant")
    add_common(p)

    p = sub.add_parser("distances", help="emit the convergence table")
    p.add_argument("--route", choices=["approximant", "spiral"], default="approximant")
    p.add_argument("--extrapolate", action="store_true")
    add_common(p)

    p = sub.add_parser("render", help="write an SVG figure")
    add_common(p, render=True)
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
            return cmd_distances(cfg, args.route)
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
