"""Benchmark of the polyspiral CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a polyspiral checkout.  Each workload is a fixed list
of CLI invocations whose sizes the seed picks within a few percent of a base
size.  The benchmark runs them as fresh processes in a closed loop with one
client until S seconds of workload time have been measured, checks every
output (see check.py), and prints each metric by name and unit, then one
JSON result line.  ``--trace 1`` instead runs one untraced and one traced
iteration (see tracer.py) and reports per-layer metrics.  ``--smoke`` runs
tiny sizes.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np

import check

HERE = Path(__file__).resolve().parent
#: CPUs this process may run on; BLAS/OpenMP threads of the children are pinned to it.
NPROC = len(os.sched_getaffinity(0))
WORKLOADS = ("all-extrap", "odd-spiral", "dump")
VERIFY_SUITES = ("alt-harmonic", "approximant", "euler-maclaurin", "gap-limit", "harmonic", "offset-distance", "power-sums")
SETUP_REPEATS = 5
#: A run stops starting iterations after this long, so it ends well within 180 s.
SOFT_DEADLINE_S = 110.0
HARD_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "raw_err": "1",
    "extrap_err": "1",
    "center_err": "1",
}
PER_LAYER_UNITS = {
    "spiral.nearest_s": "s",
    "spiral.nearest_calls": "count",
    "spiral.nearest_points": "count",
    "spiral.nearest_peak_mb": "MiB",
    "metrics.fit_nfev": "count",
    "metrics.fit_self_s": "s",
    "metrics.table_self_s": "s",
    "metrics.extrapolate_s": "s",
    "metrics.inner_side_s": "s",
    "geometry.centers_s": "s",
    "geometry.centers_peak_mb": "MiB",
    "asymptotics.approximant_s": "s",
    "cli.bytes_out": "bytes",
    "verify.suites_s": "s",
    "svgout.scene_s": "s",
    "geometry.self_s": "s",
    "asymptotics.self_s": "s",
    "spiral.self_s": "s",
    "metrics.self_s": "s",
    "verify.self_s": "s",
    "svgout.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.setup_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "1",
}
#: What the ``polyspiral`` console script runs.
CLI = ("-c", "import sys; from polyspiral.cli import main; sys.exit(main())")
LAYERS = ("geometry", "asymptotics", "spiral", "metrics", "verify", "svgout", "cli")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its output must pass."""

    args: tuple[str, ...]
    check: Callable[[str], dict[str, float]]


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]  # one timed iteration
    probes: tuple[Command, ...]  # untimed accuracy probes, run once per run


def _jitter(rng: random.Random, base: int, lo: float = -0.005, hi: float = 0.005) -> int:
    """A size near base.  The jitter is narrow because the accuracy metrics are
    deterministic in n and the odd-family fit error moves ~5x faster than n."""
    return int(round(base * (1.0 + rng.uniform(lo, hi))))


def _reference_indices(family: str, top: int) -> tuple[int, ...]:
    """25 log-spaced indices from 100 (or the first index) up to top.

    The float64 error is largest near the top, so a fixed grid keeps the
    maximum, center_err, the same from seed to seed.
    """
    first = check.FIRST_INDEX[family]
    return tuple(sorted({max(first, min(top, round(100 * 400 ** (i / 24)))) for i in range(25)} | {top}))


def _reference(family: str, indices: tuple[int, ...]) -> dict[int, complex]:
    """check.reference_centers, cached in out/ under a key that includes check.py's hash."""
    digest = hashlib.sha256((HERE / "check.py").read_bytes() + repr((family, indices)).encode()).hexdigest()[:16]
    path = HERE / "out" / f"reference-{family}-{digest}.json"
    if path.is_file():
        return {int(n): complex(*z) for n, z in json.loads(path.read_text(encoding="utf-8")).items()}
    reference = check.reference_centers(family, indices)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps({n: [z.real, z.imag] for n, z in reference.items()}), encoding="utf-8")
    partial.replace(path)
    return reference


def _centers(family: str, n: int, fmt: str, indices: tuple[int, ...]) -> Command:
    reference = functools.cache(lambda: _reference(family, indices))
    gate = check.check_centers_csv if fmt == "csv" else check.check_centers_json
    return Command(
        ("centers", "--family", family, "--n-max", str(n), "--format", fmt),
        lambda text: gate(text, family, n, reference()),
    )


def _distances(family: str, n: int) -> Command:
    return Command(
        ("distances", "--family", family, "--n-max", str(n), "--extrapolate"),
        lambda text: check.check_distances(text, family, n, extrapolate=True),
    )


#: Distances workloads: family, base n-max, smoke n-max.
DISTANCES = {"all-extrap": ("all", 100_000, 3000), "odd-spiral": ("odd", 4000, 400)}


def build_workload(name: str, seed: int, smoke: bool) -> Workload:
    """The workload's commands, sized from the seed; the program sees only the argv."""
    rng = random.Random(f"{name}/{seed}")
    probe_n = 2000 if smoke else 40_000
    if name in DISTANCES:
        family, base, smoke_base = DISTANCES[name]
        n = _jitter(rng, smoke_base if smoke else base)
        indices = _reference_indices(family, probe_n)
        return Workload((_distances(family, n),), (_centers(family, probe_n, "csv", indices),))
    if name == "dump":
        n = _jitter(rng, 3000 if smoke else 1_000_000, -0.01, 0.0)
        n_render = _jitter(rng, 20 if smoke else 100, -0.01, 0.0)
        indices = _reference_indices("all", min(n, probe_n))
        render = Command(
            ("render", "--n-max", str(n_render), "--overlay"),
            lambda text: check.check_render(text, n_render),
        )
        return Workload(
            (
                _centers("all", n, "csv", indices),
                _centers("all", n, "json", indices),
                Command(("verify", "all"), lambda text: check.check_verify(text, VERIFY_SUITES)),
                render,
            ),
            (_distances("all", 2000),),
        )
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


@dataclass
class Tally:
    """Gate results over every CLI run of a benchmark run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)

    def gate(self, command: Command, exit_code: int, stderr: str, output: Path) -> None:
        self.attempted += 1
        try:
            if exit_code != 0:
                raise check.CheckFailed(f"exit code {exit_code}: {stderr.strip()[-300:]}")
            if "Traceback (most recent call last)" in stderr:
                raise check.CheckFailed(f"traceback on stderr: {stderr.strip()[-300:]}")
            for key, value in command.check(output.read_text(encoding="utf-8")).items():
                self.accuracy[key] = max(value, self.accuracy.get(key, value))
        except (check.CheckFailed, OSError, UnicodeDecodeError) as exc:
            self.failed += 1
            self.problems.append(f"{' '.join(command.args)}: {exc}")


class Runner:
    """Starts CLI processes from the checkout and measures each one."""

    def __init__(self, root: Path, work: Path, deadline: float):
        threads = str(NPROC)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        self.root = root
        self.work = work
        self.deadline = deadline

    def run(self, argv: list[str], stdout: Path | None) -> tuple[float, int, int, str]:
        """Run argv to completion; return (wall seconds, max RSS KiB, exit code, stderr)."""
        err_path = self.work / "stderr.txt"
        with open(stdout or os.devnull, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=self.root, env=self.env)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, proc.returncode, err_path.read_text(encoding="utf-8", errors="replace")


def run_iteration(runner: Runner, commands, tally: Tally) -> tuple[float, int]:
    """Run each command once as a fresh process; return (summed wall, max RSS KiB)."""
    wall, rss = 0.0, 0
    output = runner.work / "stdout.txt"
    for command in commands:
        seconds, kib, code, stderr = runner.run([sys.executable, *CLI, *command.args], output)
        wall += seconds
        rss = max(rss, kib)
        tally.gate(command, code, stderr, output)
        output.unlink(missing_ok=True)
    return wall, rss


def measure_setup(runner: Runner, repeats: int) -> list[float]:
    """Interpreter start plus ``import polyspiral.cli``, after one warm-up run."""
    argv = [sys.executable, "-c", "import polyspiral.cli"]
    times = []
    for i in range(repeats + 1):
        seconds, _, code, stderr = runner.run(argv, None)
        if code != 0:
            raise SystemExit(f"error: cannot import polyspiral.cli from the checkout: {stderr.strip()[-300:]}")
        if i:
            times.append(seconds)
    return times


def run_traced(runner: Runner, commands, tally: Tally) -> tuple[float, list[dict]]:
    """Run each command under tracer.py; return (summed wall, per-command span records)."""
    wall = 0.0
    records = []
    output = runner.work / "stdout.txt"
    spans_path = runner.work / "spans.json"
    for command in commands:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), str(output), "--", *command.args]
        seconds, _, code, stderr = runner.run(argv, None)
        wall += seconds
        tally.gate(command, code, stderr, output)
        bytes_out = output.stat().st_size if output.exists() else 0
        spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"] if spans_path.exists() else []
        records.append({"args": list(command.args), "wall_s": seconds, "bytes_out": bytes_out, "spans": spans})
        output.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)
    return wall, records


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the traced spans: self time is duration minus child spans."""
    total = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for record in records:
        total["cli.bytes_out"] += record["bytes_out"]
        for span in record["spans"]:
            duration = span["end"] - span["start"]
            self_s = duration - span["child_s"]
            total[f"{span['layer']}.self_s"] += self_s
            name = span["name"]
            if name == "spiral.nearest_distances":
                total["spiral.nearest_s"] += duration
                total["spiral.nearest_calls"] += 1
                total["spiral.nearest_points"] += span["points"]
                peak_mb = span.get("peak_bytes", 0) / 2**20
                total["spiral.nearest_peak_mb"] = max(total["spiral.nearest_peak_mb"], peak_mb)
            elif name == "metrics.fit":
                total["metrics.fit_nfev"] += span["nfev"]
                total["metrics.fit_self_s"] += self_s
            elif name == "metrics.distance_table":
                total["metrics.table_self_s"] += self_s
            elif name == "metrics.richardson_extrapolate":
                total["metrics.extrapolate_s"] += duration
            elif name == "metrics.inner_side_fraction":
                total["metrics.inner_side_s"] += duration
            elif name == "geometry.centers":
                total["geometry.centers_s"] += duration
            elif name == "asymptotics.approximant":
                total["asymptotics.approximant_s"] += duration
            elif name == "verify.run_suite":
                total["verify.suites_s"] += duration
            elif name == "svgout.scene":
                total["svgout.scene_s"] += duration
    return total


def centers_peak_mb(runner: Runner, records: list[dict]) -> float:
    """tracemalloc peak of the largest centre build each traced command made, in its own process."""
    largest: dict[str, int] = {}
    for record in records:
        for span in record["spans"]:
            if span["name"] == "geometry.centers":
                largest[span["fn"]] = max(largest.get(span["fn"], 0), span["n"])
    peak = 0
    output = runner.work / "peak.txt"
    for fn, n in largest.items():
        _, _, code, stderr = runner.run([sys.executable, str(HERE / "tracer.py"), "--peak", fn, str(n)], output)
        if code != 0:
            raise RuntimeError(f"memory probe of {fn}({n}) failed: {stderr.strip()[-300:]}")
        peak = max(peak, int(output.read_text(encoding="utf-8")))
    return peak / 2**20


def last_level_cache() -> str:
    """Size of the highest-level CPU cache, read from sysfs."""
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def environment() -> dict:
    finfo = np.finfo(np.longdouble)
    return {
        "nproc": NPROC,
        "blas_threads": NPROC,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "longdouble": {"dtype": str(np.dtype(np.longdouble)), "nmant": int(finfo.nmant), "eps": float(finfo.eps)},
        "last_level_cache": last_level_cache(),
    }


def measure_end_to_end(runner: Runner, workload: Workload, tally: Tally, setup: list[float], seconds: float, started: float):
    """Iterations in a closed loop until `seconds` of workload time is measured, then the probes."""
    walls, peak_kib = [], 0
    while not walls or (sum(walls) < seconds and time.monotonic() + walls[-1] < started + SOFT_DEADLINE_S):
        wall, kib = run_iteration(runner, workload.commands, tally)
        walls.append(wall)
        peak_kib = max(peak_kib, kib)
    run_iteration(runner, workload.probes, tally)
    values = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_kib / 1024.0,
        "setup_s": statistics.median(setup),
        **{key: tally.accuracy.get(key) for key in ("raw_err", "extrap_err", "center_err")},
    }
    return values, walls


def measure_layers(runner: Runner, workload: Workload, tally: Tally, setup: list[float]):
    """One untraced and one traced iteration; per-layer metrics from the spans."""
    untraced_wall, _ = run_iteration(runner, workload.commands, tally)
    traced_wall, records = run_traced(runner, workload.commands, tally)
    values = layer_metrics(records)
    values["geometry.centers_peak_mb"] = centers_peak_mb(runner, records)
    values["trace.wall_s"] = traced_wall
    values["trace.setup_s"] = statistics.median(setup) * len(workload.commands)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    accounted = values["trace.setup_s"] + sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values["trace.accounted_frac"] = accounted / traced_wall
    return values, records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one setup sample")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polyspiral" / "cli.py").is_file():
        print(f"error: {root} holds no polyspiral source (src/polyspiral/cli.py); run from a checkout root", file=sys.stderr)
        return 2
    started = time.monotonic()
    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, work, started + HARD_DEADLINE_S)
        workload = build_workload(args.workload, args.seed, args.smoke)
        tally = Tally()
        setup = measure_setup(runner, 1 if args.smoke else SETUP_REPEATS)
        env = environment()
        result = {"workload": args.workload, "seed": args.seed, "argv": [list(c.args) for c in workload.commands], "env": env}
        if args.trace:
            values, records = measure_layers(runner, workload, tally, setup)
            units = PER_LAYER_UNITS
            result["spans"] = records
        else:
            values, walls = measure_end_to_end(runner, workload, tally, setup, args.seconds, started)
            units = END_TO_END_UNITS
            result.update(iterations_wall_s=walls, setup_samples_s=setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        result.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
        out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed}: {' | '.join(' '.join(c.args) for c in workload.commands)}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"failed_frac = {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} CLI runs failed)")
    print(f"# full record: {out_file.relative_to(root) if out_file.is_relative_to(root) else out_file}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
