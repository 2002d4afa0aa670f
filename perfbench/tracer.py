"""Run one polyspiral CLI invocation in-process with spans around its layers.

    python3 perfbench/tracer.py SPANS.json STDOUT_FILE -- CLI_ARGS...
    python3 perfbench/tracer.py --peak centers_all|centers_odd N

The program is not modified: after ``import polyspiral.cli`` this script
replaces the names ``cli`` and ``metrics`` import (and the ``verify`` and
``svgout`` entry points ``cli`` calls) with wrappers that record a span per
call, then runs ``cli.main``.  Spans are kept in memory and written to
SPANS.json when the call returns.

Calls into ``spiral.nearest_distances`` also record their tracemalloc peak,
but only when the call's input is larger than any measured before: tracing
every one of the Nelder-Mead fit's ~2,000 equal-sized solver calls would
triple their time.  Building the centres runs a Python loop that tracemalloc
slows tenfold, so their peak comes from the ``--peak`` mode instead, a
separate process that only builds the centres.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import traceback
import tracemalloc

import numpy as np

import polyspiral.cli as cli
from polyspiral import geometry, metrics, svgout, verify


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def wrap(self, layer: str, name: str, fn, size=None, counters=None):
        """Return fn wrapped in a span.

        size(args), if given, is the input size that decides whether to
        measure the call's memory peak; counters(args, result) adds span
        fields.
        """
        largest = [-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._open[-1]["id"] if self._open else None,
                "layer": layer,
                "name": f"{layer}.{name}",
                "child_s": 0.0,
            }
            self.spans.append(span)
            self._open.append(span)
            own_trace = size is not None and size(args) > largest[0] and not tracemalloc.is_tracing()
            if own_trace:
                largest[0] = size(args)
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if own_trace:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span["end"] = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1]["child_s"] += span["end"] - span["start"]
            if counters is not None:
                span.update(counters(args, result))
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap each layer entry point where cli or metrics look it up."""

    def n_points(args):
        return int(np.size(args[1]))

    def points(args, result):
        return {"points": n_points(args)}

    def centers(fn):
        return lambda args, result: {"fn": fn, "n": int(args[0])}

    def evaluations(args, result):
        return {"nfev": int(result[1].evaluations)}

    table = {
        "centers_all": ("geometry", "centers", None, centers("centers_all")),
        "centers_odd": ("geometry", "centers", None, centers("centers_odd")),
        "build_chain": ("geometry", "build_chain", None, None),
        "approximant": ("asymptotics", "approximant", None, None),
        "nearest_distances": ("spiral", "nearest_distances", n_points, points),
        "fit_motion_to_approximant": ("metrics", "fit", None, evaluations),
        "fit_motion_to_spiral": ("metrics", "fit", None, evaluations),
        "distance_table": ("metrics", "distance_table", None, None),
        "richardson_extrapolate": ("metrics", "richardson_extrapolate", None, None),
        "inner_side_fraction": ("metrics", "inner_side_fraction", None, None),
        "parity_means": ("metrics", "parity_means", None, None),
        "scene_from_chain": ("svgout", "scene", None, None),
    }
    for attr, (layer, name, size, counters) in table.items():
        wrapped = None
        for module in (cli, metrics):
            if hasattr(module, attr):
                wrapped = wrapped or tracer.wrap(layer, name, getattr(module, attr), size, counters)
                setattr(module, attr, wrapped)
    verify.run_suite = tracer.wrap("verify", "run_suite", verify.run_suite)
    svgout.SvgScene.to_svg = tracer.wrap("svgout", "scene", svgout.SvgScene.to_svg)


def peak_bytes(fn: str, n: int) -> int:
    """tracemalloc peak of building the centre sequence of size n."""
    if fn not in ("centers_all", "centers_odd"):
        raise ValueError(f"no centre function {fn!r}")
    tracemalloc.start()
    getattr(geometry, fn)(n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def main(argv: list[str]) -> int:
    if argv[:1] == ["--peak"]:
        print(peak_bytes(argv[1], int(argv[2])))
        return 0
    spans_path, stdout_path, sep, *cli_args = argv
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    traced_main = tracer.wrap("cli", "main", cli.main)
    with open(stdout_path, "w", encoding="utf-8") as out:
        sys.stdout = out
        try:
            code = traced_main(cli_args)
        except Exception:  # reported like an uncaught error of the CLI itself
            traceback.print_exc()
            code = 1
        finally:
            sys.stdout = sys.__stdout__
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
