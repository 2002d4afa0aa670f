"""The streamed CLI output path: record formatting, chunk boundaries, memory, I/O errors.

The CLI writes ``centers`` and ``distances`` rows ``spiral.BLOCK`` at a time,
each block formatted by ``floattext.rows`` and written before the next.
These tests pin that output to a whole-document reference built here, the
way the output was produced before it was streamed: ``"\\n".join`` of CSV
lines and ``json.dumps(indent=2, sort_keys=True)`` of the full payload.
"""

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polyspiral
from polyspiral import cli, floattext
from polyspiral.geometry import CenterSequence, Family
from polyspiral.metrics import FRAMES, distance_table, richardson_extrapolate
from polyspiral.spiral import BLOCK

SRC = Path(polyspiral.__file__).resolve().parents[1]

MIN_NORMAL = 2.2250738585072014e-308
# Floats whose repr and .15g spellings differ, plus the edges of the float64 range.
AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, MIN_NORMAL, 1e300, -1e300, 1.7976931348623157e308, 0.1 + 0.2,
           1 / 3, 2.0 / 3.0, 1e16, 1e-5, 123456789012345678.0, 9.999999999999999e22, -1e-7]
floats = st.one_of(
    st.sampled_from(AWKWARD),
    st.floats(min_value=-MIN_NORMAL, max_value=MIN_NORMAL),  # subnormals and signed zeros
    st.floats(allow_nan=False, allow_infinity=False),
)


def stdout_of(fn, *args) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        fn(*args)
    return out.getvalue()


def csv_reference(header: str, rows, footer=()) -> str:
    return "\n".join([header] + [",".join(row) for row in rows] + list(footer)) + "\n"


class TestRecordFormatter:
    """JSON rows equal json.dumps's records byte for byte; CSV rows are _fmt's.

    NaN and +-inf, which json.dumps spells NaN/Infinity and repr nan/inf,
    cannot reach the row templates: cmd_centers and cmd_distances assert
    their columns finite, except a missing extrapolation, which is NaN by
    design and written null (JSON) or empty (CSV).
    """

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), floats, floats), min_size=1, max_size=5))
    def test_centers(self, rows):
        n, re, im = (np.array(col) for col in zip(*rows))
        json_args = cli.build_parser().parse_args(["centers", "--format", "json"])
        text = stdout_of(cli._write_table, json_args, "centers", (n, re, im), "n,re,im\n", {"family": "odd"})
        records = [{"n": k, "re": x, "im": y} for k, x, y in rows]
        assert text == json.dumps({"family": "odd", "records": records}, indent=2, sort_keys=True) + "\n"

        text = stdout_of(cli._write_table, cli.build_parser().parse_args(["centers"]), "centers", (n, re, im), "n,re,im\n", {})
        assert text == csv_reference("n,re,im", [(str(k), cli._fmt(x), cli._fmt(y)) for k, x, y in rows])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(floats, st.one_of(st.none(), floats)), min_size=1, max_size=5),
        st.dictionaries(st.sampled_from(["raw_mean_even", "target_odd"]), floats),
    )
    def test_distances(self, rows, summary):
        n = np.arange(3, 3 + len(rows))
        d = np.array([x for x, _ in rows])
        e = np.array([math.nan if y is None else y for _, y in rows])
        doc = {"summary": summary}
        json_args = cli.build_parser().parse_args(["distances", "--format", "json"])
        text = stdout_of(cli._write_table, json_args, "distances", (n, d, e), "", doc)
        records = [
            {"n": int(k), "parity": cli._PARITY[k % 2], "distance": x, "extrapolated": y} for k, (x, y) in zip(n, rows)
        ]
        assert text == json.dumps({**doc, "records": records}, indent=2, sort_keys=True) + "\n"

        text = stdout_of(cli._write_table, cli.build_parser().parse_args(["distances"]), "distances", (n, d, e), "h\n", doc, "# f=1\n")
        lines = [(str(k), cli._PARITY[k % 2], cli._fmt(x), "" if y is None else cli._fmt(y)) for k, (x, y) in zip(n, rows)]
        assert text == csv_reference("h", lines, ["# f=1"])

    def test_fmt_folds_negative_zero(self):
        assert cli._fmt(-0.0) == "0" and cli._fmt(0.0) == "0"
        assert cli._fmt(-1e-300) == "-1e-300"

    def test_non_finite_centres_never_reach_the_writer(self, tmp_path, monkeypatch):
        bad = CenterSequence(Family.ALL_POLYGONS, np.array([1.0, math.inf, 2.0], dtype=complex))
        monkeypatch.setattr(cli, "_sequence", lambda args: bad)
        target = tmp_path / "c.json"
        with pytest.raises(AssertionError):
            cli.main(["centers", "--n-max", "5", "--format", "json", "--out", str(target)])
        assert not target.exists()


# Each reference keeps its last n_max in both formats: the fresh-process test reuses the largest chunk case.
@functools.lru_cache(maxsize=len(cli.FORMATS))
def centers_reference(n_max: int, fmt: str) -> str:
    seq = cli._sequence(cli.build_parser().parse_args(["centers", "--n-max", str(n_max)]))
    rows = zip(range(seq.first_index, seq.last_index + 1), seq.centers.real.tolist(), seq.centers.imag.tolist())
    if fmt == "csv":
        return csv_reference("n,re,im", [(str(n), cli._fmt(x), cli._fmt(y)) for n, x, y in rows])
    records = [{"n": n, "re": x, "im": y} for n, x, y in rows]
    return json.dumps({"family": "all", "records": records}, indent=2, sort_keys=True) + "\n"


@functools.lru_cache(maxsize=len(cli.FORMATS))
def distances_reference(n_max: int, fmt: str) -> str:
    args = cli.build_parser().parse_args(["distances", "--n-max", str(n_max), "--extrapolate"])
    n = np.arange(Family.ALL_POLYGONS.first_index, n_max + 1)
    distance = distance_table(FRAMES[Family.ALL_POLYGONS], cli._sequence(args).centers)
    extrapolated = richardson_extrapolate(n, distance)
    summary = cli._summary(args, n, distance, extrapolated)
    rows = list(zip(n.tolist(), distance.tolist(), [None if math.isnan(x) else x for x in extrapolated.tolist()]))
    if fmt == "csv":
        lines = [(str(n), cli._PARITY[n % 2], cli._fmt(d), "" if x is None else cli._fmt(x)) for n, d, x in rows]
        return csv_reference("n,parity,distance,extrapolated", lines, [f"# {k}={cli._fmt(v)}" for k, v in summary])
    records = [{"n": n, "parity": cli._PARITY[n % 2], "distance": d, "extrapolated": x} for n, d, x in rows]
    return json.dumps({"records": records, "summary": dict(summary)}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("command, reference", [("centers", centers_reference), ("distances", distances_reference)])
def test_chunk_boundaries(tmp_path, command, reference, rows):
    n_max = rows + 2  # the all-polygon family starts at index 3
    for fmt in cli.FORMATS:
        out = tmp_path / f"{command}.{fmt}"
        argv = [command, "--n-max", str(n_max), "--format", fmt, "--out", str(out)]
        assert cli.main(argv + (["--extrapolate"] if command == "distances" else [])) == 0
        text = out.read_text(encoding="utf-8")
        assert text == reference(n_max, fmt)
        assert len(text.splitlines()) >= rows


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_peak_memory_is_bounded(tmp_path, fmt):
    # the whole JSON document of these 2e5 centres alone would take ~20 MB
    out = tmp_path / f"centers.{fmt}"
    tracemalloc.start()
    try:
        assert cli.main(["centers", "--n-max", "200000", "--format", fmt, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    assert out.stat().st_size > 8 * 10**6


@pytest.mark.parametrize("command, reference", [("centers", centers_reference), ("distances", distances_reference)])
def test_cli_process_writes_the_reference_bytes(tmp_path, command, reference):
    # python -m polyspiral.cli on its own, at 2*BLOCK + 1 rows: a last block of one row; JSON's repr pins every bit
    n_max = 2 * BLOCK + 1 + 2
    for fmt in cli.FORMATS:
        out = tmp_path / f"{command}.{fmt}"
        argv = [command, "--n-max", str(n_max), "--format", fmt, "--out", str(out)]
        proc = run_python("-m", "polyspiral.cli", *argv, *(["--extrapolate"] if command == "distances" else []))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text(encoding="utf-8") == reference(n_max, fmt)


def test_slow_sink_bounds_blocks_in_flight(monkeypatch):
    # Each block formats to 1 MiB.  Behind a sink that sleeps per write, the
    # CLI formats a block only after writing the one before it, so it never
    # holds more than one block of text, plus the few MiB of temporaries that
    # floattext.rows takes to format it; a writer that formatted every block
    # first would hold all 24.  tracemalloc starts at the first row write.
    n_blocks, mib = 24, 2**20
    started = 0

    def xs(n):  # a floattext field: mib // BLOCK - 1 x's in every row
        nonlocal started
        started += 1
        return floattext.words(["x" * (mib // BLOCK - 1)], np.zeros(len(n), int))

    ahead = []

    class SlowSink:
        def write(self, text):
            if text.startswith("x"):
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                ahead.append(started - len(ahead))  # blocks formatted but not yet written
                time.sleep(0.02)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", SlowSink())
    try:
        cli._write(None, "head\n", "tail\n", ((0, xs), "\n"), (np.arange(n_blocks * BLOCK),))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ahead) == n_blocks
    assert max(ahead) == 1
    assert peak <= 8 * mib


class TestIoContract:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_full_device_is_io_error(self, capsys, fmt):
        code = cli.main(["centers", "--n-max", "40000", "--format", fmt, "--out", "/dev/full"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("i/o error: cannot write /dev/full") and "Traceback" not in err

    def test_closed_pipe_exits_promptly(self):
        # like `centers --n-max 100000 | head -1`
        proc = popen_python("-m", "polyspiral.cli", "centers", "--n-max", "100000")
        assert proc.stdout.readline() == "n,re,im\n"
        proc.stdout.close()
        started = time.monotonic()
        _, err = proc.communicate(timeout=60)
        assert time.monotonic() - started < 10
        assert proc.returncode == 3
        assert err.startswith("i/o error: cannot write stdout") and "Traceback" not in err

    def test_usage_error_creates_no_file(self, tmp_path, capsys):
        target = tmp_path / "X"
        assert cli.main(["fit", "--n-max", "10", "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not target.exists()


def python_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=python_env(), timeout=120)


def popen_python(*args: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=python_env())


class TestImports:
    def test_cli_imports_no_mpmath_process_pool_polynomial_or_verify(self, tmp_path):
        prefixes = ("scipy", "mpmath", "multiprocessing", "concurrent", "numpy.polynomial", "polyspiral.verify")
        # import only; then a run of several blocks of rows, all written in this one process.
        # Modules `import numpy` loads itself are not counted: NumPy 1.x imports numpy.polynomial eagerly.
        for run in ("", "polyspiral.cli.main(['centers', '--n-max', '100000', '--out', sys.argv[1]])"):
            code = (
                f"import sys, numpy\nbase = set(sys.modules)\nimport polyspiral.cli\n{run}\n"
                f"print(sorted(m for m in set(sys.modules) - base if m.startswith({prefixes})))"
            )
            proc = run_python("-c", code, str(tmp_path / "centers.csv"))
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]", run
