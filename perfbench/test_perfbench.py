"""Tests of the benchmark itself: smoke runs print every named metric, and the
output gate rejects deliberately tampered CLI output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check
from run import CLI

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int) -> list[str]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def assert_reports(lines: list[str], specs: list[dict]) -> dict:
    result = json.loads(lines[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"].keys() == {spec["name"] for spec in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)
        assert f"{spec['name']} = {metric['value']} {spec['unit']}" in lines
    assert any(line.startswith("failed_frac = 0.0 ") for line in lines)
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = assert_reports(bench(workload, 0), SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_smoke_traced_run_prints_every_per_layer_metric():
    result = assert_reports(bench("dump", 1), SPEC["per_layer"])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    for name in ("geometry.centers_s", "verify.suites_s", "svgout.scene_s", "cli.self_s", "cli.bytes_out", "spiral.nearest_calls"):
        assert values[name] > 0, name
    assert 0.5 < values["trace.accounted_frac"] < 1.5  # at smoke sizes nearly all of it is setup


def test_no_checkout_is_an_error(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "dump", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and '"correct"' not in done.stdout


def cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *CLI, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


@pytest.fixture(scope="module")
def distances_csv() -> str:
    return cli("distances", "--family", "all", "--n-max", "300", "--extrapolate")


def replace_row(text: str, n: int, new: str) -> str:
    lines = text.split("\n")
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{n},"))
    lines[index] = new
    return "\n".join(lines)


def test_gate_accepts_real_distances(distances_csv):
    errors = check.check_distances(distances_csv, "all", 300, extrapolate=True)
    assert 0 < errors["raw_err"] < check.RAW_TOLERANCE and errors["extrap_err"] > 0


@pytest.mark.parametrize(
    "tamper",
    [
        lambda t: replace_row(t, 150, "").replace("\n\n", "\n"),  # a row missing
        lambda t: replace_row(t, 290, "290,even,0.9,"),  # one tail distance changed
        lambda t: replace_row(t, 20, "20,odd,0.8,"),  # wrong parity label
        lambda t: t.replace("inner_side_fraction=1", "inner_side_fraction=0.996677740863787"),
        lambda t: t.replace("# raw_mean_even=0.8", "# raw_mean_even=0.9"),  # summary disagrees with rows
        lambda t: t.replace("n,parity,distance,extrapolated", "n,parity,distance"),
    ],
    ids=["missing-row", "changed-distance", "wrong-parity", "inner-side", "summary", "header"],
)
def test_gate_rejects_tampered_distances(distances_csv, tamper):
    tampered = tamper(distances_csv)
    assert tampered != distances_csv
    with pytest.raises(check.CheckFailed):
        check.check_distances(tampered, "all", 300, extrapolate=True)


def test_gate_rejects_wrong_family_targets(distances_csv):
    with pytest.raises(check.CheckFailed):
        check.check_distances(distances_csv, "odd", 300, extrapolate=True)


@pytest.fixture(scope="module")
def reference():
    return check.reference_centers("all", (3, 250, 500))


def test_gate_centers(reference):
    text = cli("centers", "--n-max", "500")
    assert check.check_centers_csv(text, "all", 500, reference)["center_err"] < 1e-14
    _, re, im = text.split("\n")[250 - 2].split(",")
    bad = f"250,{float(re) * (1 + 1e-9)!r},{im}"
    for tampered in (replace_row(text, 250, bad), replace_row(text, 400, "401,0,0"), text.replace("n,re,im", "n,x,y")):
        with pytest.raises(check.CheckFailed):
            check.check_centers_csv(tampered, "all", 500, reference)

    payload = json.loads(cli("centers", "--n-max", "500", "--format", "json"))
    assert check.check_centers_json(json.dumps(payload), "all", 500, reference)["center_err"] < 1e-14
    payload["records"][247]["re"] *= 1 + 1e-9  # n = 250
    with pytest.raises(check.CheckFailed):
        check.check_centers_json(json.dumps(payload), "all", 500, reference)
    del payload["records"][100]
    with pytest.raises(check.CheckFailed):
        check.check_centers_json(json.dumps(payload), "all", 500, reference)


def test_gate_verify_and_render():
    suites = ("gap-limit", "harmonic", "euler-maclaurin")
    text = cli("verify", *suites)
    check.check_verify(text, suites)
    for tampered, expected in ((text.replace("PASS", "FAIL", 1), suites), (text, (*suites, "power-sums"))):
        with pytest.raises(check.CheckFailed):
            check.check_verify(tampered, expected)
    svg = cli("render", "--n-max", "20", "--overlay")
    check.check_render(svg, 20)
    with pytest.raises(check.CheckFailed):
        check.check_render(svg.replace("<polyline", "<line"), 20)
    with pytest.raises(check.CheckFailed):
        check.check_render(svg, 21)
