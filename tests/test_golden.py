"""Byte-for-byte CLI output on a fixed golden set.

Each file under ``tests/golden/`` is the ``--out`` file of one command,
run from the repository root with ``PYTHONPATH=src``:

    python -m polyspiral.cli centers --family all --n-max 60 --out tests/golden/centers_all.csv
    python -m polyspiral.cli centers --family all --n-max 60 --format json --out tests/golden/centers_all.json
    python -m polyspiral.cli centers --family odd --n-max 60 --out tests/golden/centers_odd.csv
    python -m polyspiral.cli centers --family odd --n-max 60 --format json --out tests/golden/centers_odd.json
    python -m polyspiral.cli distances --family all --n-max 240 --extrapolate --out tests/golden/distances_all.csv
    python -m polyspiral.cli distances --family all --n-max 240 --extrapolate --format json --out tests/golden/distances_all.json
    python -m polyspiral.cli distances --family odd --n-max 400 --extrapolate --out tests/golden/distances_odd.csv
    python -m polyspiral.cli distances --family odd --n-max 400 --extrapolate --format json --out tests/golden/distances_odd.json
    python -m polyspiral.cli fit --family all --n-max 200 --window 100:200 --route approximant --out tests/golden/fit_all_approximant.json
    python -m polyspiral.cli fit --family all --n-max 200 --window 100:200 --route spiral --out tests/golden/fit_all_spiral.json
    python -m polyspiral.cli fit --family odd --n-max 400 --window 100:200 --route approximant --out tests/golden/fit_odd_approximant.json
    python -m polyspiral.cli render --n-max 30 --overlay --out tests/golden/render_overlay.svg
    python -m polyspiral.cli verify all --out tests/golden/verify_all.txt

A refactor that changes any byte of these outputs fails here; regenerate
the files only for an intended change of output.
"""

import json
from pathlib import Path

import pytest

from polyspiral.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "centers_all.csv": "centers --family all --n-max 60",
    "centers_all.json": "centers --family all --n-max 60 --format json",
    "centers_odd.csv": "centers --family odd --n-max 60",
    "centers_odd.json": "centers --family odd --n-max 60 --format json",
    "distances_all.csv": "distances --family all --n-max 240 --extrapolate",
    "distances_all.json": "distances --family all --n-max 240 --extrapolate --format json",
    "distances_odd.csv": "distances --family odd --n-max 400 --extrapolate",
    "distances_odd.json": "distances --family odd --n-max 400 --extrapolate --format json",
    "fit_all_approximant.json": "fit --family all --n-max 200 --window 100:200 --route approximant",
    "fit_all_spiral.json": "fit --family all --n-max 200 --window 100:200 --route spiral",
    "fit_odd_approximant.json": "fit --family odd --n-max 400 --window 100:200 --route approximant",
    "render_overlay.svg": "render --n-max 30 --overlay",
    "verify_all.txt": "verify all",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name].split() + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["distances_all.json", "distances_odd.json"])
def test_unpartnered_records_pin_null(name):
    records = json.loads((GOLDEN / name).read_text())["records"]
    assert records[-1]["extrapolated"] is None
    assert any(r["extrapolated"] is not None for r in records)
