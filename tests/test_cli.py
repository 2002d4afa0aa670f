import argparse
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import readback
from polyspiral import asymptotics as asym, verify
from polyspiral.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCenters:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "centers.csv"
        code, out, _ = run(capsys, "centers", "--n-max", "5", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,re,im\n")

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "centers", "--n-max", "5", "--out", str(tmp_path / "no" / "dir.csv"))
        assert code == 3
        assert "i/o error" in err

    def test_bad_n_max_is_usage_error(self, capsys):
        code, _, err = run(capsys, "centers", "--n-max", "2")
        assert code == 2 and "error" in err
        code, _, _ = run(capsys, "centers", "--n-max", str(10**6 + 1))
        assert code == 2


class TestVerify:
    def test_quick_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "harmonic", "alt-harmonic", "euler-maclaurin")
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2 and "unknown suite" in err
        assert all(repr(name) in err for name in verify.SUITES)  # the --help text names no suite
        for suites in (["all", "nonsense"], ["nonsense", "all"]):
            code, out, err = run(capsys, "verify", *suites)
            assert code == 2 and out == "" and "unknown suite 'nonsense'" in err
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--help"])
        assert exit_info.value.code == 0

    @pytest.mark.parametrize("suites", [["all", "harmonic"], ["harmonic", "all"], ["all", "all"]])
    def test_all_anywhere_runs_every_suite(self, capsys, suites):
        code, out, err = run(capsys, "verify", *suites)
        assert code == 0 and err == ""
        assert out == (GOLDEN / "verify_all.txt").read_text(encoding="utf-8")

    def test_each_named_suite_runs_once(self, capsys):
        _, once, _ = run(capsys, "verify", "harmonic", "alt-harmonic")
        code, twice, _ = run(capsys, "verify", "harmonic", "alt-harmonic", "harmonic")
        assert code == 0 and twice == once and once.count("PASS harmonic/") == 1

    @pytest.mark.parametrize(
        "suite, name, error",
        [
            ("harmonic", "detemple_bounds", lambda bounds: (bounds[0], bounds[1] * (1.0 - 1e-3))),
            ("alt-harmonic", "alt_harmonic_expansion", lambda value: value + 1e-9),
            ("gap-limit", "spiral_gap", lambda gap: gap + 0.02),
            ("euler-maclaurin", "em_sum_minus_integral", lambda value: value + 1e-9),
            ("power-sums", "power_sum_closed", lambda value: value * (1.0 + 1e-6)),
            ("approximant", "approximant", lambda value: value * (1.0 + 1e-6)),
        ],
    )
    def test_suites_check_the_library(self, monkeypatch, capsys, suite, name, error):
        # a small error in the asymptotics function must surface in the suite that checks it
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0 and "FAIL" not in out
        original = getattr(asym, name)
        monkeypatch.setattr(asym, name, lambda *args, **kwargs: error(original(*args, **kwargs)))
        code, out, _ = run(capsys, "verify", suite)
        assert code == 1
        assert f"FAIL {suite}/" in out


class TestFitAndDistances:
    def test_window_must_fit(self, capsys):
        code, _, _ = run(capsys, "fit", "--n-max", "100", "--window", "50:200")
        assert code == 2
        code, _, _ = run(capsys, "fit", "--n-max", "100", "--window", "banana")
        assert code == 2
        code, out, err = run(capsys, "fit", "--n-max", "5", "--window", "5:9")
        assert code == 2 and out == ""
        assert err == "error: --window must satisfy 3 <= A < B <= n_max\n"

    @pytest.mark.parametrize(
        "argv", ["--n-max 3", "--family odd --n-max 20", "--n-max 10"], ids=["fit-n-max-3", "fit-window-odd", "fit-window-all"]
    )
    def test_default_window_too_short_is_usage_error(self, tmp_path, capsys, argv):
        out_file = tmp_path / "fit.json"
        code, out, err = run(capsys, "fit", *argv.split(), "--out", str(out_file))
        assert code == 2
        assert out == "" and err.startswith("error: fit window")
        assert not out_file.exists()

    def test_fit_failure_exits_one_and_writes_nothing(self, tmp_path, capsys):
        # on 3:20 the spiral route's residuals exceed 1e-9 of the centres and grow across the window
        out_file = tmp_path / "fit.json"
        code, out, err = run(capsys, "fit", "--n-max", "100", "--window", "3:20", "--route", "spiral", "--out", str(out_file))
        assert code == 1
        assert err.startswith("fit failure:")
        assert out == ""
        assert not out_file.exists()

    def test_odd_family_default_window_too_short(self, capsys):
        code, out, err = run(capsys, "fit", "--family", "odd", "--n-max", "2")
        assert code == 2
        assert out == "" and err.startswith("error: fit window 2:2: window length must be >= 8")

    def test_odd_family_approximant_fit(self, capsys):
        code, out, _ = run(capsys, "fit", "--family", "odd", "--n-max", "100")
        assert code == 0
        info = json.loads(out)
        assert info["route"] == "approximant" and "objective" not in info
        assert info["parity_mean"]["even"] == pytest.approx(7.0 / 24.0, abs=1e-4)
        # residuals of the approximant fit decay like 1/n; it evaluates no objective
        assert info["residual_slope"] == pytest.approx(-1.0, abs=0.1) and "evaluations" not in info

    def test_odd_family_spiral_route_has_no_objective(self, capsys):
        code, out, _ = run(capsys, "fit", "--family", "odd", "--n-max", "400", "--window", "100:200", "--route", "spiral")
        assert code == 0
        info = json.loads(out)
        # a linear fit, like the approximant route: the JSON has no objective and no evaluation count
        assert info["route"] == "spiral" and "objective" not in info and "evaluations" not in info
        assert info["parity_mean"]["odd"] == pytest.approx(7.0 / 24.0, abs=1e-4)

    def test_odd_family_short_default_window(self, capsys):
        # the default window 7:15 has 9 points: enough for the approximant
        # route, too few for the spiral route (16)
        code, out, _ = run(capsys, "fit", "--family", "odd", "--n-max", "30")
        assert code == 0 and json.loads(out)["window"] == [7, 15]
        code, _, err = run(capsys, "fit", "--family", "odd", "--n-max", "30", "--route", "spiral")
        assert code == 2 and "window length must be >= 16" in err

    def test_distances_need_no_fit_window(self, capsys):
        code, out, _ = run(capsys, "distances", "--family", "odd", "--n-max", "2")
        lines = out.splitlines()
        assert code == 0 and lines[1].startswith("2,even,")
        assert "# target_even=0.291666666666667" in lines and "# inner_side_fraction=1" in lines

    @pytest.mark.parametrize("extrapolate", [False, True], ids=["raw", "extrapolate"])
    @pytest.mark.parametrize(
        "family, n_max", [("all", n) for n in (3, 4, 9, 101, 240)] + [("odd", n) for n in (2, 3, 8, 101, 240)]
    )
    def test_summary_reads_back_from_the_rows(self, tmp_path, family, n_max, extrapolate):
        # tests/readback.py recomputes every summary line from the printed rows by README's rules; on the
        # smallest tables one parity or every extrapolation is missing, and so is its line
        target = tmp_path / "distances.csv"
        argv = ["distances", "--family", family, "--n-max", str(n_max), "--out", str(target)]
        assert main(argv + ["--extrapolate"] * extrapolate) == 0
        rows, printed = readback.read(target)
        assert [int(row[0]) for row in rows] == list(range(3 if family == "all" else 2, n_max + 1))
        assert extrapolate or all(row[3] == "" for row in rows)  # no --extrapolate, no extrapolated value
        assert readback.mismatches(rows, printed, family) == []


class TestRender:
    def test_polygon_count(self, tmp_path, capsys):
        target = tmp_path / "chain.svg"
        code, _, _ = run(capsys, "render", "--n-max", "10", "--out", str(target))
        assert code == 0
        root = ET.parse(target).getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polygon")) == 8

    def test_single_triangle(self, capsys):
        code, out, _ = run(capsys, "render", "--n-max", "3")
        assert code == 0
        root = ET.fromstring(out)
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polygon")) == 1
        # the centre dot sits at y = 0, which the y-flip must not spell "-0"
        words = [word for e in root.iter() for v in e.attrib.values() for word in v.replace(",", " ").split()]
        assert "-0" not in words

    def test_overlay_adds_spiral_path(self, capsys):
        code, out, _ = run(capsys, "render", "--n-max", "30", "--overlay")
        assert code == 0
        root = ET.fromstring(out)
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polygon")) == 28
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 1

    def test_size_limit(self, capsys):
        for n_max in ("2", "101"):
            assert run(capsys, "render", "--n-max", n_max) == (2, "", "error: --n-max must be in [3, 100]\n")


class TestOptions:
    """Each subcommand declares only the options it reads."""

    def test_options_by_name(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        options = {name: {s for a in p._actions if a.dest != "help" for s in a.option_strings} for name, p in commands.items()}
        assert options == {
            "centers": {"--family", "--n-max", "--format", "--out"},
            "verify": {"--out"},
            "fit": {"--family", "--n-max", "--window", "--route", "--out"},
            "distances": {"--family", "--n-max", "--format", "--extrapolate", "--out"},
            "render": {"--n-max", "--overlay", "--out"},
        }

    def test_unknown_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["render", "--family", "all"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err
