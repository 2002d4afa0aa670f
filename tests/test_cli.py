import argparse
import json
import xml.etree.ElementTree as ET

import pytest

from polyspiral import asymptotics as asym
from polyspiral.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCenters:
    def test_seed_row_bytes(self, capsys):
        code, out, _ = run(capsys, "centers", "--family", "all", "--n-max", "3")
        assert code == 0
        assert out == "n,re,im\n3,-0.288675134594813,0\n"

    def test_fourth_center_row(self, capsys):
        code, out, _ = run(capsys, "centers", "--family", "all", "--n-max", "4")
        assert code == 0
        assert out.splitlines()[2] == "4,-0.68301270189222,-0.683012701892219"

    def test_odd_family_first_row(self, capsys):
        code, out, _ = run(capsys, "centers", "--family", "odd", "--n-max", "2")
        assert code == 0
        assert out.splitlines()[1] == "2,-0.4884330474152,-0.845990854218825"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "centers", "--family", "all", "--n-max", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "all"
        assert payload["records"][0]["n"] == 3

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

    @pytest.mark.parametrize(
        "pair", ["no-such-name=1", "gap-tolerance", "gap-tolerance=abc", "gap-tolerance=nan", "gap-tolerance=inf"]
    )
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, pair):
        # the bounds are fixed: no flag and no config key overrides one, whatever the name or value
        with pytest.raises(SystemExit) as exc:
            main(["verify", "harmonic", "--tolerance", pair])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
        name, _, value = pair.partition("=")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tolerances": {name: value}}))
        code, out, err = run(capsys, "verify", "harmonic", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: bad config file {cfg}: unknown key 'tolerances'; choose from " + (
            "['family', 'n_max', 'window', 'format', 'out', 'extrapolate']\n"
        )


class TestFitAndDistances:
    def test_fit_json(self, capsys):
        code, out, _ = run(capsys, "fit", "--family", "all", "--n-max", "200", "--window", "100:200")
        assert code == 0
        info = json.loads(out)
        assert info["route"] == "approximant"
        assert info["rotation"] == pytest.approx(1.9954812913476028, abs=1e-6)

    def test_distances_csv_schema(self, capsys):
        code, out, _ = run(capsys, "distances", "--family", "all", "--n-max", "240", "--extrapolate")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,parity,distance,extrapolated"
        assert lines[1].startswith("3,odd,")
        assert any(line.startswith("# extrapolated_mean_even=") for line in lines)
        assert any(line.startswith("# target_combined_mean=") for line in lines)

    def test_distances_json_summary_targets(self, capsys):
        code, out, _ = run(capsys, "distances", "--family", "all", "--n-max", "240", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["records", "summary"]
        assert payload["summary"]["target_even"] == pytest.approx(5.0 / 6.0)
        assert payload["summary"]["target_odd"] == pytest.approx(7.0 / 12.0)
        assert payload["summary"]["raw_mean_even"] == pytest.approx(5.0 / 6.0, abs=5e-3)

    def test_determinism_small(self, capsys):
        args = ("distances", "--family", "all", "--n-max", "240", "--extrapolate")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_window_must_fit(self, capsys):
        code, _, _ = run(capsys, "fit", "--n-max", "100", "--window", "50:200")
        assert code == 2
        code, _, _ = run(capsys, "fit", "--n-max", "100", "--window", "banana")
        assert code == 2

    def test_odd_family_default_window_too_short(self, capsys):
        code, out, err = run(capsys, "fit", "--family", "odd", "--n-max", "2")
        assert code == 2
        assert out == "" and err.startswith("error: fit window 2:2: window length must be >= 8")

    def test_odd_family_approximant_fit(self, capsys):
        code, out, _ = run(capsys, "fit", "--family", "odd", "--n-max", "100")
        assert code == 0
        info = json.loads(out)
        assert info["route"] == "approximant" and info["objective"] is None
        assert info["parity_mean"]["even"] == pytest.approx(7.0 / 24.0, abs=1e-4)
        # residuals of the approximant fit decay like 1/n; it evaluates no objective
        assert info["residual_slope"] == pytest.approx(-1.0, abs=0.1) and info["evaluations"] == 0

    def test_odd_family_spiral_route_is_warm_started(self, capsys):
        code, out, _ = run(capsys, "fit", "--family", "odd", "--n-max", "400", "--window", "100:200", "--route", "spiral")
        assert code == 0
        info = json.loads(out)
        assert info["route"] == "spiral" and info["objective"] <= 1e-10
        assert info["parity_mean"]["odd"] == pytest.approx(7.0 / 24.0, abs=1e-4)
        # the slope comes from the final parity-centred residuals, which shrink across the window
        assert info["residual_slope"] < 0 and info["evaluations"] == 5

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

    def test_odd_family_distances_summary(self, capsys):
        code, out, _ = run(capsys, "distances", "--family", "odd", "--n-max", "400", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["target_even"] == pytest.approx(7.0 / 24.0)
        assert payload["summary"]["raw_mean_even"] == pytest.approx(7.0 / 24.0, abs=5e-3)
        assert payload["summary"]["raw_mean_odd"] == pytest.approx(7.0 / 24.0, abs=5e-3)


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

    def test_overlay_adds_spiral_path(self, capsys):
        code, out, _ = run(capsys, "render", "--n-max", "30", "--overlay")
        assert code == 0
        root = ET.fromstring(out)
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polygon")) == 28
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 1

    def test_size_limit(self, capsys):
        code, _, _ = run(capsys, "render", "--n-max", "101")
        assert code == 2


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "all", "n_max": 5, "format": "csv"}))
        code, out, _ = run(capsys, "centers", "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 4  # header + rows 3..5

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_max": 5}))
        code, out, _ = run(capsys, "centers", "--config", str(cfg), "--n-max", "4")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "centers", "--config", str(tmp_path / "none.json"))
        assert code == 3

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("centers", "{not json", "bad config file"),
            ("centers", "[1, 2]", "bad config file"),
            ("centers", '{"family": "bogus"}', "bad config file"),
            ("centers", '{"n_max": "abc"}', "bad config file"),
            ("centers", '{"n_max": 5.9}', "bad config file"),
            ("centers", '{"n_max": true}', "bad config file"),
            ("distances", '{"n_max": 40, "extrapolate": "false"}', "bad config file"),
            ("centers", '{"window": [1]}', "bad config file"),
            ("centers", '{"window": [100.9, 200.2]}', "bad config file"),
            ("centers", '{"window": [true, 9]}', "bad config file"),
            ("centers", '{"out": null}', "bad config file"),
            ("centers", '{"format": "xml"}', "format must be"),
            ("centers", '{"tolerances": {"gap-tolerance": "nan"}}', "bad config file"),
            ("centers", '{"nmax": 5}', "bad config file"),
            ("centers", b"\xff\xfe", "bad config file"),
            ("fit", '{"n_max": 10}', "fit window"),  # default window too short for the fit
            ("fit", '{"family": "odd", "n_max": 20}', "fit window"),
            ("fit", '{"n_max": 3}', "fit window"),
        ],
        ids=[
            "not-json", "not-object", "family", "n-max", "n-max-float", "n-max-bool", "extrapolate-string",
            "window", "window-float", "window-bool", "out-null", "format", "tolerance", "nmax", "not-utf-8",
            "fit-window-all", "fit-window-odd", "fit-n-max-3",
        ],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, monkeypatch, capsys, command, text, message):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == "" and err.startswith(f"error: {message}")
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_config_window_leaves_distances_unchanged(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"window": "5:9"}))
        args = ("distances", "--n-max", "300", "--extrapolate")
        _, plain, _ = run(capsys, *args)
        code, configured, _ = run(capsys, *args, "--config", str(cfg))
        assert code == 0 and configured == plain

    @pytest.mark.parametrize("command", ["centers", "render"])
    def test_config_window_is_checked_only_by_fit(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"window": "5:9"}))
        code, out, err = run(capsys, command, "--n-max", "5", "--config", str(cfg))
        assert code == 0 and out and err == ""
        code, out, err = run(capsys, "fit", "--n-max", "5", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: --window must satisfy 3 <= A < B <= n_max\n"


class TestOptions:
    """Each subcommand declares only the options it reads."""

    def test_option_count(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        counts = {name: sum(bool(a.option_strings) and a.dest != "help" for a in p._actions) for name, p in commands.items()}
        assert counts == {"centers": 5, "verify": 2, "fit": 6, "distances": 6, "render": 4}

    @pytest.mark.parametrize(
        "argv",
        [
            "distances --route spiral",
            "distances --window 5:9",
            "centers --window 5:9",
            "verify all --n-max 5",
            "verify all --tolerance a=1",
            "render --family all",
        ],
    )
    def test_dead_option_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err
