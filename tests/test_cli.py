import argparse
import ast
import json
import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from redunquant import cli, redundancy_analysis, reporting, systemic_redundancy, verify_reliable
from redunquant.cli import main, parse_config, run_command
from redunquant.errors import ConfigSyntaxError, ConfigValidationError

from .conftest import ROOT, child_env

BUNDLED_CONFIG = ROOT / "configs" / "scalar_two_channel.json"

SCALAR_CONFIG = {
    "system": {
        "A": [[1.0]],
        "B": [[[1.0]], [[1.0]]],
        "sigma": {"type": "constant", "S": [[1.0]]},
    },
    "gains": [[[-2.0]], [[-2.0]]],
    "epsilon": 0.1,
}

DIAG_AFFINE_CONFIG = {
    "system": dict(SCALAR_CONFIG["system"], sigma={"type": "diag_affine", "c": [1.0], "s": [0.5]})
}

FULL_S_PLANE_CONFIG = {
    "system": {
        "A": [[-0.5, 0.4], [-0.3, -0.6]],
        "B": [[[1.0], [0.0]], [[0.0], [1.0]]],
        "sigma": {"type": "constant", "S": [[1.0, 0.0], [0.5, 0.8]]},
    },
    "gains": [[[-1.0, 0.0]], [[0.0, -1.0]]],
    "epsilon": 0.3,
}

D3_CONFIG = {
    "system": {
        "A": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
        "B": [[[1.0], [0.0], [0.0]]],
        "sigma": {"type": "constant", "S": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    },
    "gains": [[[0.0, 0.0, 0.0]]],
}


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        spec = parse_config(write_config(tmp_path, SCALAR_CONFIG))
        assert spec.seed == 42
        assert spec.method == "closed_form"
        assert spec.mode == 0
        assert spec.system.n_channels == 2
        assert spec.gains is not None

    def test_syntax_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"system": }')
        with pytest.raises(ConfigSyntaxError) as err:
            parse_config(path)
        assert err.value.line == 1
        assert err.value.column is not None

    def test_channel_count_mismatch(self, tmp_path):
        payload = json.loads(json.dumps(SCALAR_CONFIG))
        payload["system"]["N"] = 2
        payload["system"]["B"] = [[[1.0]], [[1.0]], [[1.0]]]
        payload["gains"] = None
        with pytest.raises(ConfigValidationError) as err:
            parse_config(write_config(tmp_path, payload))
        assert err.value.field == "system.B"

    def test_negative_epsilon(self, tmp_path):
        payload = dict(SCALAR_CONFIG, epsilon=-0.1)
        with pytest.raises(ConfigValidationError) as err:
            parse_config(write_config(tmp_path, payload))
        assert err.value.field == "epsilon"

    def test_gain_shape_mismatch(self, tmp_path):
        payload = dict(SCALAR_CONFIG, gains=[[[-2.0, 0.0]], [[-2.0]]])
        with pytest.raises(ConfigValidationError) as err:
            parse_config(write_config(tmp_path, payload))
        assert err.value.field == "gains"

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("t_list",), ["x"], "t_list"),
            (("t_list",), [True], "t_list"),
            (("system", "N"), "two", "system.N"),
            (("sim", "n_paths"), True, "sim.n_paths"),
            (("sim", "horizon"), True, "sim.horizon"),
            (("epsilon",), 10**400, "epsilon"),
            # a nested value keeps its own field
            (("system", "sigma"), {"type": "constant", "S": [[1.0, 2.0], [3.0]]}, "sigma.S"),
            (("system", "sigma"), {"type": "diag_affine", "c": [[1.0]], "s": [0.5]}, "sigma.c"),
            (("rho0",), {"mean": [0.0], "cov": "wide"}, "rho0.cov"),
            (("gains",), [[[-2.0]], [["x"]]], "gains[1]"),
            # a value that the library constructor rejects is named as its object
            (("system", "sigma"), {"type": "diag_affine", "c": [1.0], "s": [0.5, 1.0]}, "sigma"),
            (("rho0",), {"mean": [0.0], "cov": [[-1.0]]}, "rho0"),
        ],
    )
    def test_malformed_number_rejected(self, tmp_path, path, value, field):
        payload = json.loads(json.dumps(SCALAR_CONFIG))
        target = payload
        for key in path[:-1]:
            target = target.setdefault(key, {})
        target[path[-1]] = value
        with pytest.raises(ConfigValidationError) as err:
            parse_config(write_config(tmp_path, payload))
        assert err.value.field == field
        assert str(err.value).count("config field") == 1

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("grid", {"lo": [-1.0], "hi": [1.0], "n_cells": [True]}, "grid.n_cells"),
            ("grid", {"lo": [-1.0], "hi": [1.0], "n_cells": [10.5]}, "grid.n_cells"),
            ("grid", {"lo": [-1.0], "hi": [1.0], "n_cells": [1]}, "grid.n_cells"),
            ("grid", {"lo": [-1.0], "hi": [1.0], "n_cells": 10}, "grid.n_cells"),
            ("sim", {"horizon": 0.001, "dt": 0.01}, "sim.horizon"),
            ("schema_version", "banana", "schema_version"),
            ("schema_version", 2, "schema_version"),
            ("schema_version", None, "schema_version"),
            # the synthesis ladder has no settings, so no synthesis object
            ("synthesis", {"Q_weight": [[1.0]]}, "synthesis"),
            ("synthesis", {"R_weights": [[[1.0]], [[1.0]]]}, "synthesis"),
            ("system", dict(SCALAR_CONFIG["system"], n=2), "system.n"),
            (
                "system",
                dict(SCALAR_CONFIG["system"], sigma=dict(SCALAR_CONFIG["system"]["sigma"], s=[1.0])),
                "sigma.s",
            ),
            ("rho0", {"mean": [0.0], "cov": [[1.0]], "mea": [0.0]}, "rho0.mea"),
            ("grid", {"lo": [-1.0], "hi": [1.0], "n_cells": [10], "n_cell": [5]}, "grid.n_cell"),
            ("epsilon", [], "epsilon"),
            ("method", "nope", "method"),
            ("t_list", [], "t_list"),
            ("t_list", [1.0, -0.5], "t_list"),
            ("sim", {"horizon": 0}, "sim.horizon"),
            ("sim", {"dt": -1.0}, "sim.dt"),
        ],
        ids=[
            "n_cells_bool",
            "n_cells_fraction",
            "n_cells_one",
            "n_cells_scalar",
            "horizon_below_dt",
            "schema_version_string",
            "schema_version_int",
            "schema_version_null",
            "synthesis_Q_weight",
            "synthesis_R_weights",
            "system_n",
            "sigma_s_on_constant",
            "rho0_mea",
            "grid_n_cell",
            "epsilon_empty",
            "method_unknown",
            "t_list_empty",
            "t_list_negative",
            "horizon_zero",
            "dt_negative",
        ],
    )
    def test_rejected_at_parse_time(self, tmp_path, key, value, field):
        # parse_config rejects each of these before any command runs
        with pytest.raises(ConfigValidationError) as err:
            parse_config(write_config(tmp_path, dict(SCALAR_CONFIG, **{key: value})))
        assert err.value.field == field

    def test_unknown_key_rejected(self, tmp_path):
        payload = dict(SCALAR_CONFIG, epsilonn=0.1)
        with pytest.raises(ConfigValidationError):
            parse_config(write_config(tmp_path, payload))

    def test_gains_from_synth_report(self, tmp_path):
        config = write_config(tmp_path, {k: v for k, v in SCALAR_CONFIG.items() if k != "gains"})
        out = tmp_path / "synth"
        assert run_command("synth", parse_config(config), out) == 0
        payload = dict(SCALAR_CONFIG, gains=str(out / "report.json"))
        spec = parse_config(write_config(tmp_path, payload, "second.json"))
        assert spec.gains is not None
        assert spec.gains_source.startswith("report:")

    def test_readme_schema_lists_every_accepted_key(self):
        # a setting that parse_config accepts must appear in the README schema:
        # its first jsonc block is the whole config, its second the sigma forms
        readme = (ROOT / "README.md").read_text()
        schema, sigmas = (
            json.loads(re.sub(r"//.*", "", block.split("```", 1)[0]).replace("...", "0"))
            for block in readme.split("```jsonc\n")[1:3]
        )
        objects = {cli._ROOT: schema, **schema, **schema["system"]}
        documented = {name: set(objects[name]) for name in cli._KEYS}
        documented["sigma"] = {form["type"]: set(form) for form in sigmas}
        assert documented == cli._KEYS

    def test_readme_quick_start_runs(self):
        # the library quick start runs as printed, and each annotated
        # expression gives the value of its comment at the printed precision
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## Library quick start\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        lines = block.splitlines()
        namespace, shown = {}, []
        for stmt in ast.parse(block).body:
            source = ast.get_source_segment(block, stmt)
            if not isinstance(stmt, ast.Expr):
                exec(source, namespace)
                continue
            printed = lines[stmt.end_lineno - 1].split("#", 1)[1].strip().split(" bits")[0]
            value = eval(source, namespace)
            if printed.startswith("["):
                text = np.array2string(np.asarray(value), separator=", ")
            else:
                text = f"{value:.{len(printed.split('.')[1])}f}"
            assert text == printed
            shown.append(printed)
        assert shown == ["[-3., -1., -1.]", "2.8924", "1.7000"]

    def test_readme_cli_section_matches_parser(self):
        # a command, option or choice must appear in the README's usage block
        # and command table under the name the parser accepts
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\nExit codes:", 1)[0]
        _, usage, table = section.split("```", 2)
        commands = next(
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        assert re.findall(r"^\| `([\w-]+)`", table, re.M) == list(commands) == list(cli.COMMANDS)
        for sub in commands.values():
            options = [a for a in sub._actions if a.dest != "help"]
            assert set(re.findall(r"--[\w-]+", usage)) == {o.option_strings[0] for o in options}
            for option in options:
                if option.choices is not None:
                    shown = re.search(rf"{option.option_strings[0]} ([\w|]+)", usage).group(1)
                    assert shown.split("|") == list(option.choices)


class TestRunCommand:
    def test_verify_reliable_exit0(self, tmp_path):
        spec = parse_config(write_config(tmp_path, SCALAR_CONFIG))
        out = tmp_path / "out"
        assert run_command("verify", spec, out) == 0
        report = reporting.parse_report(out / "report.json")
        np.testing.assert_allclose(
            report["outputs"]["reliability"]["abscissae"], [-3.0, -1.0, -1.0]
        )
        assert report["schema_version"] == "1"

    def test_verify_marginal_exit2(self, tmp_path, capsys):
        payload = dict(SCALAR_CONFIG, gains=[[[-1.0]], [[-1.0]]])
        spec = parse_config(write_config(tmp_path, payload))
        assert run_command("verify", spec, tmp_path / "out") == 2

    def test_redundancy_scalar_value(self, tmp_path):
        spec = parse_config(write_config(tmp_path, SCALAR_CONFIG))
        out = tmp_path / "out"
        assert run_command("redundancy", spec, out) == 0
        report = reporting.parse_report(out / "report.json")
        assert report["outputs"]["redundancy"]["r"] == pytest.approx(2.8924, abs=1e-3)
        assert report["outputs"]["redundancy"]["method"] == "closed_form"

    def test_redundancy_unreliable_exit2(self, tmp_path):
        payload = {
            "system": {
                "A": [[1.0]],
                "B": [[[1.0]]],
                "sigma": {"type": "constant", "S": [[1.0]]},
            },
            "gains": [[[-2.0]]],
            "epsilon": 0.1,
        }
        spec = parse_config(write_config(tmp_path, payload))
        assert run_command("redundancy", spec, tmp_path / "out") == 2

    def test_synthesis_failure_exit2(self, tmp_path):
        payload = {
            "system": {
                "A": [[1.0]],
                "B": [[[1.0]], [[0.0]]],
                "sigma": {"type": "constant", "S": [[1.0]]},
            },
            "epsilon": 0.1,
        }
        spec = parse_config(write_config(tmp_path, payload))
        assert run_command("synth", spec, tmp_path / "out") == 2

    def test_unstabilizable_synth_exit2(self, tmp_path, capsys):
        payload = json.loads(BUNDLED_CONFIG.read_text())
        payload["system"]["B"] = [[[0.0]], [[0.0]]]
        spec = parse_config(write_config(tmp_path, payload))
        assert run_command("synth", spec, tmp_path / "out") == 2
        assert "not stabilizable" in capsys.readouterr().err

    def test_numerical_failure_exit3(self, tmp_path):
        # grid solve on a non-Hurwitz mode
        payload = {
            "system": {
                "A": [[1.0]],
                "B": [[[1.0]]],
                "sigma": {"type": "constant", "S": [[1.0]]},
            },
            "gains": [[[-2.0]]],
            "epsilon": 0.5,
            "mode": 1,
        }
        spec = parse_config(write_config(tmp_path, payload))
        assert run_command("fp-grid", spec, tmp_path / "out") == 3

    def test_sweep_eps_files(self, tmp_path):
        payload = dict(SCALAR_CONFIG, epsilon=[1.0, 0.5, 0.25])
        spec = parse_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        assert run_command("sweep-eps", spec, out) == 0
        csv_lines = (out / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 4  # header + 3 rows
        assert csv_lines[0] == "epsilon,r,avg_term,entropy_term,kl_1,kl_2"
        report = reporting.parse_report(out / "report.json")
        assert report["outputs"]["sweep"]["notes"]["claim_consistent_with_data"] is False

    def test_sweep_eps_grid_uses_configured_box(self, tmp_path):
        payload = dict(SCALAR_CONFIG, epsilon=[0.5, 0.25])
        payload["grid"] = {"lo": [-2.5], "hi": [3.0], "n_cells": [301]}
        spec = parse_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        assert run_command("sweep-eps", spec, out, method="grid") == 0
        rows = reporting.parse_report(out / "report.json")["outputs"]["sweep"]["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["provenance"]["grid_lo"] == [-2.5]
            assert row["provenance"]["grid_hi"] == [3.0]
            assert row["provenance"]["grid_cells"] == [301]

    def test_sweep_time_files(self, tmp_path):
        payload = dict(SCALAR_CONFIG)
        payload["t_list"] = [0.0, 0.5]
        payload["rho0"] = {"mean": [0.0], "cov": [[1.0]]}
        spec = parse_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        assert run_command("sweep-time", spec, out) == 0
        report = reporting.parse_report(out / "report.json")
        rows = report["outputs"]["sweep"]["rows"]
        assert rows[0]["r"] == pytest.approx(-2.0471, abs=1e-3)
        assert rows[1]["r"] == pytest.approx(1.7000, abs=1e-3)

    def test_sweep_time_underflowed_flow_gives_inf_row(self, tmp_path):
        # the nominal pushforward variance e^{-6t} underflows to 0 by t = 150
        payload = dict(json.loads(BUNDLED_CONFIG.read_text()), t_list=[1.0, 120.0, 150.0])
        spec = parse_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        assert run_command("sweep-time", spec, out) == 0
        rows = reporting.parse_report(out / "report.json")["outputs"]["sweep"]["rows"]
        assert rows[1]["r"] == pytest.approx(1.0434e208, rel=1e-3)
        assert rows[2]["r"] == "inf"
        assert rows[2]["kl_per_channel"] == ["inf", "inf"]
        assert (out / "sweep.csv").read_text().splitlines()[3].startswith("150.0,inf,inf,")

    def test_simulate_writes_moments(self, tmp_path):
        payload = dict(SCALAR_CONFIG)
        payload["sim"] = {"n_paths": 2000, "horizon": 5.0, "dt": 1e-2}
        spec = parse_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        assert run_command("simulate", spec, out) == 0
        report = reporting.parse_report(out / "report.json")
        sim = report["outputs"]["simulation"]
        assert sim["n_paths"] == 2000
        assert sim["seed"] == 42

    def test_simulate_histogram_on_covering_grid(self, tmp_path):
        # the stationary law has std 0.04, so [-0.5, 0.5] holds every sample
        grid = {"lo": [-0.5], "hi": [0.5], "n_cells": [25]}
        payload = dict(SCALAR_CONFIG, sim={"n_paths": 2000}, grid=grid)
        out = tmp_path / "out"
        assert run_command("simulate", parse_config(write_config(tmp_path, payload)), out) == 0
        histogram = reporting.parse_report(out / "report.json")["outputs"]["histogram"]
        assert histogram["leakage"] == 0.0
        assert histogram["n_cells"] == [25]
        assert sum(histogram["values"]) * (1.0 / 25) == pytest.approx(1.0, abs=1e-12)

    def test_synth_verifies_once(self, tmp_path, monkeypatch):
        # the winning rung's report is the one written; the CLI does not verify again
        calls = []

        def counting(*args):
            calls.append(args)
            return verify_reliable(*args)

        monkeypatch.setattr(cli, "verify_reliable", counting)
        out = tmp_path / "out"
        assert run_command("synth", parse_config(write_config(tmp_path, SCALAR_CONFIG)), out) == 0
        outputs = reporting.parse_report(out / "report.json")["outputs"]
        assert outputs["reliability"]["reliable"] is True
        assert calls == []

    def test_simulate_single_path_covariance_is_nan(self, tmp_path, capsys):
        payload = dict(SCALAR_CONFIG, sim={"n_paths": 1})
        spec = parse_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        assert run_command("simulate", spec, out) == 0
        sim = reporting.parse_report(out / "report.json")["outputs"]["simulation"]
        assert sim["covariance"] == [["nan"]]
        assert capsys.readouterr().err == ""

    def test_redundancy_without_gains_synthesizes(self, tmp_path):
        payload = {k: v for k, v in SCALAR_CONFIG.items() if k != "gains"}
        spec = parse_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        assert run_command("redundancy", spec, out) == 0
        report = reporting.parse_report(out / "report.json")
        assert report["outputs"]["gains_source"] == "synthesized"

    def test_fp_grid_density(self, tmp_path):
        payload = {
            "system": {
                "A": [[-1.0]],
                "B": [[[1.0]]],
                "sigma": {"type": "constant", "S": [[1.0]]},
            },
            "gains": [[[0.0]]],
            "epsilon": 1.0,
            "grid": {"lo": [-6.0], "hi": [6.0], "n_cells": [401]},
        }
        spec = parse_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        assert run_command("fp-grid", spec, out) == 0
        report = reporting.parse_report(out / "report.json")
        density = report["outputs"]["stationary_density"]
        values = np.array(density["values"])
        assert values.sum() * (12.0 / 401) == pytest.approx(1.0, abs=1e-8)
        assert density["fp_residual"] < 1e-2


class TestReportDeterminism:
    def test_emit_is_byte_deterministic(self, tmp_path):
        report = {"b": 1.5, "a": [math.pi, 2, True, None, "x"], "nested": {"k": 0.1}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        reporting.emit_report(report, p1)
        reporting.emit_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip(self, tmp_path):
        report = reporting.sanitize(
            {"x": 0.1, "y": [1.0, 2.5e-300, -0.0], "inf": math.inf, "s": "text", "n": None}
        )
        path = tmp_path / "r.json"
        reporting.emit_report(report, path)
        assert reporting.parse_report(path) == report

    def test_nonfinite_become_sentinels(self):
        out = reporting.sanitize({"kl": math.inf, "bad": math.nan, "neg": -math.inf})
        assert out == {"kl": "inf", "bad": "nan", "neg": "-inf"}

    def test_shortest_round_trip_rendering(self):
        assert reporting.dumps_canonical([0.1, -3.0]) == "[\n  0.1,\n  -3.0\n]"

    def test_floats_round_trip_as_floats(self, tmp_path):
        values = [1.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
        path = tmp_path / "r.json"
        reporting.emit_report({"values": values}, path)
        back = reporting.parse_report(path)["values"]
        assert all(type(v) is float for v in back)
        assert back == values
        assert [math.copysign(1.0, v) for v in back] == [math.copysign(1.0, v) for v in values]

    def test_result_dataclasses_become_field_dicts(self, scalar_two_channel):
        system, gains = scalar_two_channel
        reliability = reporting.sanitize(verify_reliable(system, gains))
        assert reliability == {"abscissae": [-3.0, -1.0, -1.0], "margin": 1.0, "reliable": True}
        redundancy = reporting.sanitize(systemic_redundancy(system, gains, 0.1))
        assert set(redundancy) == {
            "epsilon", "t", "kl_per_channel", "avg_term", "entropy_term",
            "r", "method", "provenance",
        }
        assert isinstance(redundancy["kl_per_channel"], list)
        assert isinstance(redundancy["provenance"], dict)


class TestMainEntryPoint:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "redunquant", *args],
            capture_output=True,
            text=True,
            env=child_env(),
        )

    def test_full_invocation(self, tmp_path):
        config = write_config(tmp_path, SCALAR_CONFIG)
        out = tmp_path / "out"
        result = self.run_cli("redundancy", "--config", str(config), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert (out / "report.json").exists()
        assert (out / "meta.json").exists()

    def test_invalid_config_exit1(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{nope")
        result = self.run_cli("verify", "--config", str(config), "--out", str(tmp_path / "o"))
        assert result.returncode == 1
        assert "error" in result.stderr

    def test_sweep_eps_byte_identical_runs(self, tmp_path):
        payload = dict(SCALAR_CONFIG, epsilon=[1.0, 0.5])
        config = write_config(tmp_path, payload)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = self.run_cli(
                "sweep-eps", "--config", str(config), "--out", str(out), "--seed", "7"
            )
            assert result.returncode == 0, result.stderr
            outs.append(out)
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()

    def test_monte_carlo_redundancy_byte_identical_runs(self, tmp_path):
        config = write_config(tmp_path, SCALAR_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = self.run_cli(
                "redundancy", "--config", str(config), "--out", str(out),
                "--method", "monte_carlo", "--seed", "7",
            )
            assert result.returncode == 0, result.stderr
            outs.append(out)
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        report = reporting.parse_report(outs[0] / "report.json")
        assert report["outputs"]["redundancy"]["provenance"]["sampler"] == "exact_endpoint"

    def test_stepped_monte_carlo_redundancy_byte_identical_runs(self, tmp_path):
        sim = {"n_paths": 200, "horizon": 2.0, "dt": 1e-3}
        config = write_config(tmp_path, dict(SCALAR_CONFIG, **DIAG_AFFINE_CONFIG, sim=sim))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = self.run_cli(
                "redundancy", "--config", str(config), "--out", str(out),
                "--method", "monte_carlo", "--seed", "7",
            )
            assert result.returncode == 0, result.stderr
            outs.append(out)
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        report = reporting.parse_report(outs[0] / "report.json")
        assert report["outputs"]["redundancy"]["provenance"]["sampler"] == "euler_two_point"

    def test_rotated_grid_redundancy_byte_identical_runs(self, tmp_path):
        config = write_config(tmp_path, FULL_S_PLANE_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = self.run_cli(
                "redundancy", "--config", str(config), "--out", str(out), "--method", "grid"
            )
            assert result.returncode == 0, result.stderr
            outs.append(out)
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        report = reporting.parse_report(outs[0] / "report.json")
        frame = report["outputs"]["redundancy"]["provenance"]["grid_frame"]
        assert np.array(frame) @ np.array(frame).T == pytest.approx(np.eye(2), abs=1e-12)

    def test_numpy_only_commands_do_not_import_scipy(self, tmp_path):
        # one fresh interpreter: importing scipy.linalg costs about half of a
        # short CLI process, so only commands that call a scipy kernel load it
        payload = dict(json.loads(BUNDLED_CONFIG.read_text()), sim={"n_paths": 2000})
        config = write_config(tmp_path, payload)
        script = textwrap.dedent(
            f"""
            import sys

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            from redunquant import cli

            assert not scipy_modules(), scipy_modules()
            common = ["--config", {str(config)!r}, "--out", {str(tmp_path / "o")!r}]
            for argv in (["verify"], ["simulate"], ["redundancy", "--method", "monte_carlo"]):
                assert cli.main(argv + common) == 0, argv
                assert not scipy_modules(), (argv, scipy_modules())
            assert cli.main(["redundancy"] + common) == 0
            assert "scipy.linalg" in sys.modules
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
        )
        assert result.returncode == 0, result.stderr

    def test_import_loads_no_thread_pool(self):
        # the stepped sampler runs on the calling thread, so a CLI process
        # pays for neither concurrent.futures nor the logging it imports
        script = (
            "import sys, redunquant.cli; "
            "assert not {'concurrent.futures', 'logging'} & set(sys.modules), sys.modules.keys()"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
        )
        assert result.returncode == 0, result.stderr


class TestExitCodes:
    """Exit 1 means an invalid configuration or invocation, whatever caught it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--out", "unused"],
            ["nope", "--config", str(BUNDLED_CONFIG), "--out", "unused"],
            ["redundancy", "--config", str(BUNDLED_CONFIG), "--out", "unused", "--method", "nope"],
        ],
    )
    def test_usage_error_exit1(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_option_exit1(self, tmp_path, capsys):
        out = tmp_path / "new"
        code = main(
            ["simulate", "--config", str(BUNDLED_CONFIG), "--out", str(out), "--seed", "-1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: option '--seed'" in err
        assert "config field" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cmd, options",
        [
            ("simulate", {"seed": -1}),
            ("redundancy", {"method": "nope"}),
            ("verify", {}),  # the config has no gains
        ],
        ids=["seed", "method", "verify_without_gains"],
    )
    def test_rejected_invocation_creates_no_out_dir(self, tmp_path, cmd, options):
        config = write_config(tmp_path, {k: v for k, v in SCALAR_CONFIG.items() if k != "gains"})
        out = tmp_path / "new"
        with pytest.raises(ConfigValidationError):
            run_command(cmd, parse_config(config), out, **options)
        assert not out.exists()

    @pytest.mark.parametrize(
        "option",
        [["--avg-normalization", "mean"], ["--paper-literal-jacobian"]],
        ids=["avg_normalization", "paper_literal_jacobian"],
    )
    def test_removed_option_is_usage_error(self, tmp_path, option, capsys):
        # r always takes the paper's 1/(2N), and the literal Jacobian cancels from r_t
        out = tmp_path / "new"
        with pytest.raises(SystemExit) as exit_:
            main(["redundancy", "--config", str(BUNDLED_CONFIG), "--out", str(out), *option])
        assert exit_.value.code == 1
        assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_synthesis_object_exit1(self, tmp_path, capsys):
        # the synthesis ladder has fixed bounds, so even an empty object is rejected
        payload = dict(json.loads(BUNDLED_CONFIG.read_text()), synthesis={})
        out = tmp_path / "new"
        code = main(["synth", "--config", str(write_config(tmp_path, payload)), "--out", str(out)])
        assert code == 1
        assert "error: config field 'synthesis': unknown" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, sim, field",
        [
            (["simulate"], {"horizon": 1e-5}, "sim.horizon"),
            (["redundancy", "--method", "monte_carlo"], {"horizon": 1e-5}, "sim.horizon"),
            (["sweep-eps", "--method", "monte_carlo"], {"horizon": 1e-5}, "sim.horizon"),
            (["simulate"], {"dt": 100.0}, "sim.dt"),
        ],
        ids=["simulate", "redundancy", "sweep-eps", "simulate-dt"],
    )
    def test_less_than_one_default_step_exit1(self, tmp_path, argv, sim, field, capsys):
        # the other of sim.horizon and sim.dt takes its per-mode default
        payload = dict(json.loads(BUNDLED_CONFIG.read_text()), sim=sim)
        out = tmp_path / "new"
        code = main(argv + ["--config", str(write_config(tmp_path, payload)), "--out", str(out)])
        assert code == 1
        assert f"error: config field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, sim, field",
        [
            (["simulate"], {"horizon": 1e300, "dt": 1e-300}, "sim.horizon"),
            (
                ["redundancy", "--method", "monte_carlo"],
                {"horizon": 1e300, "dt": 1e-300},
                "sim.horizon",
            ),
            (["simulate"], {"dt": 1e-310}, "sim.dt"),
        ],
        ids=["simulate", "redundancy", "simulate-default-horizon"],
    )
    def test_step_count_overflow_exit1(self, tmp_path, monkeypatch, argv, sim, field, capsys):
        # each value is valid alone; horizon / dt overflows to inf
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(cli, "simulate_sde", no_sampling)
        monkeypatch.setattr(redundancy_analysis, "simulate_sde", no_sampling)
        payload = dict(SCALAR_CONFIG, **DIAG_AFFINE_CONFIG, sim=sim)
        out = tmp_path / "new"
        code = main(argv + ["--config", str(write_config(tmp_path, payload)), "--out", str(out)])
        assert code == 1
        assert f"error: config field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, sigma, key",
        [
            ((), None, "bogus"),
            (("system",), None, "bogus"),
            (("system", "sigma"), None, "bogus"),
            (("system", "sigma"), DIAG_AFFINE_CONFIG["system"]["sigma"], "bogus"),
            (("rho0",), None, "bogus"),
            (("grid",), None, "bogus"),
            (("sim",), None, "bogus"),
            # the histogram cell count follows from sim.n_paths; it is no setting
            (("sim",), None, "hist_cells"),
        ],
        ids=[
            "root", "system", "sigma_constant", "sigma_diag_affine", "rho0", "grid", "sim",
            "sim_hist_cells",
        ],
    )
    def test_unknown_key_of_every_object_exit1(self, tmp_path, path, sigma, key, capsys):
        payload = dict(
            json.loads(json.dumps(SCALAR_CONFIG)),
            rho0={"mean": [0.0], "cov": [[1.0]]},
            grid={"lo": [-1.0], "hi": [1.0], "n_cells": [10]},
            sim={},
        )
        if sigma is not None:
            payload["system"]["sigma"] = dict(sigma)
        target = payload
        for name in path:
            target = target[name]
        target[key] = 1
        field = ".".join([*path[-1:], key])
        out = tmp_path / "new"
        code = main(["verify", "--config", str(write_config(tmp_path, payload)), "--out", str(out)])
        assert code == 1
        assert f"error: config field '{field}': unknown" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sim, code",
        [(None, 1), ({"dt": 0.01}, 1), ({"horizon": 1.0}, 0)],
        ids=["no_sim", "dt_only", "horizon_only"],
    )
    def test_simulate_non_hurwitz_mode(self, tmp_path, sim, code, capsys):
        # with one channel out, A_1 = 1 - 1 = 0: no stationary horizon to
        # default to, but any configured horizon runs
        payload = dict(json.loads(BUNDLED_CONFIG.read_text()), gains=[[[-1.0]], [[-1.0]]], mode=1)
        if sim is not None:
            payload["sim"] = sim
        out = tmp_path / "new"
        argv = ["simulate", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]
        assert main(argv) == code
        if code == 1:
            assert "error: config field 'sim.horizon'" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert (out / "report.json").exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["redundancy"], DIAG_AFFINE_CONFIG, "requires constant sigma"),
            (["redundancy", "--method", "grid"], D3_CONFIG, "supports d in {1, 2}"),
            (["redundancy", "--method", "monte_carlo"], D3_CONFIG, "supports d <= 2"),
            (["fp-grid"], D3_CONFIG, "supports d in {1, 2}"),
            (
                ["simulate"],
                # the stationary law has std 0.04, so 96.5 % of the samples miss the box
                {"sim": {"n_paths": 2000}, "grid": {"lo": [0.07], "hi": [1.0], "n_cells": [10]}},
                "fell outside the box; enlarge it",
            ),
            (["verify"], {"gains": [[[-2.0]]]}, "config field 'gains': gain set has 1 channels"),
            (["redundancy"], {"epsilon": [0.1, 0.2]}, "config field 'epsilon': this command needs"),
            (["sweep-eps"], {"epsilon": None}, "config field 'epsilon': sweep-eps needs"),
            (["sweep-time"], {"t_list": None}, "config field 't_list': sweep-time needs"),
        ],
        ids=[
            "closed_form_diag_affine", "grid_d3", "monte_carlo_d3", "fp_grid_d3", "simulate_box",
            "gains_too_few", "redundancy_epsilon_list", "sweep_eps_no_epsilon",
            "sweep_time_no_t_list",
        ],
    )
    def test_unsupported_configuration_exit1(self, tmp_path, argv, config, message, capsys):
        # the command cannot take the configuration: exit 1, not a numerical
        # failure; a None value leaves the key out of the config
        payload = {k: v for k, v in dict(SCALAR_CONFIG, **config).items() if v is not None}
        out = tmp_path / "new"
        code = main(argv + ["--config", str(write_config(tmp_path, payload)), "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, field",
        [
            (["sweep-time"], {"t_list": [1.0, 1.0]}, "t_list"),
            (["sweep-eps"], {"epsilon": [0.1, 0.1]}, "epsilon"),
        ],
        ids=["sweep_time", "sweep_eps"],
    )
    def test_repeated_sweep_value_exit1(self, tmp_path, argv, config, field, capsys):
        # one sweep row per value: a repeat is a configuration error, not a numerical one
        payload = dict(SCALAR_CONFIG, **config)
        out = tmp_path / "new"
        code = main(argv + ["--config", str(write_config(tmp_path, payload)), "--out", str(out)])
        assert code == 1
        assert f"error: config field '{field}': entries must be distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "report", [[1, 2], {"outputs": [1]}], ids=["report_list", "outputs_list"]
    )
    def test_gains_report_not_an_object_exit1(self, tmp_path, report, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        payload = dict(SCALAR_CONFIG, gains=str(path))
        out = tmp_path / "new"
        code = main(["verify", "--config", str(write_config(tmp_path, payload)), "--out", str(out)])
        assert code == 1
        assert "error: config field 'gains'" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exit0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--help"])
        assert exit_.value.code == 0
        assert "--config" in capsys.readouterr().out
