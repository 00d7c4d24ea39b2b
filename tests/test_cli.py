import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from redunquant import reporting
from redunquant.cli import main, parse_config, run_command
from redunquant.errors import ConfigSyntaxError, ConfigValidationError

BUNDLED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "scalar_two_channel.json"

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
        assert err.value.field == "B"

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
            (("system", "N"), "two", "N"),
            (("synthesis", "theta_max"), "big", "synthesis.theta_max"),
            (("synthesis", "margin_floor"), [1], "synthesis.margin_floor"),
            (("sim", "n_paths"), True, "sim.n_paths"),
            (("sim", "hist_cells"), False, "sim.hist_cells"),
            (("sim", "horizon"), True, "sim.horizon"),
            (("epsilon",), 10**400, "epsilon"),
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

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("grid", {"lo": [-1.0], "hi": [1.0], "n_cells": [True]}, "grid.n_cells"),
            ("grid", {"lo": [-1.0], "hi": [1.0], "n_cells": [10.5]}, "grid.n_cells"),
            ("grid", {"lo": [-1.0], "hi": [1.0], "n_cells": [1]}, "grid.n_cells"),
            ("grid", {"lo": [-1.0], "hi": [1.0], "n_cells": 10}, "grid.n_cells"),
            ("sim", {"horizon": 0.001, "dt": 0.01}, "sim.horizon"),
        ],
        ids=["n_cells_bool", "n_cells_fraction", "n_cells_one", "n_cells_scalar", "horizon_below_dt"],
    )
    def test_rejected_at_parse_time(self, tmp_path, key, value, field):
        # each of these used to pass parse_config and fail later, or not at all
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

    def test_avg_normalization_flag(self, tmp_path):
        spec = parse_config(write_config(tmp_path, SCALAR_CONFIG))
        out_paper = tmp_path / "paper"
        out_mean = tmp_path / "mean"
        assert run_command("redundancy", spec, out_paper) == 0
        assert run_command("redundancy", spec, out_mean, avg_normalization="mean") == 0
        r_paper = reporting.parse_report(out_paper / "report.json")["outputs"]["redundancy"]
        r_mean = reporting.parse_report(out_mean / "report.json")["outputs"]["redundancy"]
        assert r_mean["avg_term"] == pytest.approx(2.0 * r_paper["avg_term"])
        assert r_mean["normalization"] == "mean"

    def test_paper_literal_jacobian_flag(self, tmp_path):
        payload = dict(SCALAR_CONFIG)
        payload["t_list"] = [0.5, 1.0, 2.0]
        payload["rho0"] = {"mean": [0.0], "cov": [[1.0]]}
        spec = parse_config(write_config(tmp_path, payload))
        assert run_command("sweep-time", spec, tmp_path / "plain") == 0
        assert run_command("sweep-time", spec, tmp_path / "out", paper_literal_jacobian=True) == 0
        plain = reporting.parse_report(tmp_path / "plain" / "report.json")
        report = reporting.parse_report(tmp_path / "out" / "report.json")
        assert report["options"]["paper_literal_jacobian"] is True
        rows = report["outputs"]["sweep"]["rows"]
        for t, row, plain_row in zip(payload["t_list"], rows, plain["outputs"]["sweep"]["rows"]):
            assert row["method"] == "closed_form"
            # nominal loop trace -3 against plant trace +1
            assert row["provenance"]["raw_masses"][0] == pytest.approx(np.exp(-4.0 * t), rel=1e-12)
            assert row["r"] == plain_row["r"]

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

    def test_17_digit_rendering(self):
        assert reporting.format_float(0.1) == "0.10000000000000001"
        assert float(reporting.format_float(math.pi)) == math.pi


class TestMainEntryPoint:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "redunquant", *args],
            capture_output=True,
            text=True,
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
            [sys.executable, "-c", script], capture_output=True, text=True
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
            ("redundancy", {"avg_normalization": "nope"}),
            ("verify", {}),  # the config has no gains
        ],
        ids=["seed", "method", "avg_normalization", "verify_without_gains"],
    )
    def test_rejected_invocation_creates_no_out_dir(self, tmp_path, cmd, options):
        config = write_config(tmp_path, {k: v for k, v in SCALAR_CONFIG.items() if k != "gains"})
        out = tmp_path / "new"
        with pytest.raises(ConfigValidationError):
            run_command(cmd, parse_config(config), out, **options)
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
        ],
        ids=["closed_form_diag_affine", "grid_d3", "monte_carlo_d3", "fp_grid_d3", "simulate_box"],
    )
    def test_unsupported_configuration_exit1(self, tmp_path, argv, config, message, capsys):
        # the route cannot take the configuration: exit 1, not a numerical failure
        payload = dict(SCALAR_CONFIG, **config)
        out = tmp_path / "new"
        code = main(argv + ["--config", str(write_config(tmp_path, payload)), "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_help_exit0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--help"])
        assert exit_.value.code == 0
        assert "--config" in capsys.readouterr().out
