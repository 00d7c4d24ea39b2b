"""Configuration ingestion, command dispatch and report emission.

Usage:

    redunquant <command> --config <file> --out <dir>
               [--method closed_form|monte_carlo|grid] [--seed N]

Commands: verify, synth, redundancy, sweep-eps, sweep-time, simulate,
fp-grid. Exit codes: 0 success; 1 invalid configuration or invocation, or
one the chosen route does not support; 2 gains not reliable / synthesis
failed; 3 numerical failure. Every run writes a deterministic
``report.json`` (plus ``sweep.csv`` for sweeps); wall-clock timing goes to
the non-deterministic ``meta.json`` sidecar so reports stay byte-identical
across reruns.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reporting
from .densities import Box, GaussianDensity
from .errors import (
    ConfigError,
    ConfigSyntaxError,
    ConfigValidationError,
    DimensionError,
    IoError,
    NotHurwitzError,
    NotReliableError,
    OutOfBoxError,
    RedunquantError,
    SynthesisFailedError,
    UnsupportedDiffusionError,
)
from .redundancy_analysis import METHODS, epsilon_sweep, systemic_redundancy, time_sweep
from .reliable_gains import _synthesize, synthesize_gains, verify_reliable
from .stochastic_engine import (
    default_sim_params,
    empirical_density,
    fp_residual,
    simulate_sde,
    solve_stationary_fp_grid,
)
from .system_model import (
    ConstantDiffusion,
    DiagAffineDiffusion,
    GainSet,
    MultiChannelSystem,
    _check_compatible,
)

COMMANDS = ("verify", "synth", "redundancy", "sweep-eps", "sweep-time", "simulate", "fp-grid")

#: The accepted keys of each configuration object, by its field name;
#: those of ``sigma`` depend on its ``type``.
_ROOT = "<root>"
_KEYS = {
    _ROOT: {
        "schema_version", "system", "gains", "epsilon", "rho0", "seed",
        "method", "grid", "mode", "t_list", "sim",
    },
    "system": {"A", "B", "N", "sigma"},
    "sigma": {"constant": {"type", "S"}, "diag_affine": {"type", "c", "s"}},
    "rho0": {"mean", "cov"},
    "grid": {"lo", "hi", "n_cells"},
    "sim": {"horizon", "dt", "n_paths", "hist_cells"},
}


@dataclass
class ProblemSpec:
    """Fully validated run configuration (defaults filled and recorded)."""

    system: MultiChannelSystem
    gains: GainSet | None
    gains_source: str | None
    epsilon: float | list[float] | None
    rho0: GaussianDensity | None
    seed: int
    method: str
    grid: Box | None
    mode: int
    t_list: list[float] | None
    n_paths: int
    horizon: float | None
    dt: float | None
    hist_cells: int
    raw: dict


def _fail(field: str, message: str):
    raise ConfigValidationError(f"config field '{field}': {message}", field=field)


def _fail_option(option: str, message: str):
    raise ConfigValidationError(f"option '--{option}': {message}", field=f"--{option}")


def _number(value, field: str) -> float:
    # bool is an int subclass, but JSON true/false are not numbers; the
    # bound also rejects nan, +-inf and integers too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        _fail(field, "expected a finite number")
    return float(value)


def _distinct(values: list[float], field: str) -> list[float]:
    # a sweep row per value: a repeated value is a configuration error
    if len(set(values)) < len(values):
        _fail(field, "entries must be distinct")
    return values


def _integer(value, field: str, lo: int, hi: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(field, "expected an integer")
    if value < lo or (hi is not None and value > hi):
        _fail(field, f"must be >= {lo}" if hi is None else f"must lie in {lo}..{hi}")
    return value


def _array(value, field: str, ndim: int) -> np.ndarray:
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != ndim or not np.all(np.isfinite(out)):
        _fail(field, f"expected a finite {ndim}-d array of numbers")
    return out


def _object(raw, field: str, keys: set[str] | None = None) -> dict:
    """``raw``, checked to be a JSON object with no key outside ``keys``
    (by default ``_KEYS[field]``). An unknown key is named as the field
    ``object.key``, or bare at the root."""
    if not isinstance(raw, dict):
        _fail(field, "expected a JSON object")
    unknown = sorted(set(raw) - (keys or _KEYS[field]))
    if unknown:
        key = unknown[0] if field == _ROOT else f"{field}.{unknown[0]}"
        _fail(key, "unknown configuration key")
    return raw


def _build(field: str, constructor, *args, **kwargs):
    """``constructor(*args, **kwargs)`` with a library error reported as
    config field ``field``. The arguments are parsed before the call, so a
    ``ConfigError`` of one of them keeps its own field."""
    try:
        return constructor(*args, **kwargs)
    except RedunquantError as exc:
        _fail(field, str(exc))


def _parse_sigma(raw):
    kind = raw.get("type") if isinstance(raw, dict) else None
    if kind not in ("constant", "diag_affine"):
        _fail("sigma", 'expected an object whose "type" is "constant" or "diag_affine"')
    _object(raw, "sigma", _KEYS["sigma"][kind])
    if kind == "constant":
        return _build("sigma", ConstantDiffusion, _array(raw.get("S"), "sigma.S", 2))
    c, s = _array(raw.get("c"), "sigma.c", 1), _array(raw.get("s"), "sigma.s", 1)
    return _build("sigma", DiagAffineDiffusion, c, s)


def _parse_system(raw) -> MultiChannelSystem:
    raw = _object(raw, "system")
    A = _array(raw.get("A"), "system.A", 2)
    b_raw = raw.get("B")
    if not isinstance(b_raw, list) or not b_raw:
        _fail("system.B", "expected a nonempty list of input matrices")
    B = [_array(Bi, f"system.B[{i}]", 2) for i, Bi in enumerate(b_raw)]
    if "N" in raw and _integer(raw["N"], "system.N", 1) != len(B):
        _fail("system.B", f"B has {len(B)} entries but N = {raw['N']}")
    return _build("system", MultiChannelSystem, A, B, _parse_sigma(raw.get("sigma")))


def _parse_gains(raw, system: MultiChannelSystem) -> tuple[GainSet | None, str | None]:
    if raw is None:
        return None, None
    if isinstance(raw, str):
        report = reporting.parse_report(raw)
        outputs = report.get("outputs") if isinstance(report, dict) else None
        matrices = outputs.get("gains") if isinstance(outputs, dict) else None
        if matrices is None:
            _fail("gains", f"report {raw!r} does not contain synthesized gains")
        source = f"report:{raw}"
    else:
        matrices = raw
        source = "config"
    if not isinstance(matrices, list):
        _fail("gains", "expected a list of gain matrices or a synth report path")
    K = [_array(Ki, f"gains[{i}]", 2) for i, Ki in enumerate(matrices)]
    gains = _build("gains", GainSet, K)
    _build("gains", _check_compatible, system, gains)
    return gains, source


def _parse_epsilon(raw):
    if raw is None:
        return None

    def one(value, where):
        value = _number(value, where)
        if not value > 0.0:
            _fail(where, f"must be a positive real, got {value!r}")
        return value

    if isinstance(raw, list):
        if not raw:
            _fail("epsilon", "list must be nonempty")
        return _distinct([one(v, "epsilon") for v in raw], "epsilon")
    return one(raw, "epsilon")


def _parse_rho0(raw, d: int) -> GaussianDensity | None:
    if raw is None:
        return None
    raw = _object(raw, "rho0")
    mean, cov = _array(raw.get("mean"), "rho0.mean", 1), _array(raw.get("cov"), "rho0.cov", 2)
    density = _build("rho0", GaussianDensity, mean, cov)
    if density.dim != d:
        _fail("rho0", f"dimension {density.dim} does not match state dimension {d}")
    return density


def _parse_grid(raw, d: int) -> Box | None:
    if raw is None:
        return None
    raw = _object(raw, "grid")
    lo, hi = _array(raw.get("lo"), "grid.lo", 1), _array(raw.get("hi"), "grid.hi", 1)
    n = raw.get("n_cells")
    if not isinstance(n, list):
        _fail("grid.n_cells", "expected a list of cell counts")
    box = _build("grid", Box, lo, hi, [_integer(v, "grid.n_cells", 3) for v in n])
    if box.dim != d:
        _fail("grid", f"dimension {box.dim} does not match state dimension {d}")
    return box


def parse_config(path) -> ProblemSpec:
    """Read, parse and eagerly validate a JSON problem configuration."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(
            f"config {path} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    raw = _object(raw, _ROOT)
    if raw.get("schema_version", reporting.SCHEMA_VERSION) != reporting.SCHEMA_VERSION:
        _fail("schema_version", f"must be {reporting.SCHEMA_VERSION!r}")

    system = _parse_system(raw.get("system"))
    gains, gains_source = _parse_gains(raw.get("gains"), system)
    epsilon = _parse_epsilon(raw.get("epsilon"))

    seed = _integer(raw.get("seed", 42), "seed", 0)
    method = raw.get("method", "closed_form")
    if method not in METHODS:
        _fail("method", f"must be one of {METHODS}")
    mode = _integer(raw.get("mode", 0), "mode", 0, system.n_channels)

    t_list = raw.get("t_list")
    if t_list is not None:
        if not isinstance(t_list, list) or not t_list:
            _fail("t_list", "expected a nonempty list of times")
        t_list = _distinct([_number(v, "t_list") for v in t_list], "t_list")
        if any(v < 0.0 for v in t_list):
            _fail("t_list", "entries must be nonnegative")

    sim = _object(raw.get("sim", {}), "sim")
    n_paths = _integer(sim.get("n_paths", 100_000), "sim.n_paths", 1)
    horizon = sim.get("horizon")
    if horizon is not None and _number(horizon, "sim.horizon") <= 0:
        _fail("sim.horizon", "expected a positive number")
    dt = sim.get("dt")
    if dt is not None and _number(dt, "sim.dt") <= 0:
        _fail("sim.dt", "expected a positive number")
    if horizon is not None and dt is not None and horizon < dt:
        _fail("sim.horizon", "must be at least one step (sim.dt)")
    hist_cells = _integer(sim.get("hist_cells", 64), "sim.hist_cells", 1)

    return ProblemSpec(
        system=system,
        gains=gains,
        gains_source=gains_source,
        epsilon=epsilon,
        rho0=_parse_rho0(raw.get("rho0"), system.d),
        seed=seed,
        method=method,
        grid=_parse_grid(raw.get("grid"), system.d),
        mode=mode,
        t_list=t_list,
        n_paths=n_paths,
        horizon=float(horizon) if horizon is not None else None,
        dt=float(dt) if dt is not None else None,
        hist_cells=hist_cells,
        raw=raw,
    )


def _require_scalar_epsilon(spec: ProblemSpec) -> float:
    if spec.epsilon is None or isinstance(spec.epsilon, list):
        _fail("epsilon", "this command needs a single positive epsilon")
    return spec.epsilon


def _epsilon_list(spec: ProblemSpec) -> list[float]:
    if spec.epsilon is None:
        _fail("epsilon", "sweep-eps needs a list of noise levels")
    return spec.epsilon if isinstance(spec.epsilon, list) else [spec.epsilon]


def _resolve_gains(spec: ProblemSpec) -> tuple[GainSet, str]:
    if spec.gains is not None:
        return spec.gains, spec.gains_source or "config"
    return synthesize_gains(spec.system), "synthesized"


def _sim_params(spec: ProblemSpec, gains: GainSet, mode: int) -> tuple[float, float]:
    """(horizon, dt) of one simulated mode: the configured values, else the
    mode's defaults. A horizon left to default on a non-Hurwitz mode, or a
    configured value that leaves no whole step, or a step count that
    overflows, against the other's default, is an error of that
    configuration field."""
    try:
        horizon, dt = default_sim_params(spec.system, gains, mode, spec.horizon, spec.dt)
    except NotHurwitzError as exc:
        _fail("sim.horizon", f"has no default: {exc}")
    field = "sim.horizon" if spec.horizon is not None else "sim.dt"
    if horizon < dt:
        _fail(field, f"horizon {horizon!r} is shorter than one step (dt {dt!r} in mode {mode})")
    if not np.isfinite(horizon / dt):
        _fail(field, f"horizon {horizon!r} / dt {dt!r} is not a finite step count (mode {mode})")
    return horizon, dt


def _check_monte_carlo_steps(spec: ProblemSpec, gains: GainSet, method: str) -> None:
    """Check ``_sim_params`` of every mode that the Monte Carlo route
    simulates. Unreliable gains are left for the route to report."""
    if method == "monte_carlo" and verify_reliable(spec.system, gains).reliable:
        for j in range(spec.system.n_channels + 1):
            _sim_params(spec, gains, j)


def run_command(
    cmd: str,
    spec: ProblemSpec,
    out_dir,
    *,
    method: str | None = None,
    seed: int | None = None,
) -> int:
    """Execute one command and write its report files; returns the exit code."""
    started = time.perf_counter()
    method = method or spec.method
    if method not in METHODS:
        _fail_option("method", f"must be one of {METHODS}")
    seed = spec.seed if seed is None else int(seed)
    if seed < 0:
        _fail_option("seed", f"must be >= 0, got {seed}")
    options = {"method": method, "seed": seed}
    route = {
        "seed": seed,
        "n_paths": spec.n_paths,
        "horizon": spec.horizon,
        "dt": spec.dt,
        "hist_cells": spec.hist_cells,
        "grid_box": spec.grid,
    }

    exit_code = 0
    csv_text = None
    sys_ = spec.system

    try:
        if cmd == "verify":
            if spec.gains is None:
                _fail("gains", "verify needs a gain set in the configuration")
            report = verify_reliable(sys_, spec.gains)
            outputs = {
                "method": "closed_form",
                "reliability": report,
            }
            if not report.reliable:
                print(
                    f"gains are not reliable: margin {report.margin!r}", file=sys.stderr
                )
                exit_code = 2
        elif cmd == "synth":
            gains, report = _synthesize(sys_)
            outputs = {
                "method": "closed_form",
                "gains": [Ki.tolist() for Ki in gains.K],
                "reliability": report,
            }
        elif cmd == "redundancy":
            eps = _require_scalar_epsilon(spec)
            gains, source = _resolve_gains(spec)
            _check_monte_carlo_steps(spec, gains, method)
            result = systemic_redundancy(sys_, gains, eps, method, **route)
            outputs = {
                "method": method,
                "gains_source": source,
                "redundancy": result,
            }
        elif cmd == "sweep-eps":
            gains, source = _resolve_gains(spec)
            _check_monte_carlo_steps(spec, gains, method)
            table = epsilon_sweep(sys_, gains, _epsilon_list(spec), method, **route)
            outputs = {
                "method": method,
                "gains_source": source,
                "sweep": reporting.sweep_to_dict(table),
            }
            csv_text = reporting.sweep_csv(table)
        elif cmd == "sweep-time":
            if spec.t_list is None:
                _fail("t_list", "sweep-time needs a list of times")
            gains, source = _resolve_gains(spec)
            rho0 = spec.rho0 or GaussianDensity(np.zeros(sys_.d), np.eye(sys_.d))
            reference = spec.epsilon if isinstance(spec.epsilon, (int, float)) else None
            table = time_sweep(sys_, gains, rho0, spec.t_list, reference_eps=reference)
            outputs = {
                "method": table.reports[0].method,
                "gains_source": source,
                "rho0_default": spec.rho0 is None,
                "sweep": reporting.sweep_to_dict(table),
            }
            csv_text = reporting.sweep_csv(table)
        elif cmd == "simulate":
            eps = _require_scalar_epsilon(spec)
            gains, source = _resolve_gains(spec)
            horizon, dt = _sim_params(spec, gains, spec.mode)
            samples = simulate_sde(
                sys_, gains, spec.mode, eps, horizon, dt, spec.n_paths, seed
            )
            mean = samples.samples.mean(axis=0)
            # np.cov needs two paths; with one the covariance is the nan sentinel
            cov = np.cov(samples.samples.T) if samples.n > 1 else np.full(sys_.d**2, np.nan)
            outputs = {
                "method": "monte_carlo",
                "gains_source": source,
                "simulation": {
                    "mode": spec.mode,
                    "epsilon": eps,
                    "n_paths": samples.n,
                    "t_final": samples.t_final,
                    "dt": samples.dt,
                    "seed": seed,
                    "mean": mean.tolist(),
                    "covariance": cov.reshape(sys_.d, sys_.d).tolist(),
                    "min": samples.samples.min(axis=0).tolist(),
                    "max": samples.samples.max(axis=0).tolist(),
                },
            }
            if spec.grid is not None:
                density, leakage = empirical_density(samples, spec.grid)
                outputs["histogram"] = {
                    "lo": spec.grid.lo.tolist(),
                    "hi": spec.grid.hi.tolist(),
                    "n_cells": spec.grid.n.tolist(),
                    "leakage": leakage,
                    "values": density.values.tolist(),
                }
        elif cmd == "fp-grid":
            eps = _require_scalar_epsilon(spec)
            gains, source = _resolve_gains(spec)
            density = solve_stationary_fp_grid(
                sys_, gains, spec.mode, eps, box=spec.grid
            )
            residual = fp_residual(density, sys_, gains, spec.mode, eps)
            outputs = {
                "method": "grid",
                "gains_source": source,
                "stationary_density": {
                    "mode": spec.mode,
                    "epsilon": eps,
                    "lo": density.box.lo.tolist(),
                    "hi": density.box.hi.tolist(),
                    "n_cells": density.box.n.tolist(),
                    "values": density.values.tolist(),
                    "fp_residual": residual,
                },
            }
        else:
            raise ValueError(f"unknown command {cmd!r}")
    except ConfigError:
        raise
    except (NotReliableError, SynthesisFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedDiffusionError, DimensionError, OutOfBoxError) as exc:
        # the route cannot take this configuration; nothing numerical failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RedunquantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    report = reporting.build_report(cmd, options, reporting.inputs_digest(spec.raw), outputs)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc
    reporting.emit_report(report, out_dir / "report.json")
    if csv_text is not None:
        reporting.write_text_atomic(out_dir / "sweep.csv", csv_text)
    meta = {
        "wall_clock_seconds": time.perf_counter() - started,
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    reporting.write_text_atomic(out_dir / "meta.json", reporting.dumps_canonical(meta) + "\n")
    return exit_code


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1 (invalid invocation), not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="redunquant",
        description="Quantify systemic redundancy in reliable multi-channel linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON problem configuration")
        cmd.add_argument("--out", required=True, help="output directory for reports")
        cmd.add_argument("--method", choices=METHODS, default=None)
        cmd.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = parse_config(args.config)
        code = run_command(args.command, spec, args.out, method=args.method, seed=args.seed)
    except (ConfigError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
