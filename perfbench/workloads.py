"""The four benchmark workloads: seeded inputs, task lists and checks.

Each workload builds its inputs from the seed (this is the set-up that
``setup_s`` times), then exposes a warm-up list and the timed task list.
A task is one call into the library (or one CLI process) plus a check of
its result against an independent reference from ``reference.py``; the
check runs after the timed pass, never inside it.

Outcomes: a task *completes* when it returns a result that passes its
check, or when it raises an error its documented contract allows
(``SynthesisFailedError`` from ``synthesize_gains``, which "is not a
certificate of impossibility"). It *fails* when it raises anything else
or its result falls outside the route's stated tolerance. Failures whose
message matches a known defect carry that defect's note.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

#: Messages of the two defects recorded in ROADMAP.md, with the note
#: printed for each failure they cause. The benchmark keeps both visible.
KNOWN_DEFECTS = {
    "pole-shifting initialization did not stabilize the plant": (
        "known defect: synthesize_gains pole-shifting initialization fails on random "
        "plants with four single-input channels at d=32"
    ),
    "stationary solution has negative entries": (
        "known defect: grid solver negativity guard trips at the inverse-iteration "
        "round-off floor (1-D OU at 3201 cells)"
    ),
}

#: The synthesis plant of size d is drawn from the stream [SYNTH_STREAM, d],
#: the same in every run. The cost of the theta ladder differs between
#: plants by more than 10x at d=16 (0.05-0.74 s), which made closed_form's
#: wall_s depend on the seed more than on the code; and about 1 in 30 d=32
#: plants does not raise the ROADMAP's NumericalError, while the failure
#: count must not depend on the seed. The d=32 plant of this stream raises it.
SYNTH_STREAM = 0

#: Tolerances of the correctness checks, per route.
TOL = {
    # closed form vs Bartels-Stewart + explicit formulas: both exact
    "closed_form_rel": 1e-6,
    # finite-volume error is O(h^2): <= 0.02 bits seen at 101^2, 0.005 at 201^2
    "grid_101": 0.06,
    "grid_201": 0.02,
    "grid_1d": 2e-3,
    # L1 distance of a grid solution to the exact stationary law
    "grid_l1": 0.01,
    # diag_affine: stationary second-moment identity, relative residual
    "affine_moment_grid": 0.05,
    "affine_moment_mc": 0.25,
    # Monte Carlo r on the scalar system at 2000 paths and 64 histogram
    # cells: bias ~ +0.06 bits and sd ~0.04 bits over seeds
    "mc_r": 0.3,
}


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    #: exception types that complete the task under a documented contract
    allowed: tuple = ()


@dataclass
class Outcome:
    status: str  # "ok", "allowed", "failed" (raised) or "wrong" (failed its check)
    note: str = ""


def classify(task: Task, result, error: BaseException | None) -> Outcome:
    if error is None:
        message = task.check(result)
        return Outcome("ok") if message is None else Outcome("wrong", message)
    if task.allowed and isinstance(error, task.allowed):
        return Outcome("allowed", f"{type(error).__name__} (documented contract)")
    text = f"{type(error).__name__}: {error}"
    for marker, note in KNOWN_DEFECTS.items():
        if marker in str(error):
            return Outcome("failed", f"{note} [{text[:160]}]")
    return Outcome("failed", f"unexpected: {text[:200]}")


def _close(value, expected, tol, what) -> str | None:
    if not (math.isfinite(value) and abs(value - expected) <= tol):
        return f"{what} = {value!r}, reference {expected!r}, tolerance {tol:g}"
    return None


def _first_error(*messages) -> str | None:
    return next((m for m in messages if m is not None), None)


# --------------------------------------------------------------------------
# seeded plants
# --------------------------------------------------------------------------


@dataclass
class Plant:
    """Plain matrices of a plant, its gains and its noise map."""

    A: np.ndarray
    B: list
    K: list
    S: np.ndarray | None = None
    base: np.ndarray | None = None
    slope: np.ndarray | None = None

    def system(self, rq):
        sigma = (
            rq.ConstantDiffusion(self.S)
            if self.S is not None
            else rq.DiagAffineDiffusion(self.base, self.slope)
        )
        return rq.MultiChannelSystem(self.A, self.B, sigma)

    def gains(self, rq):
        return rq.GainSet(self.K)

    def config(self, **extra) -> dict:
        sigma = (
            {"type": "constant", "S": self.S.tolist()}
            if self.S is not None
            else {"type": "diag_affine", "c": self.base.tolist(), "s": self.slope.tolist()}
        )
        payload = {
            "system": {"A": self.A.tolist(), "B": [b.tolist() for b in self.B], "sigma": sigma},
            "gains": [k.tolist() for k in self.K],
        }
        payload.update(extra)
        return payload


def reliable_plant(rng, d: int, n_channels: int) -> Plant:
    """Reliable by construction, with unit-norm single-input channels.

    A has symmetric part -Q diag(U[0.5, 1.5]) Q^T < 0 and K_i = -B_i^T, so
    every closed loop A - sum_{i != j} B_i B_i^T keeps a negative-definite
    symmetric part and is Hurwitz under any single outage.
    """
    M = rng.standard_normal((d, d))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = 0.5 * (M - M.T) / math.sqrt(d) - Q @ np.diag(rng.uniform(0.5, 1.5, d)) @ Q.T
    B = [b / np.linalg.norm(b) for b in rng.standard_normal((n_channels, d, 1))]
    K = [-b.T for b in B]
    return Plant(A, B, K)


def random_plant(rng, d: int, n_channels: int) -> Plant:
    """Plant drawn like the test suite's: Uniform[-2, 2] entries."""
    A = rng.uniform(-2.0, 2.0, (d, d))
    B = [rng.uniform(-2.0, 2.0, (d, 1)) for _ in range(n_channels)]
    S = rng.uniform(-1.0, 1.0, (d, d)) + 1.5 * np.eye(d)
    return Plant(A, B, [], S=S)


def plane_plant(rng) -> Plant:
    """d=2, two near-orthogonal unit channels, diffusion correlation 0.15-0.3.

    Reliable by construction as in ``reliable_plant``, with the symmetric
    part of A in [0.8, 1.2] and channel directions 60-120 degrees apart,
    so the stationary laws stay within a standard-deviation ratio of ~2.
    More eccentric laws leave the corners of the shared axis-aligned grid
    box below the inverse-iteration round-off floor, where the solver's
    negativity guard trips (the 1-D OU defect): it did on 2 of 24 seeds of
    a looser family, and on none of 60 seeds of this one at 101^2. The OU
    task shows the defect in every run; this family keeps the failure
    count independent of the seed.
    """
    M = rng.standard_normal((2, 2))
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    A = 0.25 * (M - M.T) / math.sqrt(2.0) - Q @ np.diag(rng.uniform(0.8, 1.2, 2)) @ Q.T
    first = rng.uniform(0.0, 2.0 * math.pi)
    angles = (first, first + math.pi / 2.0 + rng.uniform(-math.pi / 6.0, math.pi / 6.0))
    B = [np.array([[math.cos(t)], [math.sin(t)]]) for t in angles]
    a, c = rng.uniform(0.8, 1.2, 2)
    corr = rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.3)
    S = np.array([[a, 0.0], [c * corr / math.sqrt(1.0 - corr**2), c]])
    return Plant(A, B, [-b.T for b in B], S=S)


def scalar_plant(root: Path) -> Plant:
    """The bundled configs/scalar_two_channel.json system."""
    raw = json.loads((root / "configs" / "scalar_two_channel.json").read_text())
    system = raw["system"]
    return Plant(
        np.array(system["A"], dtype=float),
        [np.array(b, dtype=float) for b in system["B"]],
        [np.array(k, dtype=float) for k in raw["gains"]],
        S=np.array(system["sigma"]["S"], dtype=float),
    )


def _r_check(plant: Plant, eps: float, tol: float | None, what: str):
    """Check r against the reference; ``tol=None`` means the closed-form
    relative tolerance. The reference is computed at check time, outside
    set-up."""

    def check(report):
        expected = ref.stationary_r(plant.A, plant.B, plant.K, plant.S @ plant.S.T, eps)
        bound = TOL["closed_form_rel"] * (1.0 + abs(expected)) if tol is None else tol
        return _close(report.r, expected, bound, f"{what} at eps={eps}")

    return check


def _second_moments(points, weights):
    second = (points * weights[:, None]).T @ points
    return second, (np.abs(points) * weights[:, None]).sum(axis=0)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


@dataclass
class Workload:
    tasks: list = field(default_factory=list)
    warmup: list = field(default_factory=list)
    #: argv tail for the CLI probe of an in-process workload
    probe: list = field(default_factory=list)
    #: largest child RSS seen by the CLI workload, in KiB
    rss: dict = field(default_factory=dict)


def build_closed_form(rq, seed: int, root: Path, out: Path, tiny: bool) -> Workload:
    """Dense kernels only: Kronecker Lyapunov solves, Newton-Kleinman CARE,
    expm and eig. d from 2 to 32 separates per-call overhead from scaling."""
    rng = np.random.default_rng([seed, 1])
    dims = (2, 4) if tiny else (2, 8, 16, 32)
    synth_dims = (4,) if tiny else (4, 8, 16, 32)
    eps = 0.1
    eps_list = [0.05, 0.1, 0.2, 0.4]
    wl = Workload()
    for d in dims:
        plant = reliable_plant(rng, d, 3)
        plant.S = np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, (d, d)) / math.sqrt(d)
        wl.tasks.extend(_closed_form_tasks(rq, plant, eps, eps_list, f"d{d}"))
        if d == 8 or tiny:
            write_config(out / "probe.json", plant.config(epsilon=eps))
    for d in synth_dims:
        plant = random_plant(np.random.default_rng([SYNTH_STREAM, d]), d, 4)
        wl.tasks.append(_synthesis_task(rq, plant, f"synth.d{d}"))
    warm = reliable_plant(np.random.default_rng([seed, 2]), 2, 3)
    warm.S = np.eye(2)
    wl.warmup = _closed_form_tasks(rq, warm, eps, eps_list, "warm") + [
        _synthesis_task(rq, random_plant(np.random.default_rng([seed, 3]), 4, 4), "warm.synth")
    ]
    wl.probe = ["redundancy", "--config", str(out / "probe.json")]
    return wl


def _closed_form_tasks(rq, plant: Plant, eps, eps_list, tag) -> list[Task]:
    system, gains = plant.system(rq), plant.gains(rq)
    d = plant.A.shape[0]
    modes = range(len(plant.B) + 1)
    abscissae = [ref.abscissa(ref.closed_loop(plant.A, plant.B, plant.K, j)) for j in modes]
    tau = 1.0 / abs(abscissae[0])
    t_list = [0.0, 0.5 * tau, tau, 2.0 * tau]
    rho0 = rq.GaussianDensity(np.zeros(d), np.eye(d))
    SSt = plant.S @ plant.S.T

    def check_verify(report):
        if not report.reliable:
            return "verify_reliable says unreliable for a reliable-by-construction plant"
        return _first_error(
            *(
                _close(a, b, 1e-8 * (1.0 + abs(b)), f"abscissa of mode {j}")
                for j, (a, b) in enumerate(zip(report.abscissae, abscissae))
            )
        )

    def check_rows(expected_of):
        def check(table):
            return _first_error(
                *(
                    _close(rep.r, e, TOL["closed_form_rel"] * (1.0 + abs(e)), f"row {v:g}")
                    for v, rep in zip(table.values, table.reports)
                    for e in [expected_of(v)]
                )
            )

        return check

    return [
        Task(f"verify.{tag}", lambda: rq.verify_reliable(system, gains), check_verify),
        Task(
            f"r.{tag}",
            lambda: rq.systemic_redundancy(system, gains, eps),
            _r_check(plant, eps, None, "closed-form r"),
        ),
        Task(
            f"eps_sweep.{tag}",
            lambda: rq.epsilon_sweep(system, gains, eps_list),
            check_rows(lambda e: ref.stationary_r(plant.A, plant.B, plant.K, SSt, e)),
        ),
        Task(
            f"time_sweep.{tag}",
            lambda: rq.time_sweep(system, gains, rho0, t_list),
            check_rows(lambda t: ref.flow_r(plant.A, plant.B, plant.K, np.eye(d), t)),
        ),
    ]


def _synthesis_task(rq, plant: Plant, name: str) -> Task:
    system = plant.system(rq)

    def check(gains):
        for j in range(len(plant.B) + 1):
            a = ref.abscissa(ref.closed_loop(plant.A, plant.B, gains.K, j))
            if not a < -1e-6:
                return f"synthesized gains leave mode {j} with abscissa {a!r}"
        return None

    return Task(name, lambda: rq.synthesize_gains(system), check, allowed=(rq.SynthesisFailedError,))


def build_grid(rq, seed: int, root: Path, out: Path, tiny: bool) -> Workload:
    """Sparse assembly, splu, inverse iteration and the deflation check."""
    rng = np.random.default_rng([seed, 4])
    plane = plane_plant(rng)
    affine = Plant(plane.A, plane.B, plane.K, base=rng.uniform(0.5, 1.0, 2),
                   slope=rng.uniform(0.2, 0.6, 2))
    scalar = scalar_plant(root)
    ou = Plant(np.array([[-1.0]]), [np.array([[1.0]])], [np.array([[0.0]])], S=np.array([[1.0]]))
    n101, n201, n801, n3201 = (21, 31, 101, 201) if tiny else (101, 201, 801, 3201)
    ou_box = rq.Box([-6.0], [6.0], [n3201])  # the convergence study's box, at eps = 1
    cases = [
        ("cross", plane, 0.1, n101, None, TOL["grid_101"]),
        ("cross", plane, 0.1, n201, None, TOL["grid_201"]),
        ("affine", affine, 0.1, n101, None, None),
        ("scalar", scalar, 0.1, n801, None, TOL["grid_1d"]),
        ("ou", ou, 1.0, n3201, ou_box, TOL["grid_1d"]),
    ]
    wl = Workload()
    for kind, plant, eps, cells, box, tol in cases:
        wl.tasks.extend(_grid_tasks(rq, plant, eps, cells, box, tol, f"{kind}{cells}"))
    wl.warmup = _grid_tasks(rq, plane, 0.1, 21, None, 1.0, "warm")
    write_config(out / "probe.json", plane.config(epsilon=0.1))
    wl.probe = ["fp-grid", "--config", str(out / "probe.json")]
    return wl


def _grid_tasks(rq, plant: Plant, eps, cells, box, tol, tag) -> list[Task]:
    system, gains = plant.system(rq), plant.gains(rq)
    A0 = ref.closed_loop(plant.A, plant.B, plant.K, 0)

    def run_r():
        return rq.systemic_redundancy(system, gains, eps, "grid", grid_cells=cells, grid_box=box)

    def run_fp():
        density = rq.solve_stationary_fp_grid(system, gains, 0, eps, box=box, n_cells=cells)
        return density, rq.fp_residual(density, system, gains, 0, eps)

    if plant.S is not None:
        check_r = _r_check(plant, eps, tol, "grid r")

        def check_fp(result):
            density, residual = result
            P0 = ref.stationary_covs(plant.A, plant.B, plant.K, plant.S @ plant.S.T, eps)[0]
            l1 = ref.grid_l1_to_gaussian(density.values, density.box.lo, density.box.hi, P0)
            return _first_error(
                None if math.isfinite(residual) else f"fp_residual {residual!r}",
                _close(l1, 0.0, TOL["grid_l1"], "L1 distance to the exact stationary law"),
            )
    else:
        def check_r(report):
            if not (math.isfinite(report.r) and all(k >= 0.0 for k in report.kl_per_channel)):
                return f"diag_affine grid r {report.r!r} or KLs {report.kl_per_channel} invalid"
            return None

        def check_fp(result):
            density, residual = result
            weights = density.values.ravel() * density.box.cell_volume
            points = density.box.center_points()
            second, abs_mean = _second_moments(points, weights)
            moment = ref.affine_moment_residual(A0, plant.base, plant.slope, eps, second, abs_mean)
            if not (math.isfinite(residual) and moment <= TOL["affine_moment_grid"]):
                return f"stationary moment residual {moment!r} > {TOL['affine_moment_grid']}"
            return None

    return [Task(f"grid_r.{tag}", run_r, check_r), Task(f"fp_residual.{tag}", run_fp, check_fp)]


def build_monte_carlo(rq, seed: int, root: Path, out: Path, tiny: bool) -> Workload:
    """RNG fill and Euler stepping: the GEMM-unrolled constant-noise path
    (Monte Carlo r) and the per-step diag_affine loop (simulate_sde)."""
    rng = np.random.default_rng([seed, 5])
    scalar = scalar_plant(root)
    plane = plane_plant(rng)
    affine = Plant(plane.A, plane.B, plane.K, base=rng.uniform(0.5, 1.0, 2),
                   slope=rng.uniform(0.2, 0.6, 2))
    n_paths, sim_paths, sim_steps = (100, 50, 500) if tiny else (2000, 1000, 10_000)
    eps, dt = 0.1, 2e-3
    mc_seed, sim_seed = (int(v) for v in rng.integers(0, 2**31, 2))
    sc_sys, sc_gains = scalar.system(rq), scalar.gains(rq)
    af_sys, af_gains = affine.system(rq), affine.gains(rq)
    A0 = ref.closed_loop(affine.A, affine.B, affine.K, 0)
    state = {}

    def simulate():
        state["samples"] = rq.simulate_sde(
            af_sys, af_gains, 0, eps, sim_steps * dt, dt, sim_paths, sim_seed)
        return state["samples"]

    def check_samples(samples):
        x = samples.samples
        second, abs_mean = _second_moments(x, np.full(len(x), 1.0 / len(x)))
        moment = ref.affine_moment_residual(A0, affine.base, affine.slope, eps, second, abs_mean)
        bound = 5.0 * np.sqrt(np.diag(second) / len(x))
        if np.any(np.abs(x.mean(axis=0)) > bound):
            return f"sample mean {x.mean(axis=0)} beyond 5 standard errors {bound}"
        if not moment <= TOL["affine_moment_mc"]:
            return f"stationary moment residual {moment!r} > {TOL['affine_moment_mc']}"
        return None

    def histogram():
        samples = state["samples"]
        return samples, rq.empirical_density(samples, rq.sample_box([samples], 64))

    def check_histogram(result):
        samples, (density, leakage) = result
        mean = density.box.center_points().T @ density.values.ravel() * density.box.cell_volume
        if leakage != 0.0 or np.any(np.abs(mean - samples.samples.mean(axis=0)) > density.box.cell_widths):
            return f"histogram leakage {leakage!r} or mean {mean} off the sample mean"
        return None

    wl = Workload()
    wl.tasks = [
        Task(
            "mc_r.scalar",
            lambda: rq.systemic_redundancy(sc_sys, sc_gains, eps, "monte_carlo",
                                           n_paths=n_paths, seed=mc_seed),
            _r_check(scalar, eps, TOL["mc_r"], "Monte Carlo r"),
        ),
        Task("simulate_sde.affine", simulate, check_samples),
        Task("empirical_density.affine", histogram, check_histogram),
    ]
    wl.warmup = [
        Task("warm.mc_r", lambda: rq.systemic_redundancy(
            sc_sys, sc_gains, eps, "monte_carlo", n_paths=64, seed=1), lambda r: None),
        Task("warm.simulate", lambda: rq.simulate_sde(
            af_sys, af_gains, 0, eps, 100 * dt, dt, 64, 1), lambda r: None),
    ]
    write_config(out / "probe.json", affine.config(
        epsilon=eps, sim={"n_paths": 100, "horizon": 4.0, "dt": dt}))
    wl.probe = ["simulate", "--config", str(out / "probe.json")]
    return wl


# --------------------------------------------------------------------------
# CLI workload
# --------------------------------------------------------------------------

CLI_COMMANDS = ("verify", "synth", "redundancy", "sweep-eps", "sweep-time", "simulate", "fp-grid")


#: Environment of every process the benchmark starts. One BLAS thread: on
#: a 2-vCPU host OpenBLAS's second thread spins between calls, which made
#: closed-form passes and CLI processes slower, not faster, and burned a
#: core on grid passes. No huge-page advice from numpy: whether the kernel
#: can back an array with huge pages depends on the host's memory
#: fragmentation, and it moved grid's peak RSS between 202 and 217 MiB.
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def child_env(root: Path) -> dict:
    env = dict(os.environ, **FIXED_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, env, log_path: Path):
    """Run one process to completion; returns (seconds, exit code, peak RSS in KiB)."""
    with open(log_path, "ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def write_config(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


@dataclass
class CliRun:
    code: int
    report: bytes
    seconds: float = 0.0  # whole-process wall time; 0 when run in-process


def build_cli(rq, seed: int, root: Path, out: Path, tiny: bool, in_process: bool) -> Workload:
    """Each command as a fresh `python -m redunquant` process (or, traced,
    in-process through cli.main) on the bundled scalar config."""
    bundled = root / "configs" / "scalar_two_channel.json"
    raw = json.loads(bundled.read_text())
    sim_config = out / "simulate.json"
    write_config(sim_config, dict(raw, sim={"n_paths": 100 if tiny else 500}))
    plant = scalar_plant(root)
    eps = float(raw["epsilon"])
    SSt = plant.S @ plant.S.T
    P0 = ref.stationary_covs(plant.A, plant.B, plant.K, SSt, eps)[0]
    env = child_env(root)
    log = out / "cli-stderr.log"
    first_report: dict[str, bytes] = {}
    rss = {"max_kib": 0}

    def invoke(cmd: str):
        config = sim_config if cmd == "simulate" else bundled
        target = out / "cli" / cmd
        argv = [cmd, "--config", str(config), "--out", str(target), "--seed", str(seed)]
        report_path = target / "report.json"
        if report_path.exists():
            report_path.unlink()
        seconds = 0.0
        if in_process:
            from redunquant import cli

            code = cli.main(argv)
        else:
            seconds, code, kib = run_process([sys.executable, "-m", "redunquant", *argv], env, log)
            rss["max_kib"] = max(rss["max_kib"], kib)
        return CliRun(code, report_path.read_bytes() if report_path.exists() else b"", seconds)

    def in_process_r():
        return rq.systemic_redundancy(plant.system(rq), plant.gains(rq), eps).r

    def content_check(cmd: str, outputs: dict) -> str | None:
        if cmd == "verify":
            expected = [ref.abscissa(ref.closed_loop(plant.A, plant.B, plant.K, j)) for j in range(3)]
            got = outputs["reliability"]["abscissae"]
            return _first_error(*(_close(a, b, 1e-9, "abscissa") for a, b in zip(got, expected)))
        if cmd == "synth":
            K = [np.array(k) for k in outputs["gains"]]
            worst = max(ref.abscissa(ref.closed_loop(plant.A, plant.B, K, j)) for j in range(3))
            return None if worst < 0.0 else f"synthesized gains leave abscissa {worst!r}"
        if cmd == "redundancy":
            r = outputs["redundancy"]["r"]
            return _first_error(
                _close(r, in_process_r(), 1e-12, "CLI r vs in-process r"),
                _close(r, ref.stationary_r(plant.A, plant.B, plant.K, SSt, eps), 1e-9, "CLI r"),
            )
        if cmd in ("sweep-eps", "sweep-time"):
            sweep = outputs["sweep"]
            if cmd == "sweep-eps":
                expect = lambda v: ref.stationary_r(plant.A, plant.B, plant.K, SSt, v)
            else:
                cov0 = np.array(raw["rho0"]["cov"], dtype=float)
                expect = lambda v: ref.flow_r(plant.A, plant.B, plant.K, cov0, v)
            return _first_error(*(
                _close(row["r"], expect(v), 1e-9 * (1.0 + abs(expect(v))), f"{cmd} row {v:g}")
                for v, row in zip(sweep["values"], sweep["rows"])
            ))
        if cmd == "simulate":
            sim = outputs["simulation"]
            n = sim["n_paths"]
            var = sim["covariance"][0][0]
            se = P0[0, 0] * math.sqrt(2.0 / n)
            return _first_error(
                _close(sim["mean"][0], 0.0, 5.0 * math.sqrt(P0[0, 0] / n), "simulated mean"),
                _close(var, P0[0, 0], 5.0 * se + 0.01 * P0[0, 0], "simulated variance"),
            )
        dens = outputs["stationary_density"]
        l1 = ref.grid_l1_to_gaussian(dens["values"], dens["lo"], dens["hi"], P0)
        return _first_error(
            None if math.isfinite(dens["fp_residual"]) else "fp_residual not finite",
            _close(l1, 0.0, TOL["grid_l1"], "fp-grid L1 distance to the exact law"),
        )

    def make_check(cmd: str):
        def check(run: CliRun):
            if run.code != 0:
                return f"{cmd} exited with code {run.code}"
            previous = first_report.setdefault(cmd, run.report)
            if run.report != previous:
                return f"{cmd} report.json differs between repeats"
            return content_check(cmd, json.loads(run.report)["outputs"])

        return check

    wl = Workload()
    wl.tasks = [Task(f"cli.{cmd}", (lambda c=cmd: invoke(c)), make_check(cmd)) for cmd in CLI_COMMANDS]
    wl.warmup = [Task("warm.verify", lambda: invoke("verify"), lambda r: None)]
    wl.rss = rss
    return wl


BUILDERS = {
    "closed_form": build_closed_form,
    "grid": build_grid,
    "monte_carlo": build_monte_carlo,
}

WORKLOADS = ("closed_form", "grid", "monte_carlo", "cli")


def build(name: str, rq, seed: int, root: Path, out: Path, tiny: bool, in_process: bool) -> Workload:
    if name == "cli":
        return build_cli(rq, seed, root, out, tiny, in_process)
    return BUILDERS[name](rq, seed, root, out, tiny)
