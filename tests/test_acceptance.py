"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria state both a
numerical tolerance and a wall-clock budget; both are asserted.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import redunquant as rq
from redunquant import reporting
from redunquant.cli import parse_config, run_command

from .conftest import child_env, random_gains, random_system
from .oracles import brute_force_reliable, integrate_density

R_SCALAR_EPS_01 = 2.8924206553314917  # derived in test_redundancy_analysis
R_FLOW_T05 = 1.6999643431804814

SCALAR_CONFIG = {
    "system": {
        "A": [[1.0]],
        "B": [[[1.0]], [[1.0]]],
        "sigma": {"type": "constant", "S": [[1.0]]},
    },
    "gains": [[[-2.0]], [[-2.0]]],
    "epsilon": 0.1,
}


def _report(number: int, label: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"[criterion {number:2d}] PASS: {label} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget


def _reliable_instances(count: int, max_d: int, seed: int):
    rng = np.random.default_rng(seed)
    found = []
    attempts = 0
    while len(found) < count and attempts < 50 * count:
        attempts += 1
        d = int(rng.integers(1, max_d + 1))
        n = int(rng.integers(1, 4))
        system = random_system(rng, d, n)
        try:
            gains = rq.synthesize_gains(system)
        except (rq.SynthesisFailedError, rq.NumericalError):
            continue
        found.append((system, gains))
    assert len(found) == count, "could not generate enough reliable instances"
    return found


def test_criterion_1_reliability_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240501)
    disagreements = 0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        system = random_system(rng, d, n)
        gains = random_gains(rng, system)
        if rq.verify_reliable(system, gains).reliable != brute_force_reliable(system, gains):
            disagreements += 1
    assert disagreements == 0
    _report(1, "verify_reliable matches brute-force spectra on 1000 instances", started, 30)


def test_criterion_2_lyapunov_residual():
    from .conftest import random_hurwitz

    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        A_cl = random_hurwitz(rng, d, margin=float(rng.uniform(0.05, 1.0)))
        W = rng.uniform(-1.0, 1.0, (d, d))
        Q = W @ W.T + float(rng.uniform(0.0, 1.0)) * np.eye(d)
        P = rq.solve_lyapunov(A_cl, Q)
        residual = np.linalg.norm(A_cl @ P + P @ A_cl.T + Q, "fro")
        bound = 1e-10 * (
            1.0 + np.linalg.norm(Q, "fro") + np.linalg.norm(A_cl, "fro") * np.linalg.norm(P, "fro")
        )
        assert residual <= bound
    _report(2, "Lyapunov residual bound on 200 random stable instances", started, 10)


def test_criterion_3_ou_stationarity_triple_agreement(ou_system):
    started = time.perf_counter()
    system, gains = ou_system

    closed = rq.stationary_gaussian(system, gains, 0, 1.0)
    assert closed.cov[0, 0] == pytest.approx(0.5, rel=1e-12)

    sampled = rq.simulate_sde(system, gains, 0, 1.0, horizon=20.0, dt=1e-3,
                              n_paths=200_000, seed=20240502)
    mc_var = float(sampled.samples.var())
    assert abs(mc_var - 0.5) / 0.5 <= 0.03

    box = rq.Box([-6.0], [6.0], [801])
    solved = rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box)
    exact = rq.GridDensity.from_unnormalized(
        box, closed.pdf(box.center_points()).reshape(tuple(box.n))
    )
    l1 = float(np.abs(solved.values - exact.values).sum() * box.cell_volume)
    assert l1 <= 1e-3

    _report(
        3,
        f"OU closed/MC/grid agree (MC var {mc_var:.4f}, grid L1 {l1:.1e})",
        started,
        120,
    )


def test_criterion_4_fp_residual_convergence(ou_system):
    started = time.perf_counter()
    system, gains = ou_system
    exact = rq.stationary_gaussian(system, gains, 0, 1.0)
    residuals = []
    for h in (0.04, 0.02, 0.01):
        box = rq.Box([-6.0], [6.0], [int(round(12.0 / h))])
        residuals.append(rq.fp_residual(exact, system, gains, 0, 1.0, box))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 2.5 <= coarse / fine <= 6.0
    assert residuals[-1] <= 1e-3
    _report(
        4,
        f"FP residual halving ratios {residuals[0]/residuals[1]:.2f}, "
        f"{residuals[1]/residuals[2]:.2f}",
        started,
        10,
    )


def test_criterion_5_information_measure_consistency():
    started = time.perf_counter()

    def discretized(g, box):
        return rq.GridDensity.from_unnormalized(
            box, g.pdf(box.center_points()).reshape(tuple(box.n))
        )

    # 1-d: entropy and KL vs grid quadrature
    box1 = rq.Box([-10.0], [10.0], [1601])
    g1 = rq.GaussianDensity([0.2], [[1.3]])
    g2 = rq.GaussianDensity([-0.4], [[0.6]])
    assert rq.grid_entropy(discretized(g1, box1)) == pytest.approx(
        rq.gaussian_entropy(g1), abs=1e-3
    )
    assert rq.grid_kl(discretized(g2, box1), discretized(g1, box1)) == pytest.approx(
        rq.gaussian_kl(g2, g1), abs=1e-3
    )

    # 2-d
    box2 = rq.Box([-9.0, -9.0], [9.0, 9.0], [451, 451])
    h1 = rq.GaussianDensity([0.0, 0.0], [[1.4, 0.3], [0.3, 0.9]])
    h2 = rq.GaussianDensity([0.3, -0.2], np.eye(2))
    assert rq.grid_entropy(discretized(h1, box2)) == pytest.approx(
        rq.gaussian_entropy(h1), abs=1e-3
    )
    assert rq.grid_kl(discretized(h2, box2), discretized(h1, box2)) == pytest.approx(
        rq.gaussian_kl(h2, h1), abs=1e-3
    )

    # 500 random pairs: nonnegativity and zero iff equal
    rng = np.random.default_rng(5)
    for _ in range(500):
        d = int(rng.integers(1, 4))
        W1 = rng.uniform(-1, 1, (d, d))
        W2 = rng.uniform(-1, 1, (d, d))
        q = rq.GaussianDensity(rng.uniform(-2, 2, d), W1 @ W1.T + 0.3 * np.eye(d))
        p = rq.GaussianDensity(rng.uniform(-2, 2, d), W2 @ W2.T + 0.3 * np.eye(d))
        kl = rq.gaussian_kl(q, p)
        assert kl > 0.0
        assert rq.gaussian_kl(q, q) <= 1e-12
    _report(5, "Gaussian closed forms vs grid quadrature; KL sign laws", started, 30)


def test_criterion_6_end_to_end_scalar_redundancy(tmp_path):
    started = time.perf_counter()

    config_path = tmp_path / "closed.json"
    config_path.write_text(json.dumps(SCALAR_CONFIG))
    out_closed = tmp_path / "closed"
    assert run_command("redundancy", parse_config(config_path), out_closed) == 0
    closed = reporting.parse_report(out_closed / "report.json")
    r_closed = closed["outputs"]["redundancy"]["r"]
    assert r_closed == pytest.approx(R_SCALAR_EPS_01, abs=1e-3)

    mc_payload = dict(SCALAR_CONFIG)
    mc_payload["method"] = "monte_carlo"
    mc_payload["sim"] = {"n_paths": 100_000, "horizon": 20.0, "dt": 4e-3}
    mc_path = tmp_path / "mc.json"
    mc_path.write_text(json.dumps(mc_payload))
    out_mc = tmp_path / "mc"
    assert run_command("redundancy", parse_config(mc_path), out_mc) == 0
    r_mc = reporting.parse_report(out_mc / "report.json")["outputs"]["redundancy"]["r"]
    assert r_mc == pytest.approx(R_SCALAR_EPS_01, abs=0.05)

    _report(
        6,
        f"scalar redundancy r={r_closed:.5f} closed, r={r_mc:.4f} Monte Carlo",
        started,
        60,
    )


def test_criterion_7_eps_scaling_law():
    started = time.perf_counter()
    instances = _reliable_instances(20, max_d=3, seed=20240503)
    for system, gains in instances:
        eps = 0.8
        r_full = rq.systemic_redundancy(system, gains, eps).r
        r_half = rq.systemic_redundancy(system, gains, eps / 2.0).r
        assert r_half - r_full == pytest.approx(system.d, abs=1e-9)

    # the sweep report must record the decrease and flag the claim
    system, gains = instances[0]
    table = rq.epsilon_sweep(system, gains, [0.8, 0.4, 0.2])
    assert table.notes["observed_r_direction"] == "nonincreasing"
    assert table.notes["claim_consistent_with_data"] is False
    _report(7, "r(eps/2) - r(eps) = d bits on 20 reliable instances", started, 30)


def test_criterion_8_liouville_trajectory(scalar_two_channel):
    started = time.perf_counter()
    system, gains = scalar_two_channel
    rho0 = rq.GaussianDensity([0.0], [[1.0]])

    r0 = rq.liouville_redundancy(system, gains, rho0, 0.0)
    assert r0.r == pytest.approx(-rq.gaussian_entropy(rho0), abs=1e-6)

    instances = _reliable_instances(3, max_d=2, seed=20240504)
    for sys_i, gains_i in instances:
        rho_i = rq.GaussianDensity(np.zeros(sys_i.d), np.eye(sys_i.d))
        r0_i = rq.liouville_redundancy(sys_i, gains_i, rho_i, 0.0)
        assert r0_i.r == pytest.approx(-rq.gaussian_entropy(rho_i), abs=1e-6)

    r_half = rq.liouville_redundancy(system, gains, rho0, 0.5)
    assert r_half.r == pytest.approx(R_FLOW_T05, abs=1e-3)

    for mode in range(3):
        for t in (0.0, 0.5, 1.0, 2.0):
            mass = integrate_density(system, gains, mode, rho0, t)
            assert mass == pytest.approx(1.0, abs=1e-6)

    _report(8, "flow redundancy values and mass conservation", started, 60)


def test_criterion_9_determinism(tmp_path):
    started = time.perf_counter()
    payload = dict(SCALAR_CONFIG, epsilon=[1.0, 0.5, 0.25])
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(payload))
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "redunquant",
                "sweep-eps",
                "--config",
                str(config),
                "--out",
                str(out),
                "--seed",
                "20240505",
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out)
    report_a = (outputs[0] / "report.json").read_bytes()
    report_b = (outputs[1] / "report.json").read_bytes()
    csv_a = (outputs[0] / "sweep.csv").read_bytes()
    csv_b = (outputs[1] / "sweep.csv").read_bytes()
    assert report_a == report_b
    assert csv_a == csv_b
    _report(9, "sweep-eps reruns are byte-identical", started, 60)


def test_criterion_10_synthesis_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(20240506)
    successes = 0
    for _ in range(60):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        system = random_system(rng, d, n)
        try:
            gains = rq.synthesize_gains(system)
        except (rq.SynthesisFailedError, rq.NumericalError):
            continue
        successes += 1
        assert rq.verify_reliable(system, gains).reliable

    assert successes >= 10  # the heuristic succeeds on a healthy fraction

    impossible = rq.MultiChannelSystem(
        [[1.0]], [[[1.0]], [[0.0]]], rq.ConstantDiffusion([[1.0]])
    )
    with pytest.raises(rq.SynthesisFailedError):
        rq.synthesize_gains(impossible)
    _report(10, f"synthesis sound on {successes} successes; impossible instance fails", started, 30)
