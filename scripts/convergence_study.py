"""Convergence diagnostics for the numerical routes.

Three studies on the unit Ornstein-Uhlenbeck loop (exact stationary law
N(0, 1/2)): second-order decay of the stationary-operator residual under
grid refinement, the grid solver's L1 error (at round-off: its fitted
fluxes are exact for linear drift in 1-D), and Monte Carlo histogram
error versus path count. The grid redundancy of the bundled scalar
two-channel plant (configs/scalar_two_channel.json) against its closed form
at 201, 801 and 3201 cells, eps 0.1 and 0.5: about -5e-8 bits, the
reference's tail included down to where it underflows. Two grid studies
on eccentric, rotated d=2 loops (A = R diag(-1, -k) R^T, eps = 0.1): the
L1 error at 51^2, 101^2 and 201^2 on one plant with diagonal S, and how
many of 40 plants with a full S (central cross-diffusion terms) still
fail at 101^2 in the x-frame solver. For the same 40 plants, the grid
redundancy through ``systemic_redundancy``, which solves in the
eigenbasis of S S^T: its failure count and its error against the closed
form at 101^2 and 201^2. Another compares the Monte Carlo redundancy of
the scalar two-channel system (eps = 0.1) with its closed form over 8
seeds, in units of the reported batch-means standard error: at 2k paths
expect a positive mean, since that SE covers sampling noise only and the
histogram estimate is biased upward at small n. The same comparison on a
constant-sigma d=2 plane plant (A = [[-0.5, 0.4], [-0.3, -0.6]], S =
[[0.8, 0], [0.3, 1]], gains -1, eps = 0.3) prints the bias, the
seed-to-seed sd, the mean SE and the derived histogram cell count at 2k
and 20k paths. The last one runs the
flow route from a random 4x4 grid start on [-1, 1]^2 under A = -2I, B =
[I, I], K = [I, 0]: the error of KL_1 against the exact interval-overlap
reference of tests/oracles.py, next to the reported quadrature
tolerance. Last, ``solve_lyapunov`` on 1 400 seeded near-marginal plants
(d 2-32, spectral abscissa -1 down to -1e-6, Q = W W^T): per margin, the
worst difference from ``scipy.linalg.solve_continuous_lyapunov`` relative
to max|P| and the number of plants that raised. Then the two other dense
kernels against scipy: ``matrix_exponential`` on 120 seeded non-normal
matrices (d 1-32, ||Mt||_F 0.01-50, t of both signs), the worst relative
difference from ``scipy.linalg.expm`` per d; and ``solve_care_newton`` on
1 100 seeded plants (d 1-32, Q = I, R = I/theta on the synthesis ladder
theta = 1, 2, ..., 1024), per theta the worst difference from
``scipy.linalg.solve_continuous_are`` relative to max|P|, the worst
scaled Riccati residual and the number that raised.

Usage: python scripts/convergence_study.py [--out OUTDIR] [--quick]
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

import redunquant as rq
from redunquant.errors import NumericalError

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles import diagonal_pullback_kl_bits  # noqa: E402


def discretized(g, box):
    return rq.GridDensity.from_unnormalized(
        box, g.pdf(box.center_points()).reshape(tuple(box.n))
    )


def eccentric_plant(seed, diagonal):
    """A = R diag(-1, -k) R^T with k ~ U(5, 40), R a random rotation, and S
    (the diagonal of) chol(W W^T + 0.3 I), W ~ U(-1, 1); one zero-gain channel."""
    rng = np.random.default_rng(seed)
    k = rng.uniform(5.0, 40.0)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    W = rng.uniform(-1.0, 1.0, (2, 2))
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    S = np.linalg.cholesky(W @ W.T + 0.3 * np.eye(2))
    if diagonal:
        S = np.diag(np.diag(S))
    system = rq.MultiChannelSystem(
        R @ np.diag([-1.0, -k]) @ R.T, [np.zeros((2, 1))], rq.ConstantDiffusion(S)
    )
    return system, rq.GainSet([np.zeros((1, 2))])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("convergence_out"))
    parser.add_argument("--quick", action="store_true", help="smaller Monte Carlo sizes")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    system = rq.MultiChannelSystem([[-1.0]], [[[1.0]]], rq.ConstantDiffusion([[1.0]]))
    gains = rq.GainSet([[[0.0]]])
    exact = rq.stationary_gaussian(system, gains, 0, 1.0)

    lines = ["h,fp_residual"]
    print("stationary-operator residual of the exact law (expect ~h^2):")
    for h in (0.08, 0.04, 0.02, 0.01, 0.005):
        box = rq.Box([-6.0], [6.0], [int(round(12.0 / h))])
        res = rq.fp_residual(exact, system, gains, 0, 1.0, box)
        lines.append(f"{h},{res:.6e}")
        print(f"  h={h:6.3f}  residual={res:.3e}")
    (args.out / "fp_residual.csv").write_text("\n".join(lines) + "\n")

    lines = ["n_cells,l1_error"]
    print("\ngrid solver L1 error vs resolution:")
    for n in (101, 201, 401, 801, 1601, 3201):
        box = rq.Box([-6.0], [6.0], [n])
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box)
        l1 = float(np.abs(solved.values - discretized(exact, box).values).sum() * box.cell_volume)
        lines.append(f"{n},{l1:.6e}")
        print(f"  n={n:5d}  L1={l1:.3e}")
    (args.out / "grid_l1.csv").write_text("\n".join(lines) + "\n")

    bundled = rq.MultiChannelSystem([[1.0]], [[[1.0]], [[1.0]]], rq.ConstantDiffusion([[1.0]]))
    bundled_gains = rq.GainSet([[[-2.0]], [[-2.0]]])
    lines = ["eps,n_cells,r_grid_minus_closed"]
    print("\ngrid r minus closed form on configs/scalar_two_channel.json:")
    for eps in (0.1, 0.5):
        r_closed = rq.systemic_redundancy(bundled, bundled_gains, eps).r
        for n in (201, 801, 3201):
            r_grid = rq.systemic_redundancy(bundled, bundled_gains, eps, "grid", grid_cells=n).r
            lines.append(f"{eps},{n},{r_grid - r_closed:.6e}")
            print(f"  eps={eps}  n={n:5d}  r_grid - r_closed={r_grid - r_closed:+.2e} bits")
    (args.out / "grid_r_bundled.csv").write_text("\n".join(lines) + "\n")

    ecc_system, ecc_gains = eccentric_plant(1, diagonal=True)
    ecc_law = rq.stationary_gaussian(ecc_system, ecc_gains, 0, 0.1)
    lines = ["n_cells,l1_error"]
    print("\ngrid solver L1 error on an eccentric d=2 plant, diagonal S (expect ~h^2):")
    for n in (51, 101, 201):
        solved = rq.solve_stationary_fp_grid(ecc_system, ecc_gains, 0, 0.1, n_cells=n)
        box = solved.box
        l1 = float(np.abs(solved.values - discretized(ecc_law, box).values).sum() * box.cell_volume)
        lines.append(f"{n},{l1:.6e}")
        print(f"  n={n:3d}^2  L1={l1:.3e}")
    (args.out / "grid_l1_eccentric.csv").write_text("\n".join(lines) + "\n")

    failed = []
    for seed in range(40):
        try:
            rq.solve_stationary_fp_grid(*eccentric_plant(seed, diagonal=False), 0, 0.1)
        except NumericalError:
            failed.append(seed)
    print(f"\nfull-S eccentric plants failing at 101^2: {len(failed)}/40 (seeds {failed})")

    lines = ["n_cells,seed,r_grid,r_closed,abs_error"]
    print("\nfull-S eccentric plants, r through systemic_redundancy (grid in the eigenbasis of S S^T):")
    for n in (101, 201):
        failed, errors = [], []
        for seed in range(40):
            ecc_system, ecc_gains = eccentric_plant(seed, diagonal=False)
            r_closed = rq.systemic_redundancy(ecc_system, ecc_gains, 0.1).r
            try:
                r_grid = rq.systemic_redundancy(ecc_system, ecc_gains, 0.1, "grid", grid_cells=n).r
            except NumericalError:
                failed.append(seed)
                continue
            errors.append(abs(r_grid - r_closed))
            lines.append(f"{n},{seed},{r_grid:.6e},{r_closed:.6e},{errors[-1]:.6e}")
        print(f"  n={n:3d}^2  failing: {len(failed)}/40 (seeds {failed})  "
              f"|r_grid - r_closed| median={np.median(errors):.2e} max={np.max(errors):.2e} bits")
    (args.out / "grid_r_full_s.csv").write_text("\n".join(lines) + "\n")

    sizes = (2_000, 8_000, 32_000) if args.quick else (5_000, 20_000, 80_000, 200_000)
    lines = ["n_paths,var_rel_error,hist_l1"]
    print("\nMonte Carlo error vs path count (horizon 20, dt 1e-3):")
    for n_paths in sizes:
        samples = rq.simulate_sde(system, gains, 0, 1.0, 20.0, 1e-3, n_paths, seed=1)
        var_err = abs(samples.samples.var() - 0.5) / 0.5
        box = rq.sample_box([samples], 64)
        hist, _ = rq.empirical_density(samples, box)
        l1 = float(np.abs(hist.values - discretized(exact, box).values).sum() * box.cell_volume)
        lines.append(f"{n_paths},{var_err:.6e},{l1:.6e}")
        print(f"  n={n_paths:7d}  var rel err={var_err:.4f}  hist L1={l1:.4f}")
    (args.out / "mc_convergence.csv").write_text("\n".join(lines) + "\n")

    r_closed = rq.systemic_redundancy(bundled, bundled_gains, 0.1).r
    lines = ["n_paths,seed,r_mc,r_mc_minus_closed,se_r,z"]
    print(f"\nMonte Carlo r vs closed form {r_closed:.4f} bits, z = (r_mc - r_closed)/SE:")
    for n_paths in (2_000, 100_000):
        zs = []
        for seed in range(8):
            report = rq.systemic_redundancy(
                bundled, bundled_gains, 0.1, "monte_carlo", seed=seed, n_paths=n_paths
            )
            se = report.provenance["standard_error"]["r"]
            zs.append((report.r - r_closed) / se)
            lines.append(f"{n_paths},{seed},{report.r:.6e},{report.r - r_closed:.6e},{se:.6e},{zs[-1]:.4f}")
        print(f"  n={n_paths:7d}  z mean={np.mean(zs):+.2f}  sd={np.std(zs, ddof=1):.2f}  "
              f"max |z|={np.max(np.abs(zs)):.2f}")
    (args.out / "mc_redundancy_z.csv").write_text("\n".join(lines) + "\n")

    sheared = rq.MultiChannelSystem(
        [[-0.5, 0.4], [-0.3, -0.6]], [[[1.0], [0.0]], [[0.0], [1.0]]],
        rq.ConstantDiffusion([[0.8, 0.0], [0.3, 1.0]]),
    )
    sheared_gains = rq.GainSet([[[-1.0, 0.0]], [[0.0, -1.0]]])
    r_closed = rq.systemic_redundancy(sheared, sheared_gains, 0.3).r
    lines = ["n_paths,seed,hist_cells,r_mc,r_mc_minus_closed,se_r"]
    print(f"\nMonte Carlo r vs closed form {r_closed:.4f} bits on the d=2 plane plant (eps 0.3):")
    for n_paths in (2_000, 20_000):
        errors, ses = [], []
        for seed in range(8):
            report = rq.systemic_redundancy(
                sheared, sheared_gains, 0.3, "monte_carlo", seed=seed, n_paths=n_paths
            )
            cells = report.provenance["hist_cells"]
            errors.append(report.r - r_closed)
            ses.append(report.provenance["standard_error"]["r"])
            lines.append(f"{n_paths},{seed},{cells},{report.r:.6e},{errors[-1]:.6e},{ses[-1]:.6e}")
        print(f"  n={n_paths:7d}  cells={cells}^2  bias={np.mean(errors):+.3f}  "
              f"sd={np.std(errors, ddof=1):.3f}  mean SE={np.mean(ses):.3f} bits")
    (args.out / "mc_redundancy_plane.csv").write_text("\n".join(lines) + "\n")

    eye = np.eye(2)
    plane = rq.MultiChannelSystem(-2.0 * eye, [eye, eye], rq.ConstantDiffusion(eye))
    plane_gains = rq.GainSet([eye, np.zeros((2, 2))])
    start = rq.GridDensity.from_unnormalized(
        rq.Box([-1.0, -1.0], [1.0, 1.0], [4, 4]), np.random.default_rng(5).uniform(0.2, 1.0, (4, 4))
    )
    lines = ["t,kl_1,kl_1_exact,abs_error,quadrature_tol"]
    print("\ngrid-start flow KL_1 vs exact interval overlaps (M_1 = e^{-t} I, 4x4 start):")
    for t in (0.05, 0.1, 0.3, 0.5, 1.0, 10.0):
        report = rq.liouville_redundancy(plane, plane_gains, start, t)
        kl = report.kl_per_channel[0]
        exact = diagonal_pullback_kl_bits(start, [math.exp(-t)] * 2)
        tol = report.provenance["quadrature_tol"][0]
        lines.append(f"{t},{kl:.12e},{exact:.12e},{abs(kl - exact):.6e},{tol:.6e}")
        print(f"  t={t:5.2f}  |error|={abs(kl - exact):.2e}  tolerance={tol:.2e} bits")
    (args.out / "grid_start_flow.csv").write_text("\n".join(lines) + "\n")

    rng = np.random.default_rng(2024)
    lines = ["margin,plants,raised,worst_rel_diff,worst_d"]
    print("\nsolve_lyapunov vs scipy on near-marginal plants, 200 per margin, d 2-32:")
    for margin in (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        worst, worst_d, raised = 0.0, 0, 0
        for _ in range(200):
            d = int(rng.integers(2, 33))
            M = rng.uniform(-2.0, 2.0, (d, d))
            A = M - (rq.spectral_abscissa(M) + margin) * np.eye(d)
            W = rng.standard_normal((d, d))
            Q = W @ W.T
            reference = scipy.linalg.solve_continuous_lyapunov(A, -Q)
            try:
                P = rq.solve_lyapunov(A, Q)
            except NumericalError:
                raised += 1
                continue
            diff = float(np.abs(P - reference).max() / np.abs(reference).max())
            if diff > worst:
                worst, worst_d = diff, d
        lines.append(f"{margin},200,{raised},{worst:.6e},{worst_d}")
        print(f"  margin={margin:7.0e}  worst rel diff={worst:.2e} (d={worst_d})  raised={raised}/200")
    (args.out / "lyapunov_near_marginal.csv").write_text("\n".join(lines) + "\n")

    rng = np.random.default_rng(2026)
    lines = ["d,evaluations,worst_rel_diff,worst_norm_mt"]
    print("\nmatrix_exponential vs scipy.linalg.expm, 20 non-normal M per d, ||Mt||_F 0.01-50, t of both signs:")
    for d in (1, 2, 4, 8, 16, 32):
        worst, worst_norm, evaluations = 0.0, 0.0, 0
        for _ in range(20):
            M = rng.standard_normal((d, d)) + np.triu(rng.uniform(-3.0, 3.0, (d, d)), 1)
            for size in (0.01, 1.0, 5.0, 20.0, 50.0):
                for t in (size, -size) / np.linalg.norm(M):
                    reference = scipy.linalg.expm(M * t)
                    diff = float(np.linalg.norm(rq.matrix_exponential(M, t) - reference)
                                 / np.linalg.norm(reference))
                    evaluations += 1
                    if diff > worst:
                        worst, worst_norm = diff, size
        lines.append(f"{d},{evaluations},{worst:.6e},{worst_norm}")
        print(f"  d={d:2d}  worst rel diff={worst:.2e} (||Mt||={worst_norm:g})")
    (args.out / "expm_vs_scipy.csv").write_text("\n".join(lines) + "\n")

    rng = np.random.default_rng(2027)
    lines = ["theta,plants,raised,worst_rel_diff,worst_d,worst_scaled_residual"]
    print("\nsolve_care_newton vs scipy.linalg.solve_continuous_are, 100 plants per theta, d 1-32:")
    for theta in 2.0 ** np.arange(11):
        worst, worst_d, worst_residual, raised = 0.0, 0, 0.0, 0
        for _ in range(100):
            d = int(rng.integers(1, 33))
            A = rng.uniform(-2.0, 2.0, (d, d))
            B = rng.uniform(-2.0, 2.0, (d, int(rng.integers(1, 5))))
            Q, R = np.eye(d), np.eye(B.shape[1]) / theta
            reference = scipy.linalg.solve_continuous_are(A, B, Q, R)
            try:
                P = rq.solve_care_newton(A, B, R, Q)
            except NumericalError:
                raised += 1
                continue
            G = B @ np.linalg.solve(R, B.T)
            norm_p = np.linalg.norm(P)
            scale = 1.0 + np.linalg.norm(Q) + 2.0 * np.linalg.norm(A) * norm_p + np.linalg.norm(G) * norm_p**2
            worst_residual = max(
                worst_residual, float(np.linalg.norm(A.T @ P + P @ A - P @ G @ P + Q) / scale)
            )
            diff = float(np.abs(P - reference).max() / np.abs(reference).max())
            if diff > worst:
                worst, worst_d = diff, d
        lines.append(f"{theta:g},100,{raised},{worst:.6e},{worst_d},{worst_residual:.6e}")
        print(f"  theta={theta:5g}  worst rel diff={worst:.2e} (d={worst_d})  "
              f"worst scaled residual={worst_residual:.1e}  raised={raised}/100")
    (args.out / "riccati_vs_scipy.csv").write_text("\n".join(lines) + "\n")
    print(f"\nwrote CSVs to {args.out}/")


if __name__ == "__main__":
    main()
