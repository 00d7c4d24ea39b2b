"""Convergence diagnostics for the numerical routes.

Three studies on the unit Ornstein-Uhlenbeck loop (exact stationary law
N(0, 1/2)): second-order decay of the stationary-operator residual under
grid refinement, L1 convergence of the grid solver, and Monte Carlo
histogram error versus path count. A fourth compares the Monte Carlo
redundancy of the scalar two-channel system (eps = 0.1) with its closed
form over 8 seeds, in units of the reported batch-means standard error:
at 2k paths expect a positive mean, since that SE covers sampling noise
only and the histogram estimate is biased upward at small n.

Usage: python scripts/convergence_study.py [--out OUTDIR] [--quick]
"""

import argparse
from pathlib import Path

import numpy as np

import redunquant as rq


def discretized(g, box):
    return rq.GridDensity.from_unnormalized(
        box, g.pdf(box.center_points()).reshape(tuple(box.n))
    )


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

    two_channel = rq.MultiChannelSystem(
        [[1.0]], [[[1.0]], [[1.0]]], rq.ConstantDiffusion([[1.0]])
    )
    two_gains = rq.GainSet([[[-2.0]], [[-2.0]]])
    r_closed = rq.systemic_redundancy(two_channel, two_gains, 0.1).r
    lines = ["n_paths,seed,r_mc,r_mc_minus_closed,se_r,z"]
    print(f"\nMonte Carlo r vs closed form {r_closed:.4f} bits, z = (r_mc - r_closed)/SE:")
    for n_paths in (2_000, 100_000):
        zs = []
        for seed in range(8):
            report = rq.systemic_redundancy(
                two_channel, two_gains, 0.1, "monte_carlo", seed=seed, n_paths=n_paths
            )
            se = report.provenance["standard_error"]["r"]
            zs.append((report.r - r_closed) / se)
            lines.append(f"{n_paths},{seed},{report.r:.6e},{report.r - r_closed:.6e},{se:.6e},{zs[-1]:.4f}")
        print(f"  n={n_paths:7d}  z mean={np.mean(zs):+.2f}  sd={np.std(zs, ddof=1):.2f}  "
              f"max |z|={np.max(np.abs(zs)):.2f}")
    (args.out / "mc_redundancy_z.csv").write_text("\n".join(lines) + "\n")
    print(f"\nwrote CSVs to {args.out}/")


if __name__ == "__main__":
    main()
