"""The public names of ``redunquant`` and their parameters, pinned so an API
change, such as a setting added or removed, is a visible test edit."""

import inspect

import redunquant as rq
from redunquant import cli

PUBLIC_NAMES = [
    "Box",
    "ConfigSyntaxError",
    "ConfigValidationError",
    "ConstantDiffusion",
    "DiagAffineDiffusion",
    "DimensionError",
    "DivergenceError",
    "DomainError",
    "GainSet",
    "GaussianDensity",
    "GridDensity",
    "GridMismatchError",
    "IoError",
    "MultiChannelSystem",
    "NonUniqueError",
    "NotHurwitzError",
    "NotReliableError",
    "NumericalError",
    "OutOfBoxError",
    "RedundancyReport",
    "RedunquantError",
    "ReliabilityReport",
    "SampleSet",
    "SweepTable",
    "SynthesisFailedError",
    "UnsupportedDiffusionError",
    "closed_loop_matrix",
    "default_sim_params",
    "default_stationary_box",
    "empirical_density",
    "epsilon_sweep",
    "fp_residual",
    "gaussian_entropy",
    "gaussian_kl",
    "grid_entropy",
    "grid_kl",
    "liouville_redundancy",
    "matrix_exponential",
    "pushforward_gaussian",
    "sample_box",
    "simulate_sde",
    "solve_care_newton",
    "solve_lyapunov",
    "solve_stationary_fp_grid",
    "spectral_abscissa",
    "stationary_gaussian",
    "synthesize_gains",
    "systemic_redundancy",
    "time_sweep",
    "transported_pdf",
    "verify_reliable",
]


def test_public_names_are_pinned():
    assert rq.__all__ == PUBLIC_NAMES


#: Parameter names of every public callable that has a signature of its
#: own; the plain exception classes keep BaseException's and are left out.
PARAMETERS = {
    "Box": ["lo", "hi", "n"],
    "ConfigSyntaxError": ["message", "line", "column"],
    "ConfigValidationError": ["message", "field"],
    "ConstantDiffusion": ["matrix"],
    "DiagAffineDiffusion": ["base", "slope"],
    "DivergenceError": ["message", "path_index"],
    "GainSet": ["K"],
    "GaussianDensity": ["mean", "cov"],
    "GridDensity": ["box", "values"],
    "MultiChannelSystem": ["A", "B", "sigma"],
    "NotReliableError": ["message", "report"],
    "OutOfBoxError": ["message", "leakage"],
    "RedundancyReport": [
        "kl_per_channel", "avg_term", "entropy_term", "r", "method", "epsilon", "t", "provenance",
    ],
    "ReliabilityReport": ["abscissae", "margin", "reliable"],
    "SampleSet": ["samples", "seed", "t_final", "dt", "mode"],
    "SweepTable": ["parameter", "values", "reports", "pair_annotations", "notes"],
    "SynthesisFailedError": ["message", "best_report"],
    "closed_loop_matrix": ["sys", "gains", "mode"],
    "default_sim_params": ["sys", "gains", "mode", "horizon", "dt"],
    "default_stationary_box": ["sys", "gains", "mode", "eps", "n_cells"],
    "empirical_density": ["samples", "box"],
    "epsilon_sweep": ["sys", "gains", "eps_list", "method", "seed", "method_kwargs"],
    "fp_residual": ["density", "sys", "gains", "mode", "eps", "box"],
    "gaussian_entropy": ["g"],
    "gaussian_kl": ["q", "p"],
    "grid_entropy": ["rho"],
    "grid_kl": ["q", "p"],
    "liouville_redundancy": ["sys", "gains", "rho0", "t"],
    "matrix_exponential": ["M", "t"],
    "pushforward_gaussian": ["sys", "gains", "mode", "g0", "t"],
    "sample_box": ["sample_sets", "n_cells"],
    "simulate_sde": ["sys", "gains", "mode", "eps", "horizon", "dt", "n_paths", "seed", "x0"],
    "solve_care_newton": ["A", "B", "R", "Q", "tol"],
    "solve_lyapunov": ["A_cl", "Q"],
    "solve_stationary_fp_grid": ["sys", "gains", "mode", "eps", "box", "n_cells"],
    "spectral_abscissa": ["M"],
    "stationary_gaussian": ["sys", "gains", "mode", "eps"],
    "synthesize_gains": ["sys"],
    "systemic_redundancy": [
        "sys", "gains", "eps", "method",
        "seed", "n_paths", "horizon", "dt", "hist_cells", "grid_box", "grid_cells",
    ],
    "time_sweep": ["sys", "gains", "rho0", "t_list", "reference_eps"],
    "transported_pdf": ["sys", "gains", "mode", "rho0", "t", "points"],
    "verify_reliable": ["sys", "gains"],
}


def _parameters(obj) -> list[str] | None:
    try:
        return list(inspect.signature(obj).parameters)
    except ValueError:  # a builtin signature: BaseException's
        return None


def test_public_parameters_are_pinned():
    found = {name: _parameters(getattr(rq, name)) for name in rq.__all__}
    assert {name: params for name, params in found.items() if params is not None} == PARAMETERS
    plain = set(found) - set(PARAMETERS)
    assert all(issubclass(getattr(rq, name), rq.RedunquantError) for name in plain)


def test_run_command_options_are_pinned():
    assert _parameters(cli.run_command) == ["cmd", "spec", "out_dir", "method", "seed"]
