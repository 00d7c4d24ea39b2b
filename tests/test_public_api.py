"""The public names of ``redunquant`` and their parameters, pinned so an API
change, such as a setting added or removed, is a visible test edit; and
the library names that the benchmark in ``perfbench/`` reads."""

import importlib
import importlib.util
import inspect
import re

import redunquant as rq
from redunquant import cli, stochastic_engine

from .conftest import ROOT

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
        "seed", "n_paths", "horizon", "dt", "grid_box", "grid_cells",
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


def _benchmark_tracer():
    # perfbench/ is a directory of scripts, not a package: load its tracer
    # by path, which only defines names and imports the standard library
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_functions_resolve():
    # the benchmark wraps each of these and fails its whole run on a missing one
    tracer = _benchmark_tracer()

    def resolve(mod, fn):
        return getattr(importlib.import_module(f"redunquant.{mod}"), fn, None)

    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracer.FUNCTIONS.items()
        for fn in fns
        if not callable(resolve(mod, fn))
    ]
    assert missing == []
    # its counting hooks read these arguments of the wrapped functions by name
    for name, hook in tracer._HOOKS.items():
        if name == tracer.SPLU:
            continue
        params = inspect.signature(resolve(*name.split("."))).parameters
        read = set(re.findall(r'args\["(\w+)"\]', inspect.getsource(hook)))
        assert read <= set(params), (name, read)


def test_fill_workers_is_the_int_zero():
    # the benchmark's provenance reads it and adds it to the threads of a
    # run; the stepped sampler starts no fill thread
    workers = stochastic_engine._FILL_WORKERS
    assert type(workers) is int and workers == 0
