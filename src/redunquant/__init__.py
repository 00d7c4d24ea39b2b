"""redunquant: redundancy quantification for reliable multi-channel systems."""

from types import ModuleType as _ModuleType

from .densities import Box, GaussianDensity, GridDensity
from .errors import (
    ConfigSyntaxError,
    ConfigValidationError,
    DimensionError,
    DivergenceError,
    DomainError,
    GridMismatchError,
    IoError,
    NonUniqueError,
    NotHurwitzError,
    NotReliableError,
    NumericalError,
    OutOfBoxError,
    RedunquantError,
    SynthesisFailedError,
    UnsupportedDiffusionError,
)
from .info_measures import gaussian_entropy, gaussian_kl, grid_entropy, grid_kl
from .liouville_flow import pushforward_gaussian, transported_pdf
from .redundancy_analysis import (
    RedundancyReport,
    SweepTable,
    epsilon_sweep,
    liouville_redundancy,
    systemic_redundancy,
    time_sweep,
)
from .reliable_gains import (
    ReliabilityReport,
    solve_care_newton,
    synthesize_gains,
    verify_reliable,
)
from .reporting import TOOL_VERSION as __version__
from .stochastic_engine import (
    SampleSet,
    default_sim_params,
    default_stationary_box,
    empirical_density,
    fp_residual,
    sample_box,
    simulate_sde,
    solve_stationary_fp_grid,
    stationary_gaussian,
)
from .system_model import (
    ConstantDiffusion,
    DiagAffineDiffusion,
    GainSet,
    MultiChannelSystem,
    closed_loop_matrix,
    matrix_exponential,
    solve_lyapunov,
    spectral_abscissa,
)

# the names imported above, without the submodules those imports bind
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
