"""Membership in the single-failure-tolerant feedback class, and synthesis.

A gain set is *reliable* when the closed loop is Hurwitz in the nominal
configuration and under every single-channel outage. ``verify_reliable``
is the ground-truth decision procedure (strict inequality, no slack);
``synthesize_gains`` is a heuristic that scales up a Riccati design until
verification passes. Synthesis failure carries the best report found but
is not a certificate that no reliable gain set exists. Each Riccati design
is one direct Schur solve (``solve_care_newton``, a name kept from the
Newton-Kleinman iteration it replaced). Verification needs only numpy;
``scipy.linalg`` is imported inside the two synthesis functions that
call it, so that ``verify`` does not pay its ~0.3 s import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SynthesisFailedError
from .system_model import (
    GainSet,
    MultiChannelSystem,
    closed_loop_matrix,
    spectral_abscissa,
)


@dataclass(frozen=True, eq=False)
class ReliabilityReport:
    """Spectral abscissae of all N+1 failure modes (index 0 = nominal)."""

    abscissae: np.ndarray
    margin: float
    reliable: bool

    def __post_init__(self):
        a = np.array(self.abscissae, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "abscissae", a)


@dataclass(frozen=True)
class SynthesisOptions:
    """Weights and search bounds for the gain-scaling synthesis loop."""

    Q_weight: np.ndarray | None = None
    R_weights: tuple[np.ndarray, ...] | None = None
    theta_max: float = 1024.0
    margin_floor: float = 1e-6

    def __post_init__(self):
        if self.theta_max < 1.0:
            raise DomainError("theta_max must be at least 1")
        if self.margin_floor < 0.0:
            raise DomainError("margin_floor must be nonnegative")


def verify_reliable(sys: MultiChannelSystem, gains: GainSet) -> ReliabilityReport:
    """Decide reliability: every mode's spectral abscissa strictly negative."""
    abscissae = np.array(
        [spectral_abscissa(closed_loop_matrix(sys, gains, j)) for j in range(sys.n_channels + 1)]
    )
    margin = float(-abscissae.max())
    return ReliabilityReport(abscissae=abscissae, margin=margin, reliable=margin > 0.0)


def _check_pd(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    scale = max(1.0, float(np.abs(M).max()))
    if M.ndim != 2 or M.shape[0] != M.shape[1] or float(np.abs(M - M.T).max()) > 1e-10 * scale:
        raise DomainError(f"{name} must be a symmetric square matrix")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise DomainError(f"{name} must be positive definite") from None
    return 0.5 * (M + M.T)


def solve_care_newton(
    A: np.ndarray,
    B: np.ndarray,
    R: np.ndarray,
    Q: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray:
    """Stabilizing solution of A^T P + P A - P B R^{-1} B^T P + Q = 0.

    Solved by the Schur method (scipy.linalg.solve_continuous_are: the
    stable deflating subspace of the extended Hamiltonian pencil; Laub,
    IEEE TAC 24:913-921, 1979), which needs no stabilizing initial gain.
    The result is accepted when the Riccati residual is at most ``tol``
    times a backward-error scale. The name predates the Schur method and
    is kept because callers and timing tools look the function up by it.
    """
    import scipy.linalg  # lazy; see the module docstring

    try:
        P = scipy.linalg.solve_continuous_are(A, B, Q, R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"Riccati solve failed: {exc}") from exc
    G = B @ np.linalg.solve(R, B.T)
    residual = float(np.linalg.norm(A.T @ P + P @ A - P @ G @ P + Q, "fro"))
    norm_p = float(np.linalg.norm(P, "fro"))
    scale = (
        1.0
        + float(np.linalg.norm(Q, "fro"))
        + 2.0 * float(np.linalg.norm(A, "fro")) * norm_p
        + float(np.linalg.norm(G, "fro")) * norm_p**2
    )
    if residual > tol * scale:
        raise NumericalError(
            f"Riccati residual {residual!r} exceeds tolerance {tol * scale!r}"
        )
    return P


def synthesize_gains(
    sys: MultiChannelSystem, opts: SynthesisOptions | None = None
) -> GainSet:
    """First reliable gain set on the doubling gain-effort ladder.

    For theta in {1, 2, 4, ..., theta_max} the stacked-input Riccati
    equation with R/theta is solved and the per-channel gains
    K_i = -theta R_i^{-1} B_i^T P are checked by verify_reliable; the
    smallest passing theta wins. Higher theta means more aggressive
    feedback, which tolerates channel outages more often.
    """
    import scipy.linalg  # lazy; see the module docstring

    opts = opts or SynthesisOptions()
    d = sys.d
    Q = np.eye(d) if opts.Q_weight is None else _check_pd(opts.Q_weight, "Q_weight")
    if Q.shape != (d, d):
        raise DomainError(f"Q_weight must be {d}x{d}")
    if opts.R_weights is None:
        R_blocks = [np.eye(r) for r in sys.input_dims]
    else:
        if len(opts.R_weights) != sys.n_channels:
            raise DomainError("one R weight per channel is required")
        R_blocks = [
            _check_pd(Ri, f"R_weights[{i}]") for i, Ri in enumerate(opts.R_weights)
        ]
        for i, (Ri, r) in enumerate(zip(R_blocks, sys.input_dims)):
            if Ri.shape != (r, r):
                raise DomainError(f"R_weights[{i}] must be {r}x{r}")

    B_full = np.hstack(sys.B)
    R_full = scipy.linalg.block_diag(*R_blocks)
    splits = np.cumsum(sys.input_dims)[:-1]

    best_report: ReliabilityReport | None = None
    theta = 1.0
    while theta <= opts.theta_max * (1.0 + 1e-12):
        P = solve_care_newton(sys.A, B_full, R_full / theta, Q)
        K_full = -theta * np.linalg.solve(R_full, B_full.T @ P)
        gains = GainSet(np.split(K_full, splits, axis=0))
        report = verify_reliable(sys, gains)
        if report.reliable and report.margin >= opts.margin_floor:
            return gains
        if best_report is None or report.margin > best_report.margin:
            best_report = report
        theta *= 2.0
    raise SynthesisFailedError(
        f"no theta <= {opts.theta_max:g} produced a reliable gain set "
        f"(best margin {best_report.margin!r}); this is not a certificate "
        "of impossibility",
        best_report=best_report,
    )
