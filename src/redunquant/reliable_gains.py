"""Membership in the single-failure-tolerant feedback class, and synthesis.

A gain set is *reliable* when the closed loop is Hurwitz in the nominal
configuration and under every single-channel outage. ``verify_reliable``
is the ground-truth decision procedure (strict inequality, no slack);
``synthesize_gains`` is a heuristic that scales up a Riccati design until
verification passes. Synthesis failure carries the best report found but
is not a certificate that no reliable gain set exists, except when the
plant is not stabilizable at all, which is tested before the ladder. Each
Riccati design is one Newton iteration for the matrix sign function of the
Hamiltonian (``solve_care_newton``). On the ladder, the nominal loop
A + B K of each rung is the Riccati closed loop A - G P, so the rung takes
the Riccati stabilizing check from ``verify_reliable``'s nominal abscissa
and computes that spectrum once. Verification and synthesis need only
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SynthesisFailedError
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


def verify_reliable(sys: MultiChannelSystem, gains: GainSet) -> ReliabilityReport:
    """Decide reliability: every mode's spectral abscissa strictly negative."""
    abscissae = np.array(
        [spectral_abscissa(closed_loop_matrix(sys, gains, j)) for j in range(sys.n_channels + 1)]
    )
    margin = float(-abscissae.max())
    return ReliabilityReport(abscissae=abscissae, margin=margin, reliable=margin > 0.0)


def solve_care_newton(
    A: np.ndarray,
    B: np.ndarray,
    R: np.ndarray,
    Q: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray:
    """Stabilizing solution of A^T P + P A - P B R^{-1} B^T P + Q = 0.

    Solved through the matrix sign function of the Hamiltonian H = [[A, -G],
    [-Q, -A^T]], G = B R^{-1} B^T: Newton's iteration Z <- (mu Z + (mu Z)^-1)/2
    from Z = H, with the norm scaling mu = sqrt(||Z^-1||_F / ||Z||_F)
    (Roberts, Int. J. Control 32:677-687, 1980; Byers, Linear Algebra Appl.
    85:267-279, 1987), converges to Z = sign(H), and P is the least-squares
    solution of [Z12; Z22 + I] P = -[Z11 + I; Z21] (Gardiner & Laub, Int. J.
    Control 44:823-832, 1986). No stabilizing initial gain is needed. The
    result is accepted when the iteration converges within 100 steps
    (it cannot when H has eigenvalues on the imaginary axis), exactly d
    eigenvalues of H are stable, (2d - trace Z)/2, the Riccati residual is
    at most ``tol`` times a backward-error scale, and A - G P is Hurwitz.
    """
    P, G = _care_sign(A, B, R, Q, tol)
    alpha = spectral_abscissa(A - G @ P)
    if alpha >= 0.0:
        raise NumericalError(
            f"Riccati solution is not stabilizing: A - G P has abscissa {alpha!r}"
        )
    return P


#: Steps of the sign iteration before it gives up. Scaled Newton takes
#: 5-12 on the benchmark's synthesis plants (d 4-32); an eigenvalue of H at
#: distance delta from the imaginary axis adds about log2(1/delta), and one
#: on the axis never converges.
_SIGN_STEPS = 100


def _care_sign(A, B, R, Q, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """``solve_care_newton`` without its Hurwitz check of A - G P: (P, G)."""
    d = A.shape[0]
    G = B @ np.linalg.solve(R, B.T)
    Z = np.block([[A, -G], [-Q, -A.T]])
    if not np.all(np.isfinite(Z)):
        raise NumericalError("Riccati solve failed: the Hamiltonian has non-finite entries")
    eta = 2 * d * np.finfo(float).eps
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            norm = np.linalg.norm(Z)
            for _ in range(_SIGN_STEPS):
                Z_inv = np.linalg.inv(Z)
                norm_inv = np.linalg.norm(Z_inv)
                mu = np.sqrt(norm_inv / norm)
                Z_next = (0.5 * mu) * Z + (0.5 / mu) * Z_inv
                step = np.linalg.norm(Z_next - Z)
                Z, norm = Z_next, np.linalg.norm(Z_next)
                # the next step would move Z by about ||Z^-1|| step^2 / 2: stop
                # when that is below round-off, so a floor of the step cannot stall
                if step**2 * norm_inv <= eta * norm:
                    break
            else:
                raise NumericalError(
                    f"Riccati solve failed: the sign iteration did not converge in "
                    f"{_SIGN_STEPS} steps; the Hamiltonian has eigenvalues on or "
                    "near the imaginary axis"
                )
        n_stable = round(d - 0.5 * float(np.trace(Z)))  # sign(H) has trace n_unstable - n_stable
        if n_stable != d:
            raise NumericalError(
                f"Riccati solve failed: the Hamiltonian has {n_stable} stable "
                f"eigenvalues, not {d}"
            )
        # (Z + I) [I; P] = 0 on the stable subspace: P in least squares, by QR
        identity = np.eye(d)
        basis, triangle = np.linalg.qr(np.vstack([Z[:d, d:], Z[d:, d:] + identity]))
        P = np.linalg.solve(triangle, basis.T @ -np.vstack([Z[:d, :d] + identity, Z[d:, :d]]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Riccati solve failed: {exc}") from exc
    P = 0.5 * (P + P.T)
    residual = float(np.linalg.norm(A.T @ P + P @ A - P @ G @ P + Q, "fro"))
    norm_p = float(np.linalg.norm(P, "fro"))
    scale = (
        1.0
        + float(np.linalg.norm(Q, "fro"))
        + 2.0 * float(np.linalg.norm(A, "fro")) * norm_p
        + float(np.linalg.norm(G, "fro")) * norm_p**2
    )
    if not (np.isfinite(scale) and residual <= tol * scale):  # rejects a non-finite P
        raise NumericalError(
            f"Riccati residual {residual!r} exceeds tolerance {tol * scale!r}"
        )
    return P, G


#: Relative tolerance of the stabilizability (PBH) rank test: about the
#: eigenvalue error of a double eigenvalue, sqrt(machine epsilon).
_PBH_RTOL = 1.5e-8


def _unstabilizable_eigenvalue(A: np.ndarray, B: np.ndarray) -> float | complex | None:
    """An eigenvalue of A with Re >= 0 that no state feedback moves, or None.

    PBH test: (A, B) is stabilizable iff [A - lambda I, B] has full row rank
    for every eigenvalue lambda with Re lambda >= 0. Rank and sign are
    decided to a tolerance relative to ||[A B]||.
    """
    tol = _PBH_RTOL * float(np.linalg.norm(np.hstack([A, B]), 2))
    identity = np.eye(A.shape[0])
    for lam in np.linalg.eigvals(A):
        if lam.real >= -tol:
            pencil = np.hstack([A - lam * identity, B])
            if np.linalg.svd(pencil, compute_uv=False)[-1] <= tol:
                return lam.item()
    return None


#: The last rung of the gain-effort ladder theta = 1, 2, 4, ..., and the
#: reliability margin a rung must reach to win.
_THETA_MAX = 1024.0
_MARGIN_FLOOR = 1e-6


def synthesize_gains(sys: MultiChannelSystem) -> GainSet:
    """First reliable gain set on the doubling gain-effort ladder.

    For theta in {1, 2, 4, ..., 1024} the stacked-input Riccati equation
    with Q = I and R = I/theta is solved and the per-channel gains K_i =
    -theta B_i^T P are checked by verify_reliable; the smallest theta whose
    margin reaches 1e-6 wins. A rung whose nominal abscissa is >= 0 raises
    NumericalError: its Riccati solution is not stabilizing. Higher theta
    means more aggressive feedback, which tolerates channel outages more
    often. A plant that is not stabilizable through all channels together
    fails before the ladder, with the zero-gain report as its best report.
    """
    return _synthesize(sys)[0]


def _synthesize(sys: MultiChannelSystem) -> tuple[GainSet, ReliabilityReport]:
    """``synthesize_gains`` with the winning rung's verification report."""
    d = sys.d
    B_full = np.hstack(sys.B)
    splits = np.cumsum(sys.input_dims)[:-1]
    lam = _unstabilizable_eigenvalue(sys.A, B_full)
    if lam is not None:
        zero = GainSet([np.zeros((r, d)) for r in sys.input_dims])
        raise SynthesisFailedError(
            f"(A, [B_1 ... B_N]) is not stabilizable: no channel reaches the "
            f"eigenvalue {lam:.6g} of A, so no feedback gain stabilizes even the "
            "nominal loop",
            best_report=verify_reliable(sys, zero),
        )

    Q, R = np.eye(d), np.eye(B_full.shape[1])
    best_report: ReliabilityReport | None = None
    theta = 1.0
    while theta <= _THETA_MAX:
        P, _ = _care_sign(sys.A, B_full, R / theta, Q)
        K_full = -theta * (B_full.T @ P)
        gains = GainSet(np.split(K_full, splits, axis=0))
        report = verify_reliable(sys, gains)
        if report.abscissae[0] >= 0.0:  # the nominal loop A + B K is A - G P
            raise NumericalError(
                "Riccati solution is not stabilizing: the nominal loop has "
                f"abscissa {float(report.abscissae[0])!r}"
            )
        if report.reliable and report.margin >= _MARGIN_FLOOR:
            return gains, report
        if best_report is None or report.margin > best_report.margin:
            best_report = report
        theta *= 2.0
    raise SynthesisFailedError(
        f"no theta <= {_THETA_MAX:g} produced a reliable gain set "
        f"(best margin {best_report.margin!r}); this is not a certificate "
        "of impossibility",
        best_report=best_report,
    )
