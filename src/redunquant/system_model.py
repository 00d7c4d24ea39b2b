"""Plant/gain data model and the dense linear-algebra kernels.

Everything downstream (verification, transport, stationary laws) consumes
the four operations here: closed-loop assembly, spectra, matrix
exponentials and Lyapunov solves. Matrices are small dense float arrays;
all values are immutable after construction.

``scipy.linalg`` is imported inside ``matrix_exponential``, not at module
top. Its import takes ~0.3 s, about half of a short CLI process, and the
paths that need only spectra and Lyapunov solves (verification, the SDE
and the closed form) never pay it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .densities import _frozen_array
from .errors import DimensionError, DomainError, NotHurwitzError, NumericalError

_KAPPA_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class ConstantDiffusion:
    """Constant noise map S (d x m) with S S^T uniformly elliptic.

    The ellipticity constant kappa = lambda_min(S S^T) is computed at
    construction and must exceed 1e-12.
    """

    matrix: np.ndarray

    def __post_init__(self):
        S = _frozen_array(self.matrix, ndim=2, name="S")
        kappa = float(np.linalg.eigvalsh(S @ S.T).min())
        if kappa <= _KAPPA_FLOOR:
            raise DomainError(
                f"S S^T least eigenvalue {kappa!r} is not bounded away from zero"
            )
        object.__setattr__(self, "matrix", S)
        object.__setattr__(self, "_kappa", kappa)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    @property
    def kappa(self) -> float:
        return self._kappa

    def diffusion_matrix(self) -> np.ndarray:
        """S S^T, the constant diffusion tensor (without the eps^2 factor)."""
        return self.matrix @ self.matrix.T


@dataclass(frozen=True, eq=False)
class DiagAffineDiffusion:
    """State-dependent diagonal noise sigma(x) = diag(base_i + slope_i * |x_i|).

    Requires base > 0 elementwise and slope >= 0, which makes sigma
    Lipschitz and sigma sigma^T >= min(base)^2 I.
    """

    base: np.ndarray
    slope: np.ndarray

    def __post_init__(self):
        base = _frozen_array(self.base, ndim=1, name="base")
        slope = _frozen_array(self.slope, ndim=1, name="slope")
        if base.shape != slope.shape:
            raise DimensionError("base and slope must be equal-length vectors")
        if np.any(slope < 0.0):
            raise DomainError("slope entries must be nonnegative")
        kappa = float(base.min()) ** 2 if np.all(base > 0) else 0.0
        if kappa <= _KAPPA_FLOOR:
            raise DomainError("min(base)^2 must exceed 1e-12 for uniform ellipticity")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "_kappa", kappa)

    @property
    def d(self) -> int:
        return self.base.size

    @property
    def m(self) -> int:
        return self.base.size

    @property
    def kappa(self) -> float:
        return self._kappa

    def diag_at(self, x: np.ndarray) -> np.ndarray:
        """Diagonal of sigma(x) for points x of shape (..., d)."""
        return self.base + self.slope * np.abs(x)


DiffusionSpec = Union[ConstantDiffusion, DiagAffineDiffusion]


@dataclass(frozen=True, eq=False)
class MultiChannelSystem:
    """Linear plant xdot = A x + sum_i B_i u_i with N input channels."""

    A: np.ndarray
    B: tuple[np.ndarray, ...]
    sigma: DiffusionSpec

    def __init__(self, A, B: Sequence, sigma: DiffusionSpec):
        A = _frozen_array(A, ndim=2, name="A")
        if A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got shape {A.shape}")
        d = A.shape[0]
        Bs = []
        for i, Bi in enumerate(B):
            Bi = _frozen_array(Bi, ndim=2, name=f"B[{i}]")
            if Bi.shape[0] != d:
                raise DimensionError(
                    f"B[{i}] has {Bi.shape[0]} rows, expected {d}"
                )
            Bs.append(Bi)
        if not Bs:
            raise DimensionError("at least one input channel is required")
        if not isinstance(sigma, (ConstantDiffusion, DiagAffineDiffusion)):
            raise DomainError("sigma must be a ConstantDiffusion or DiagAffineDiffusion")
        if sigma.d != d:
            raise DimensionError(
                f"diffusion dimension {sigma.d} does not match state dimension {d}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", tuple(Bs))
        object.__setattr__(self, "sigma", sigma)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.B)

    @property
    def input_dims(self) -> tuple[int, ...]:
        return tuple(Bi.shape[1] for Bi in self.B)


@dataclass(frozen=True, eq=False)
class GainSet:
    """State-feedback gains K_1..K_N, one r_i x d matrix per channel."""

    K: tuple[np.ndarray, ...]

    def __init__(self, K: Sequence):
        Ks = tuple(_frozen_array(Ki, ndim=2, name=f"K[{i}]") for i, Ki in enumerate(K))
        if not Ks:
            raise DimensionError("at least one gain is required")
        object.__setattr__(self, "K", Ks)

    @property
    def n_channels(self) -> int:
        return len(self.K)


def _check_compatible(sys: MultiChannelSystem, gains: GainSet) -> None:
    if gains.n_channels != sys.n_channels:
        raise DimensionError(
            f"gain set has {gains.n_channels} channels, system has {sys.n_channels}"
        )
    for i, (Bi, Ki) in enumerate(zip(sys.B, gains.K)):
        if Ki.shape != (Bi.shape[1], sys.d):
            raise DimensionError(
                f"K[{i}] has shape {Ki.shape}, expected {(Bi.shape[1], sys.d)}"
            )


def closed_loop_matrix(sys: MultiChannelSystem, gains: GainSet, mode: int) -> np.ndarray:
    """Closed loop A + sum_{i != mode} B_i K_i; mode 0 keeps every channel.

    ``mode = j >= 1`` removes channel j (its controller has failed).
    """
    _check_compatible(sys, gains)
    if not 0 <= mode <= sys.n_channels:
        raise DimensionError(
            f"mode must lie in 0..{sys.n_channels}, got {mode}"
        )
    M = sys.A.copy()
    for i in range(sys.n_channels):
        if i + 1 == mode:
            continue
        M += sys.B[i] @ gains.K[i]
    return M


def spectral_abscissa(M: np.ndarray) -> float:
    """Largest real part over the eigenvalues of M (negative iff Hurwitz)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"M must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DomainError("M contains non-finite entries")
    try:
        eig = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    return float(eig.real.max())


def matrix_exponential(M: np.ndarray, t: float) -> np.ndarray:
    """exp(M t) by scaling-and-squaring (relative error ~1e-12 for ||Mt|| <= 50)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"M must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)) or not np.isfinite(t):
        raise DomainError("matrix exponential inputs must be finite")
    import scipy.linalg  # lazy; see the module docstring

    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(M * float(t))
    if not np.all(np.isfinite(E)):
        raise NumericalError(
            f"matrix exponential overflowed for ||Mt|| = {np.linalg.norm(M) * abs(t):g}"
        )
    return E


def _smith_sweep(A: np.ndarray, eig: np.ndarray):
    """Solver of A X + X A^T + C = 0 for any symmetric C, given eig(A), A Hurwitz.

    Squared Smith iteration (Smith 1968; Penzl 2000) on the Cayley transform
    U = W (A + pI), W = (A - pI)^-1, p = sqrt(max|eig| min|eig|), rho(U) < 1:
    X = sum_k U^k (2p W C W^T) U^kT by doubling until max|U^(2^k)| <= 1e-9.
    """
    modulus = np.abs(eig)
    p = np.sqrt(modulus.max() * modulus.min())
    W = np.linalg.inv(A - p * np.eye(len(A)))
    U = W @ (A + p * np.eye(len(A)))
    powers = []
    while not np.abs(U).max() <= 1e-9:  # a non-finite U runs into the cap
        if len(powers) == 64:  # 57 reach the round-off margin that solve_lyapunov rejects
            raise NumericalError("Smith iteration did not converge in 64 doublings")
        powers.append(U)
        U = U @ U

    def sweep(C: np.ndarray) -> np.ndarray:
        X = 2.0 * p * (W @ C @ W.T)
        for U_k in powers:
            X = X + U_k @ X @ U_k.T
        return X

    return sweep


def solve_lyapunov(A_cl: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A_cl P + P A_cl^T + Q = 0 for symmetric PSD P.

    One eigenvalue solve gives the Hurwitz test and the shift of the Smith
    sweep, and a second sweep on the residual refines P. Requires finite
    entries (DomainError before any arithmetic), A_cl Hurwitz and Q symmetric
    PSD; an abscissa alpha with 2|alpha| <= machine eps * ||A_cl||_F (two
    eigenvalues sum to 0 within round-off) raises NumericalError. P is
    symmetrized and checked against the residual bound
    ||A P + P A^T + Q||_F <= 1e-10 (1 + ||Q||_F + ||A||_F ||P||_F).
    """
    A_cl = np.asarray(A_cl, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if A_cl.ndim != 2 or A_cl.shape[0] != A_cl.shape[1]:
        raise DimensionError(f"A_cl must be square, got shape {A_cl.shape}")
    if Q.shape != A_cl.shape:
        raise DimensionError(f"Q shape {Q.shape} does not match A_cl shape {A_cl.shape}")
    if not (np.all(np.isfinite(A_cl)) and np.all(np.isfinite(Q))):
        raise DomainError("Lyapunov inputs must be finite")
    q_scale = max(1.0, float(np.abs(Q).max()))
    if float(np.abs(Q - Q.T).max()) > 1e-10 * q_scale:
        raise DomainError("Q must be symmetric")
    if float(np.linalg.eigvalsh(0.5 * (Q + Q.T)).min()) < -1e-10 * q_scale:
        raise DomainError("Q must be positive semidefinite")

    try:
        eig = np.linalg.eigvals(A_cl)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    alpha = float(eig.real.max())
    if alpha >= 0.0:
        raise NotHurwitzError(f"A_cl has spectral abscissa {alpha!r} >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        a_norm = float(np.linalg.norm(A_cl, "fro"))
        if -2.0 * alpha <= np.finfo(float).eps * a_norm:
            raise NumericalError(f"A_cl has spectral abscissa {alpha!r}, zero within round-off")
        sweep = _smith_sweep(A_cl, eig)
        P = sweep(Q)
        P = P + sweep(A_cl @ P + P @ A_cl.T + Q)  # one refinement step
        P = 0.5 * (P + P.T)
        residual = float(np.linalg.norm(A_cl @ P + P @ A_cl.T + Q, "fro"))
        bound = float(1e-10 * (1.0 + np.linalg.norm(Q, "fro") + a_norm * np.linalg.norm(P, "fro")))
    if not residual <= bound:  # also rejects a non-finite P
        raise NumericalError(f"Lyapunov residual {residual!r} exceeds tolerance {bound!r}")
    return P
