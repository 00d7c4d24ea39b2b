"""Density transport under the unperturbed closed-loop flows.

For linear state feedback the flow map is x -> exp(A_j t) x, so densities
push forward in closed form: Gaussians stay Gaussian, and any initial
density rho0 transports as

    rho_j(t, x) = rho0(exp(-A_j t) x) * exp(-trace(A_j) t),

where A_j is the mode-j closed-loop matrix. The Jacobian factor uses the
closed-loop trace, which is what keeps total mass constant in time. The
paper's literal open-loop trace(A) factor only rescales each mode's mass
by a constant, which ``liouville_redundancy`` records instead.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from .densities import Box, GaussianDensity, GridDensity, UniformBoxDensity
from .errors import DimensionError, DomainError
from .system_model import (
    GainSet,
    MultiChannelSystem,
    closed_loop_matrix,
    matrix_exponential,
)

GeneralDensity = Union[GaussianDensity, UniformBoxDensity, GridDensity]

_MAX_QUADRATURE_POINTS = 20_000_000


class QuadratureResult(NamedTuple):
    value: float
    tol: float


def _check_time(t: float) -> float:
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise DomainError(f"time must be a finite nonnegative real, got {t!r}")
    return t


def pushforward_gaussian(
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    g0: GaussianDensity,
    t: float,
) -> GaussianDensity:
    """Exact Gaussian pushforward: mean Phi m0, covariance Phi P0 Phi^T."""
    t = _check_time(t)
    if g0.dim != sys.d:
        raise DimensionError(f"density dimension {g0.dim} does not match state dimension {sys.d}")
    A_j = closed_loop_matrix(sys, gains, mode)
    Phi = matrix_exponential(A_j, t)
    cov = Phi @ g0.cov @ Phi.T
    return GaussianDensity(Phi @ g0.mean, 0.5 * (cov + cov.T))


def transported_pdf(
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    rho0: GeneralDensity,
    t: float,
    points: np.ndarray,
) -> np.ndarray:
    """Evaluate the transported density at many points, shape (n, d)."""
    t = _check_time(t)
    A_j = closed_loop_matrix(sys, gains, mode)
    Phi_inv = matrix_exponential(A_j, -t)
    pulled_back = np.atleast_2d(np.asarray(points, dtype=float)) @ Phi_inv.T
    return np.asarray(rho0.pdf(pulled_back)) * np.exp(-float(np.trace(A_j)) * t)


def density_at(
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    rho0: GeneralDensity,
    t: float,
    x: np.ndarray,
) -> float:
    """Transported density at a single point x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != sys.d:
        raise DimensionError(f"point has dimension {x.size}, expected {sys.d}")
    return float(transported_pdf(sys, gains, mode, rho0, t, x[None, :])[0])


def default_transport_box(
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    rho0: GeneralDensity,
    t: float,
    n: int = 400,
) -> Box:
    """Box covering the transported support (8 sigma for Gaussian rho0).

    For a Gaussian the pushforward's own mean/covariance fix the box; for
    box-supported densities the corners are mapped through the flow and
    their axis-aligned hull is padded slightly.
    """
    t = _check_time(t)
    if isinstance(rho0, GaussianDensity):
        g_t = pushforward_gaussian(sys, gains, mode, rho0, t)
        spread = 8.0 * np.sqrt(np.diag(g_t.cov))
        return Box(g_t.mean - spread, g_t.mean + spread, np.full(sys.d, n))
    if sys.d > 12:
        raise DomainError("default box construction supports d <= 12; pass a box explicitly")
    if isinstance(rho0, UniformBoxDensity):
        lo0, hi0 = rho0.lo, rho0.hi
    elif isinstance(rho0, GridDensity):
        lo0, hi0 = rho0.box.lo, rho0.box.hi
    else:
        raise DomainError(f"unsupported initial density type {type(rho0).__name__}")
    A_j = closed_loop_matrix(sys, gains, mode)
    Phi = matrix_exponential(A_j, t)
    corners = np.stack([np.where(mask, hi0, lo0) for mask in np.ndindex(*([2] * sys.d))])
    mapped = corners @ Phi.T
    lo = mapped.min(axis=0)
    hi = mapped.max(axis=0)
    pad = 0.05 * (hi - lo) + 1e-12
    return Box(lo - pad, hi + pad, np.full(sys.d, n))


def integrate_density(
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    rho0: GeneralDensity,
    t: float,
    box: Box | None = None,
) -> QuadratureResult:
    """Trapezoidal mass of the transported density over a box.

    Returns the quadrature value together with a grid-dependent accuracy
    estimate (Richardson comparison against the half-resolution subgrid;
    an odd per-axis cell count is rounded up to even for this). A box
    that misses significant mass shows up as a value far from 1, never
    as an exception.
    """
    t = _check_time(t)
    if box is None:
        box = default_transport_box(sys, gains, mode, rho0, t)
    if box.dim != sys.d:
        raise DimensionError(f"box dimension {box.dim} does not match state dimension {sys.d}")
    # an even cell count per axis lets the Richardson estimate reuse values
    n = np.array([m + (m % 2) for m in box.n], dtype=int)
    box = Box(box.lo, box.hi, n)
    if np.prod(n + 1) > _MAX_QUADRATURE_POINTS:
        raise DomainError("quadrature grid too large; reduce resolution or dimension")

    values = transported_pdf(sys, gains, mode, rho0, t, box.node_points()).reshape(tuple(n + 1))

    def trapezoid(field: np.ndarray, spacings: np.ndarray) -> float:
        out = field
        for axis in range(field.ndim - 1, -1, -1):
            out = np.trapezoid(out, dx=spacings[axis], axis=axis)
        return float(out)

    h = box.widths / n
    full = trapezoid(values, h)
    coarse = trapezoid(values[tuple(slice(None, None, 2) for _ in range(box.dim))], 2.0 * h)
    tol = max(abs(full - coarse) / 3.0 * 4.0, 1e-12)
    return QuadratureResult(full, tol)
