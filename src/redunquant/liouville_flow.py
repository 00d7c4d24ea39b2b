"""Density transport under the unperturbed closed-loop flows.

For linear state feedback the flow map is x -> Phi_j x with Phi_j =
exp(A_j t), where A_j is the mode-j closed-loop matrix, so densities push
forward in closed form: Gaussians stay Gaussian, and any initial density
rho0 transports as

    rho_j(t, x) = rho0(exp(-A_j t) x) * exp(-trace(A_j) t).

The Jacobian factor uses the closed-loop trace, which is what keeps total
mass constant in time. The paper's literal open-loop trace(A) factor only
rescales mode j's mass by exp((trace(A_j) - trace(A)) t), which cancels
from the redundancy functional.

A non-Gaussian rho0 is a ``GridDensity``; a uniform start on [lo, hi] is
``GridDensity.from_unnormalized(Box(lo, hi, [1] * d), np.ones([1] * d))``.
Its flow terms are computed in rho0's own frame: relative entropy does not
change when both laws are mapped by the same bijection, so with M_i =
Phi_0^{-1} Phi_i

    KL(rho_i(t) || rho_0(t)) = KL(M_i # rho0 || rho0),

which ``flow_kl`` evaluates on rho0's box, whatever t is.
"""

from __future__ import annotations

import itertools
from typing import Union

import numpy as np

from .densities import GaussianDensity, GridDensity, _as_points
from .errors import DimensionError, DomainError, NumericalError
from .info_measures import LN2
from .system_model import (
    GainSet,
    MultiChannelSystem,
    closed_loop_matrix,
    matrix_exponential,
)

GeneralDensity = Union[GaussianDensity, GridDensity]

#: Subcells per axis in the midpoint quadrature of a multi-cell start.
_SUBCELLS = 16

_MAX_QUADRATURE_POINTS = 20_000_000

#: Quadrature points evaluated per vectorized block.
_BLOCK_POINTS = 1 << 16

#: A mapped corner this many ulps of the box scale past a face still lies
#: in the box: corners computed in floating point round by about that much.
_FACE_ULPS = 8


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
    pts, _ = _as_points(points, sys.d)
    A_j = closed_loop_matrix(sys, gains, mode)
    Phi_inv = matrix_exponential(A_j, -t)
    pulled_back = pts @ Phi_inv.T
    return np.asarray(rho0.pdf(pulled_back)) * np.exp(-float(np.trace(A_j)) * t)


def flow_kl(
    sys: MultiChannelSystem, gains: GainSet, mode: int, rho0: GridDensity, t: float
) -> tuple[float, float]:
    """KL(rho_mode(t) || rho_0(t)) in bits from a grid start, and a bound on
    its quadrature error: ``pullback_kl`` of M = exp(A_0 t)^{-1} exp(A_mode t).
    Equal loops give (0.0, 0.0) with no quadrature, which is what
    ``pullback_kl`` returns for M = I; a rounded I would push the box's
    faces out and give +inf."""
    A_0 = closed_loop_matrix(sys, gains, 0)
    A_i = closed_loop_matrix(sys, gains, mode)
    if np.array_equal(A_i, A_0):
        return 0.0, 0.0
    log_det = (float(np.trace(A_i)) - float(np.trace(A_0))) * t
    try:
        M = np.linalg.solve(matrix_exponential(A_0, t), matrix_exponential(A_i, t))
    except np.linalg.LinAlgError:
        M = np.nan
    if not np.all(np.isfinite(M)):
        raise NumericalError(f"exp(A_0 t) is singular in floating point at t = {t!r}")
    return pullback_kl(rho0, M, log_det)


def pullback_kl(rho0: GridDensity, M: np.ndarray, log_det: float) -> tuple[float, float]:
    """KL(M # rho0 || rho0) in bits, and a bound on its quadrature error.

    ``log_det`` is log det M. In nats, KL = -log det M + E_rho0[log rho0(x) -
    log rho0(M x)]. If M maps a corner of a positive cell out of the box
    (beyond round-off), a set of positive mass lands where rho0 is zero
    and the KL is +inf exactly. Otherwise the expectation is a midpoint sum over s^d subcells
    of each positive cell, s = ``_SUBCELLS`` (s = 1 for a one-cell start,
    on which rho0 is constant); a midpoint that lands in an empty cell
    also gives +inf. Each subcell's error is at most its mass times the
    spread of log rho0 over the cells that the bounding box of its image
    meets, and the bound is the sum of those. A one-cell start is exact in
    any dimension: KL = -log det M when M maps the box into itself.
    """
    box = rho0.box
    h = box.cell_widths
    cells = np.argwhere(rho0.values > 0.0)
    corners = (box.lo + cells * h) @ M.T  # images of the positive cells' low corners
    # bounding box of each positive cell's image: centre and half-widths
    centers = corners + M @ (0.5 * h)
    reach = np.abs(M) @ (0.5 * h)
    slack = _FACE_ULPS * np.finfo(float).eps * np.maximum(np.abs(box.lo), np.abs(box.hi))
    if np.any(centers - reach < box.lo - slack) or np.any(centers + reach > box.hi + slack):
        return np.inf, 0.0

    s = 1 if rho0.values.size == 1 else _SUBCELLS
    if len(cells) * s**box.dim > _MAX_QUADRATURE_POINTS:
        raise DomainError("quadrature grid too large; reduce the start's resolution or dimension")
    sub = h / s
    # half-widths of a subcell image's bounding box, in cells; an image that
    # only touches a face, up to round-off, does not meet the cell beyond it
    half = np.maximum(reach / s - slack, 0.0) / h
    # an interval 2 half cells long meets at most this many cells
    span = [range(k) for k in np.minimum(np.floor(2.0 * half).astype(int) + 2, box.n)]

    # the image of each subcell midpoint's offset from its cell's low corner
    shifts = ((np.indices((s,) * box.dim).reshape(box.dim, -1).T + 0.5) * sub) @ M.T
    per_block = max(1, _BLOCK_POINTS // len(cells))

    def flat(u):  # C-order index of the cell at u (in cells), clipped to the box
        index = np.moveaxis(np.floor(u).astype(int), -1, 0)
        return np.ravel_multi_index(tuple(index), box.n, mode="clip")

    with np.errstate(divide="ignore", invalid="ignore"):
        log_values = np.log(rho0.values).ravel()
        v = rho0.values[tuple(cells.T)]
        log_v = np.log(v)
        log_ratio = np.zeros(len(cells))
        bound = np.zeros(len(cells))
        for k in range(0, len(shifts), per_block):
            u = (corners + shifts[k : k + per_block, None] - box.lo) / h  # (block, cells, d)
            log_ratio += (log_v - log_values[flat(u)]).sum(axis=0)
            first, last = np.floor(u - half), u + half
            met = [log_values[flat(np.minimum(first + w, last))] for w in itertools.product(*span)]
            bound += (np.max(met, axis=0) - np.min(met, axis=0)).sum(axis=0)
    weights = v * (box.cell_volume / s**box.dim)
    kl = float(weights @ log_ratio) - log_det
    if not np.isfinite(kl):
        return np.inf, 0.0
    return max(kl, 0.0) / LN2, float(weights @ bound) / LN2
