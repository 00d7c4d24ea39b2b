"""Differential entropy and relative entropy (KL divergence), in bits.

Gaussian closed forms cover the analytic paths; grid estimators cover the
numerical paths. All results use base-2 logarithms; internal computation
is in nats with a single conversion at the end. ``gaussian_kl`` imports
``scipy.linalg`` when first called, so that the Monte Carlo route, which
needs only the grid estimators, does not pay its ~0.3 s import.
"""

from __future__ import annotations

import math

import numpy as np

from .densities import GridDensity, require_same_grid
from .densities import GaussianDensity
from .errors import DimensionError, DomainError, NumericalError

LN2 = math.log(2.0)

#: Densities below this are treated as zero when they appear inside a log;
#: chosen far below any meaningful density but above double underflow.
DENSITY_FLOOR = 1e-300


#: If cells where p <= DENSITY_FLOOR hold more than this much of q's mass,
#: the KL is the +inf sentinel instead of a silently truncated sum.
_MAX_UNDERFLOW_MASS = 1e-3


def _clamp_kl(value: float, left_out: float = 0.0) -> float:
    # exact zero for q == p; tiny negative round-off is clamped, and so is
    # the deficit of up to left_out / ln 2 bits that leaving out q-mass
    # left_out can cause (log-sum inequality); anything larger signals a
    # real defect
    if value < 0.0:
        if value > -(1e-8 + left_out / LN2):
            return 0.0
        raise NumericalError(f"KL divergence evaluated to {value!r} < 0")
    return value


def gaussian_entropy(g: GaussianDensity) -> float:
    """Differential entropy of a Gaussian in bits: 0.5 log2((2 pi e)^d det cov).

    May be negative for tightly concentrated densities.
    """
    sign, logdet = np.linalg.slogdet(g.cov)
    if sign <= 0:
        raise DomainError("covariance must be positive definite")
    nats = 0.5 * (g.dim * (1.0 + math.log(2.0 * math.pi)) + logdet)
    return float(nats / LN2)


def gaussian_kl(q: GaussianDensity, p: GaussianDensity) -> float:
    """Relative entropy D(q || p) between Gaussians, in bits (>= 0)."""
    if q.dim != p.dim:
        raise DimensionError(f"dimension mismatch: {q.dim} vs {p.dim}")
    import scipy.linalg  # lazy; see the module docstring

    d = q.dim
    chol_p = scipy.linalg.cho_factor(p.cov, lower=True)
    trace = float(np.trace(scipy.linalg.cho_solve(chol_p, q.cov)))
    diff = q.mean - p.mean
    quad = float(diff @ scipy.linalg.cho_solve(chol_p, diff))
    _, logdet_p = np.linalg.slogdet(p.cov)
    _, logdet_q = np.linalg.slogdet(q.cov)
    nats = 0.5 * (trace - d + quad + logdet_p - logdet_q)
    return _clamp_kl(float(nats / LN2))


def grid_entropy(rho: GridDensity) -> float:
    """Entropy estimator -sum rho_c log2(rho_c) * cell_volume.

    Cells with rho_c = 0 contribute nothing (0 log 0 = 0); positive but
    tiny cells are floored at DENSITY_FLOOR inside the log.
    """
    v = rho.values
    positive = v > 0.0
    logs = np.log2(np.maximum(v[positive], DENSITY_FLOOR))
    return float(-(v[positive] * logs).sum() * rho.box.cell_volume)


def grid_kl(q: GridDensity, p: GridDensity) -> float:
    """Relative entropy estimator between densities on one shared grid.

    Cells with q_c at or below the floor contribute 0. Cells with p_c at
    or below it (p has underflowed there, or a solver clamped its round-off
    to 0) are left out. If they hold more than 1e-3 of q's mass, q is not
    absolutely continuous w.r.t. p on the grid and the result is the +inf
    sentinel.
    """
    return _grid_kl_and_left_out(q, p)[0]


def _grid_kl_and_left_out(q: GridDensity, p: GridDensity) -> tuple[float, float]:
    """``grid_kl`` and the q-mass on the cells it leaves out."""
    require_same_grid(q, p)
    qv = q.values
    pv = p.values
    volume = q.box.cell_volume
    underflow = pv <= DENSITY_FLOOR
    left_out = float(qv[underflow].sum() * volume)
    if left_out > _MAX_UNDERFLOW_MASS:
        return math.inf, left_out
    active = (qv > DENSITY_FLOOR) & ~underflow
    terms = qv[active] * (np.log2(qv[active]) - np.log2(pv[active]))
    return _clamp_kl(float(terms.sum() * volume), left_out), left_out
