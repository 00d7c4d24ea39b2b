"""Independent references for the benchmark's correctness checks.

Nothing here calls the library's numerical kernels: stationary laws come
from scipy's Bartels-Stewart solver (``solve_continuous_lyapunov``), flows
from ``scipy.linalg.expm``, spectra from ``scipy.linalg.eigvals``, and the
Gaussian entropy and relative entropy are written out explicitly. Only
plain matrices go in, so a defect in the library cannot leak into its own
reference.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

LN2 = math.log(2.0)


def closed_loop(A, B, K, mode: int) -> np.ndarray:
    """A + sum_{i != mode} B_i K_i (mode 0 keeps every channel)."""
    M = np.array(A, dtype=float)
    for i, (Bi, Ki) in enumerate(zip(B, K)):
        if i + 1 != mode:
            M = M + np.asarray(Bi) @ np.asarray(Ki)
    return M


def abscissa(M) -> float:
    return float(np.max(scipy.linalg.eigvals(M).real))


def gaussian_entropy_bits(cov) -> float:
    d = cov.shape[0]
    _, logdet = np.linalg.slogdet(cov)
    return 0.5 * (d * math.log(2.0 * math.pi * math.e) + logdet) / LN2


def gaussian_kl_bits(cov_q, cov_p) -> float:
    """D(N(0, cov_q) || N(0, cov_p)) in bits."""
    d = cov_q.shape[0]
    trace = float(np.trace(np.linalg.solve(cov_p, cov_q)))
    _, ld_p = np.linalg.slogdet(cov_p)
    _, ld_q = np.linalg.slogdet(cov_q)
    return 0.5 * (trace - d + ld_p - ld_q) / LN2


def redundancy_bits(covs) -> float:
    """r = (1/(2N)) sum_i D(mu_i || mu_0) - H(mu_0) for zero-mean Gaussians."""
    n = len(covs) - 1
    kls = [gaussian_kl_bits(covs[i], covs[0]) for i in range(1, n + 1)]
    return math.fsum(kls) / (2.0 * n) - gaussian_entropy_bits(covs[0])


def stationary_covs(A, B, K, SSt, eps: float) -> list[np.ndarray]:
    covs = []
    for j in range(len(B) + 1):
        P = scipy.linalg.solve_continuous_lyapunov(closed_loop(A, B, K, j), -(eps**2) * SSt)
        covs.append(0.5 * (P + P.T))
    return covs


def stationary_r(A, B, K, SSt, eps: float) -> float:
    return redundancy_bits(stationary_covs(A, B, K, SSt, eps))


def flow_r(A, B, K, cov0, t: float) -> float:
    """r_t for a zero-mean Gaussian start pushed along exp(A_j t)."""
    covs = []
    for j in range(len(B) + 1):
        Phi = scipy.linalg.expm(closed_loop(A, B, K, j) * t)
        cov = Phi @ cov0 @ Phi.T
        covs.append(0.5 * (cov + cov.T))
    return redundancy_bits(covs)


def affine_moment_residual(A_cl, base, slope, eps: float, second, abs_mean) -> float:
    """Relative residual of the stationary second-moment identity.

    For dx = A x dt + eps diag(c + s|x|) dW the stationary second moment
    M = E[x x^T] satisfies A M + M A^T + eps^2 diag(E[(c + s|x|)^2]) = 0.
    ``second`` is M, ``abs_mean`` is E|x_k| and the diagonal E[x_k^2] of M
    completes E[(c + s|x|)^2] = c^2 + 2 c s E|x| + s^2 E[x^2].
    """
    noise = base**2 + 2.0 * base * slope * abs_mean + slope**2 * np.diag(second)
    Q = eps**2 * np.diag(noise)
    R = A_cl @ second + second @ A_cl.T + Q
    return float(np.linalg.norm(R) / np.linalg.norm(Q))


def grid_l1_to_gaussian(values, lo, hi, cov) -> float:
    """L1 distance between cell-centre density values on the box [lo, hi]
    and the zero-mean Gaussian with covariance ``cov``."""
    values = np.asarray(values, dtype=float)
    widths = (np.asarray(hi) - np.asarray(lo)) / np.array(values.shape)
    axes = [lo[k] + widths[k] * (np.arange(n) + 0.5) for k, n in enumerate(values.shape)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    inv = np.linalg.inv(cov)
    quad = np.einsum("ij,jk,ik->i", points, inv, points)
    pdf = np.exp(-0.5 * quad) / math.sqrt((2.0 * math.pi) ** len(axes) * np.linalg.det(cov))
    return float(np.abs(values.ravel() - pdf).sum() * np.prod(widths))
