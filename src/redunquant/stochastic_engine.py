"""Stationary densities of the stochastically perturbed closed loops.

Three routes produce the stationary law of
``dx = A_j x dt + eps * sigma(x) dW``:

* ``stationary_gaussian`` — exact, for constant sigma (a Lyapunov solve);
* ``euler_endpoints`` / ``simulate_sde`` + ``empirical_density`` —
  Euler-Maruyama Monte Carlo. For constant sigma the Euler endpoint is an
  exact Gaussian, drawn directly from one RNG stream; ``simulate_sde``
  steps every path through the recursion with per-path keyed streams and
  covers any sigma;
* ``solve_stationary_fp_grid`` — a finite-volume discretization of the
  stationary second-order transport operator with zero-flux boundaries,
  for d in {1, 2}, whose null vector comes from one sparse LU solve with
  a single balance row replaced by a pin.

``fp_residual`` applies the central-difference stationary operator to any
density so the three routes can be cross-checked.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .densities import Box, GaussianDensity, GridDensity
from .errors import (
    DimensionError,
    DivergenceError,
    DomainError,
    GridMismatchError,
    NonUniqueError,
    NotHurwitzError,
    NumericalError,
    OutOfBoxError,
    UnsupportedDiffusionError,
)
from .system_model import (
    ConstantDiffusion,
    GainSet,
    MultiChannelSystem,
    closed_loop_matrix,
    solve_lyapunov,
    spectral_abscissa,
)

_DIVERGENCE_LIMIT = 1e12
_CHUNK_STEPS = 4000
_MAX_NOISE_ELEMENTS = 20_000_000
_FILL_WORKERS = min(4, os.cpu_count() or 1)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Endpoints of independent sample paths recorded at t = t_final."""

    samples: np.ndarray
    seed: int
    t_final: float
    dt: float
    mode: int

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise DimensionError(f"samples must be a nonempty n x d matrix, got {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise DomainError("samples contain non-finite entries")
        if not (self.dt > 0.0 and self.t_final >= self.dt):
            raise DomainError("need dt > 0 and t_final >= dt")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


def derived_seed(seed: int, *key: int) -> int:
    """Stable 64-bit sub-seed for (seed, key) -- used for per-mode and
    per-row streams so larger runs stay schedule-independent."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _path_generator(seed: int, path_index: int) -> np.random.Generator:
    # independent stream keyed by (seed, path_index); SeedSequence spawn
    # keys are the stock numpy derivation for parallel streams
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.SFC64(ss))


def stationary_gaussian(
    sys: MultiChannelSystem, gains: GainSet, mode: int, eps: float
) -> GaussianDensity:
    """Exact stationary law N(0, P) with A_j P + P A_j^T + eps^2 S S^T = 0.

    Only defined for constant sigma and a Hurwitz mode; this is the unique
    stationary density of the perturbed closed loop in that case.
    """
    if not isinstance(sys.sigma, ConstantDiffusion):
        raise UnsupportedDiffusionError(
            "closed-form stationary law requires constant sigma; "
            "use the Monte Carlo or grid route"
        )
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be a positive real, got {eps!r}")
    A_j = closed_loop_matrix(sys, gains, mode)
    P = solve_lyapunov(A_j, eps**2 * sys.sigma.diffusion_matrix())
    return GaussianDensity(np.zeros(sys.d), P)


def default_sim_params(
    sys: MultiChannelSystem, gains: GainSet, mode: int
) -> tuple[float, float]:
    """Default (horizon, dt): ~20 closed-loop time constants, and a step of
    1e-3 * min(1, 1/||A_j||)."""
    A_j = closed_loop_matrix(sys, gains, mode)
    alpha = spectral_abscissa(A_j)
    if alpha >= 0.0:
        raise NotHurwitzError(
            f"mode {mode} is not Hurwitz (abscissa {alpha!r}); no stationary horizon exists"
        )
    horizon = 20.0 / abs(alpha)
    dt = 1e-3 * min(1.0, 1.0 / float(np.linalg.norm(A_j, 2)))
    return horizon, dt


def _euler_setup(sys, gains, mode, eps, horizon, dt, n_paths, seed, x0):
    """Validated (eps, dt, n_steps, seed, A_j, x0) of an Euler-Maruyama run."""
    eps = float(eps)
    dt = float(dt)
    horizon = float(horizon)
    if not (np.isfinite(eps) and eps >= 0.0):
        raise DomainError(f"eps must be a nonnegative real, got {eps!r}")
    if not (dt > 0.0 and np.isfinite(dt)):
        raise DomainError(f"dt must be positive, got {dt!r}")
    if horizon < dt:
        raise DomainError("horizon must be at least one step")
    if n_paths < 1:
        raise DomainError("n_paths must be at least 1")
    seed = int(seed)
    if seed < 0:
        raise DomainError("seed must be nonnegative")

    A_j = closed_loop_matrix(sys, gains, mode)
    n_steps = max(1, int(round(horizon / dt)))
    if x0 is None:
        x0 = np.zeros(sys.d)
    else:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.size != sys.d:
            raise DimensionError(f"x0 has dimension {x0.size}, expected {sys.d}")
    return eps, dt, n_steps, seed, A_j, x0


def _diverged(x: np.ndarray) -> np.ndarray:
    """Rows of x that are non-finite or beyond the divergence limit."""
    return ~np.isfinite(x).all(axis=1) | (np.abs(x).max(axis=1) > _DIVERGENCE_LIMIT)


def _chunk_weights(M: np.ndarray, E: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Unrolled one-step map over ``span`` Euler steps for constant noise.

    The recursion x_{k+1} = M x_k + E xi_k telescopes to
    x_end = M^span x_0 + sum_j M^(span-1-j) E xi_j, i.e. a single GEMM
    ``noise.reshape(nb, span*m) @ Pw`` with the step-j weight block
    (M^(span-1-j) E)^T at rows j*m:(j+1)*m of Pw.
    """
    d = M.shape[0]
    m = E.shape[1]
    Pw = np.empty((span * m, d))
    G = E.T  # (M^0 E)^T, for the final step
    for j in range(span - 1, -1, -1):
        Pw[j * m : (j + 1) * m] = G
        if j > 0:
            G = G @ M.T
    Phi = np.linalg.matrix_power(M, span)
    return Phi, Pw


def simulate_sde(
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    eps: float,
    horizon: float,
    dt: float,
    n_paths: int,
    seed: int,
    x0: np.ndarray | None = None,
) -> SampleSet:
    """Euler-Maruyama endpoints of n_paths trajectories of the perturbed loop.

    Path i draws its noise from its own stream keyed by (seed, i), so the
    result does not depend on batching, execution order or thread count;
    the fill of independent streams is the one place worth threading. For
    constant sigma the linear Euler recursion over each fixed-size chunk
    is evaluated as a single matrix product of the chunk's noise with
    precomputed step weights. Any state with |x| > 1e12 (or a non-finite
    value) aborts with DivergenceError carrying the offending path index.
    """
    eps, dt, n_steps, seed, A_j, x0 = _euler_setup(
        sys, gains, mode, eps, horizon, dt, n_paths, seed, x0
    )
    d = sys.d
    m = sys.sigma.m
    constant = isinstance(sys.sigma, ConstantDiffusion)
    sqrt_dt = np.sqrt(dt)

    step_map = np.eye(d) + dt * A_j
    noise_gain = (eps * sqrt_dt) * sys.sigma.matrix if constant else None
    weights: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    block_paths = max(1, _MAX_NOISE_ELEMENTS // (_CHUNK_STEPS * m))
    pool = ThreadPoolExecutor(_FILL_WORKERS) if _FILL_WORKERS > 1 else None

    def fill(gens, noise, span):
        def worker(bounds):
            lo, hi = bounds
            for i in range(lo, hi):
                gens[i].standard_normal(out=noise[i, :span])

        nb = len(gens)
        if pool is None or nb < 64:
            worker((0, nb))
        else:
            edges = np.linspace(0, nb, _FILL_WORKERS + 1, dtype=int)
            list(pool.map(worker, list(zip(edges[:-1], edges[1:]))))

    samples = np.empty((n_paths, d))
    try:
        for start in range(0, n_paths, block_paths):
            stop = min(start + block_paths, n_paths)
            nb = stop - start
            gens = [_path_generator(seed, i) for i in range(start, stop)]
            x = np.tile(x0, (nb, 1))
            noise = np.empty((nb, _CHUNK_STEPS if n_steps > _CHUNK_STEPS else n_steps, m))
            done = 0
            while done < n_steps:
                span = min(noise.shape[1], n_steps - done)
                fill(gens, noise, span)
                if constant:
                    if span not in weights:
                        weights[span] = _chunk_weights(step_map, noise_gain, span)
                    Phi, Pw = weights[span]
                    x = x @ Phi.T + noise[:, :span].reshape(nb, span * m) @ Pw
                else:
                    amp = eps * sqrt_dt
                    for k in range(span):
                        x += dt * (x @ A_j.T) + amp * sys.sigma.diag_at(x) * noise[:, k]
                done += span
                bad = _diverged(x)
                if np.any(bad):
                    idx = start + int(np.argmax(bad))
                    raise DivergenceError(
                        f"trajectory {idx} diverged by step {done} "
                        "(non-Hurwitz mode or dt too large?)",
                        path_index=idx,
                    )
            samples[start:stop] = x
    finally:
        if pool is not None:
            pool.shutdown()
    return SampleSet(samples, seed=seed, t_final=n_steps * dt, dt=dt, mode=mode)


def euler_endpoint_law(M: np.ndarray, Q: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(M^n, C_n)`` with ``C_n = sum_{j<n} M^j Q M^j^T``, by binary doubling.

    The bits of n are read from the most significant one: doubling k -> 2k
    uses ``C_2k = C_k + M^k C_k M^k^T`` and a set bit k -> k+1 uses
    ``C_{k+1} = Q + M C_k M^T``. O(d^3 log n) for every M, Schur-stable or
    not; an M with spectral radius above 1 may overflow to non-finite
    entries, which the caller reports as divergence.
    """
    power = np.eye(M.shape[0])
    cov = np.zeros_like(power)
    for bit in bin(int(n))[2:]:
        cov = cov + power @ cov @ power.T
        power = power @ power
        if bit == "1":
            cov = Q + M @ cov @ M.T
            power = M @ power
    return power, 0.5 * (cov + cov.T)


def euler_endpoints(
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    eps: float,
    horizon: float,
    dt: float,
    n_paths: int,
    seed: int,
    x0: np.ndarray | None = None,
) -> SampleSet:
    """Exact draws of the Euler-Maruyama endpoint, for constant sigma.

    With ``M = I + dt A_j`` and ``E = eps sqrt(dt) S``, the Euler recursion
    ``x_{k+1} = M x_k + E xi_k`` ends after ``n = round(horizon/dt)`` steps
    at ``N(M^n x0, C_n)`` with ``C_n = sum_{j<n} M^j E E^T M^j^T``
    (``euler_endpoint_law``), so this samples the same law as
    ``simulate_sde`` with d normals per path instead of n*m. The normals
    come from one SFC64 stream seeded by ``seed`` as one (n_paths, d)
    block, row i for path i, so the first k paths do not depend on
    ``n_paths``; the endpoints are those rows times a Cholesky factor of
    C_n (positive definite for eps > 0, since C_n >= E E^T and S S^T is
    elliptic). eps = 0 returns ``M^n x0`` exactly. Arguments and
    validation are those of ``simulate_sde``. Its divergence contract is
    checked at the endpoint only: a non-finite endpoint, or one with
    |x| > 1e12, raises DivergenceError carrying the first such path index.
    """
    if not isinstance(sys.sigma, ConstantDiffusion):
        raise UnsupportedDiffusionError(
            "exact endpoint sampling requires constant sigma; use simulate_sde"
        )
    eps, dt, n_steps, seed, A_j, x0 = _euler_setup(
        sys, gains, mode, eps, horizon, dt, n_paths, seed, x0
    )
    noise_gain = (eps * np.sqrt(dt)) * sys.sigma.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        power, cov = euler_endpoint_law(
            np.eye(sys.d) + dt * A_j, noise_gain @ noise_gain.T, n_steps
        )
        samples = np.tile(power @ x0, (n_paths, 1))
        if eps > 0.0:
            try:
                chol = np.linalg.cholesky(cov)  # non-finite in, non-finite out
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"endpoint covariance is not positive definite in floating point: {exc}"
                ) from exc
            rng = np.random.Generator(np.random.SFC64(seed))
            samples += rng.standard_normal((n_paths, sys.d)) @ chol.T
    bad = _diverged(samples)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise DivergenceError(
            f"endpoint {idx} diverged after {n_steps} steps "
            "(non-Hurwitz mode or dt too large?)",
            path_index=idx,
        )
    return SampleSet(samples, seed=seed, t_final=n_steps * dt, dt=dt, mode=mode)


def sample_box(sample_sets, n_cells: int, pad_fraction: float = 0.025) -> Box:
    """Smallest padded box covering every sample in the given sets."""
    mats = [s.samples for s in sample_sets]
    lo = np.min([m.min(axis=0) for m in mats], axis=0)
    hi = np.max([m.max(axis=0) for m in mats], axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = pad_fraction * span + 1e-12
    d = mats[0].shape[1]
    return Box(lo - pad, hi + pad, np.full(d, int(n_cells)))


def empirical_density(samples: SampleSet, box: Box) -> tuple[GridDensity, float]:
    """Normalized histogram of the samples at the box's cell centers.

    Returns the density together with the leakage fraction (samples that
    fell outside the box). Leakage above 10% raises OutOfBoxError.
    """
    if box.dim != samples.d:
        raise DimensionError(f"box dimension {box.dim} does not match samples ({samples.d})")
    edges = [box.nodes(k) for k in range(box.dim)]
    counts, _ = np.histogramdd(samples.samples, bins=edges)
    inside = float(counts.sum())
    leakage = 1.0 - inside / samples.n
    if leakage > 0.10:
        raise OutOfBoxError(
            f"{leakage:.1%} of samples fell outside the box; enlarge it",
            leakage=leakage,
        )
    values = counts / (inside * box.cell_volume)
    return GridDensity(box, values), float(leakage)


def smoothed_empirical_density(
    samples: SampleSet, box: Box, alpha: float = 0.05
) -> GridDensity:
    """Histogram with ``alpha`` pseudo-counts added to every cell.

    Use as the *reference* density in a histogram KL: raw histograms have
    empty tail cells wherever the other sample set still carries mass,
    which turns the estimate into the +inf sentinel at any finite sample
    size. The pseudo-count stands in for the reference law's true tiny
    tail mass (bias O(alpha * n_cells / n)).
    """
    if box.dim != samples.d:
        raise DimensionError(f"box dimension {box.dim} does not match samples ({samples.d})")
    edges = [box.nodes(k) for k in range(box.dim)]
    counts, _ = np.histogramdd(samples.samples, bins=edges)
    inside = float(counts.sum())
    if 1.0 - inside / samples.n > 0.10:
        raise OutOfBoxError("more than 10% of samples fell outside the box", leakage=1.0 - inside / samples.n)
    return GridDensity.from_unnormalized(box, counts + float(alpha))


# ---------------------------------------------------------------------------
# stationary operator: diffusion tensors, residual, finite-volume solver
# ---------------------------------------------------------------------------


def _diffusion_fields(sys: MultiChannelSystem, meshes: list[np.ndarray]) -> dict:
    """Entries of sigma sigma^T evaluated on the grid (constants broadcast)."""
    d = sys.d
    if isinstance(sys.sigma, ConstantDiffusion):
        D = sys.sigma.diffusion_matrix()
        return {(k, l): np.full_like(meshes[0], D[k, l]) for k in range(d) for l in range(d)}
    base, slope = sys.sigma.base, sys.sigma.slope
    fields = {}
    for k in range(d):
        for l in range(d):
            if k == l:
                fields[(k, l)] = (base[k] + slope[k] * np.abs(meshes[k])) ** 2
            else:
                fields[(k, l)] = np.zeros_like(meshes[0])
    return fields


def fp_residual(
    density: GridDensity | GaussianDensity,
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    eps: float,
    box: Box | None = None,
) -> float:
    """Max abs of the discretized stationary operator applied to the density.

    The operator -div(b rho) + (eps^2/2) sum_kl d_k d_l (D_kl rho) is
    evaluated with central differences on the grid interior; for the exact
    stationary density the result decays as O(h^2).
    """
    if isinstance(density, GridDensity):
        if box is not None and not box.same_grid(density.box):
            raise GridMismatchError("explicit box does not match the grid density")
        box = density.box
        rho = density.values
    elif isinstance(density, GaussianDensity):
        if box is None:
            raise DomainError("a box is required to evaluate a Gaussian density on a grid")
        rho = density.pdf(box.center_points()).reshape(tuple(box.n))
    else:
        raise DomainError(f"unsupported density type {type(density).__name__}")

    d = box.dim
    if d != sys.d:
        raise DimensionError(f"box dimension {d} does not match state dimension {sys.d}")
    if d > 2:
        raise DimensionError("fp_residual supports d <= 2")
    eps = float(eps)
    A_j = closed_loop_matrix(sys, gains, mode)
    h = box.cell_widths
    axes = [box.centers(k) for k in range(d)]
    meshes = list(np.meshgrid(*axes, indexing="ij"))
    D = _diffusion_fields(sys, meshes)

    if d == 1:
        x = meshes[0]
        f = (A_j[0, 0] * x) * rho
        g = D[(0, 0)] * rho
        adv = (f[2:] - f[:-2]) / (2 * h[0])
        diff = (g[2:] - 2 * g[1:-1] + g[:-2]) / h[0] ** 2
        res = -adv + 0.5 * eps**2 * diff
        return float(np.abs(res).max())

    X, Y = meshes
    b1 = A_j[0, 0] * X + A_j[0, 1] * Y
    b2 = A_j[1, 0] * X + A_j[1, 1] * Y
    f1 = b1 * rho
    f2 = b2 * rho
    g11 = D[(0, 0)] * rho
    g22 = D[(1, 1)] * rho
    g12 = D[(0, 1)] * rho
    inner = (slice(1, -1), slice(1, -1))
    adv = (f1[2:, 1:-1] - f1[:-2, 1:-1]) / (2 * h[0]) + (
        f2[1:-1, 2:] - f2[1:-1, :-2]
    ) / (2 * h[1])
    dxx = (g11[2:, 1:-1] - 2 * g11[inner] + g11[:-2, 1:-1]) / h[0] ** 2
    dyy = (g22[1:-1, 2:] - 2 * g22[inner] + g22[1:-1, :-2]) / h[1] ** 2
    dxy = (g12[2:, 2:] - g12[2:, :-2] - g12[:-2, 2:] + g12[:-2, :-2]) / (4 * h[0] * h[1])
    res = -adv + 0.5 * eps**2 * (dxx + dyy + 2 * dxy)
    return float(np.abs(res).max())


def default_stationary_box(
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    eps: float,
    k: float = 6.0,
    n_cells: int | None = None,
) -> Box:
    """Box of +- k times the largest stationary standard deviation per axis.

    For affine diagonal sigma the spread is estimated from a one-step
    fixed point of the Lyapunov equation with sigma frozen at the current
    spread estimate.
    """
    A_j = closed_loop_matrix(sys, gains, mode)
    if spectral_abscissa(A_j) >= 0.0:
        raise NotHurwitzError(f"mode {mode} is not Hurwitz; no stationary box exists")
    eps = float(eps)
    if isinstance(sys.sigma, ConstantDiffusion):
        P = solve_lyapunov(A_j, eps**2 * sys.sigma.diffusion_matrix())
    else:
        base, slope = sys.sigma.base, sys.sigma.slope
        P = solve_lyapunov(A_j, eps**2 * np.diag(base**2))
        std = np.sqrt(np.diag(P))
        P = solve_lyapunov(A_j, eps**2 * np.diag((base + slope * std) ** 2))
    std = np.sqrt(np.diag(P))
    width = np.maximum(k * std.max(), k * std)
    if n_cells is None:
        n_cells = 801 if sys.d == 1 else 101
    return Box(-width, width, np.full(sys.d, int(n_cells)))


def _assemble_fv_operator(
    sys: MultiChannelSystem, A_j: np.ndarray, eps: float, box: Box
) -> scipy.sparse.csc_matrix:
    """Finite-volume stationary operator with zero-flux boundaries.

    Rows are cell balance equations (sum of signed interface fluxes per
    cell volume); columns sum to zero, so total mass is conserved and the
    stationary density spans the null space.
    """
    d = box.dim
    h = box.cell_widths
    half_eps2 = 0.5 * eps**2
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=int).ravel())
        cols.append(np.asarray(c, dtype=int).ravel())
        vals.append(np.asarray(v, dtype=float).ravel())

    if d == 1:
        n = int(box.n[0])
        centers = box.centers(0)
        if isinstance(sys.sigma, ConstantDiffusion):
            Dc = np.full(n, sys.sigma.diffusion_matrix()[0, 0])
        else:
            Dc = (sys.sigma.base[0] + sys.sigma.slope[0] * np.abs(centers)) ** 2
        iface = np.arange(1, n)  # interface i sits between cells i-1 and i
        xf = box.lo[0] + iface * h[0]
        bf = A_j[0, 0] * xf
        left = iface - 1
        right = iface
        coeff_left = 0.5 * bf + half_eps2 * Dc[left] / h[0]
        coeff_right = 0.5 * bf - half_eps2 * Dc[right] / h[0]
        for cells, coeff in ((left, coeff_left), (right, coeff_right)):
            add(left, cells, coeff / h[0])
            add(right, cells, -coeff / h[0])
        shape = (n, n)
    elif d == 2:
        nx, ny = (int(v) for v in box.n)
        xc, yc = box.centers(0), box.centers(1)
        X, Y = np.meshgrid(xc, yc, indexing="ij")
        D = _diffusion_fields(sys, [X, Y])
        flat = lambda ix, iy: ix * ny + iy

        def cross_derivative(g, axis, ix, iy, hh):
            """Central/one-sided d(g)/d(axis) at cells (ix, iy): list of
            (flat index, weight) pairs multiplying rho."""
            n_axis = g.shape[axis]
            pos = iy if axis == 1 else ix
            up = np.minimum(pos + 1, n_axis - 1)
            dn = np.maximum(pos - 1, 0)
            gap = np.maximum(up - dn, 1)
            w = np.where(up > dn, 1.0 / (gap * hh), 0.0)
            if axis == 1:
                return [
                    (flat(ix, up), g[ix, up] * w),
                    (flat(ix, dn), -g[ix, dn] * w),
                ]
            return [
                (flat(up, iy), g[up, iy] * w),
                (flat(dn, iy), -g[dn, iy] * w),
            ]

        has_cross = bool(np.abs(D[(0, 1)]).max() > 0.0)

        # x-direction interfaces
        ix, iy = np.meshgrid(np.arange(1, nx), np.arange(ny), indexing="ij")
        ix, iy = ix.ravel(), iy.ravel()
        L, R = flat(ix - 1, iy), flat(ix, iy)
        xf = box.lo[0] + ix * h[0]
        bf = A_j[0, 0] * xf + A_j[0, 1] * yc[iy]
        pieces = [
            (L, 0.5 * bf + half_eps2 * D[(0, 0)][ix - 1, iy] / h[0]),
            (R, 0.5 * bf - half_eps2 * D[(0, 0)][ix, iy] / h[0]),
        ]
        if has_cross:
            for cell_ix in (ix - 1, ix):
                for c, w in cross_derivative(D[(0, 1)], 1, cell_ix, iy, h[1]):
                    pieces.append((c, -half_eps2 * 0.5 * w))
        for cells, coeff in pieces:
            add(L, cells, coeff / h[0])
            add(R, cells, -coeff / h[0])

        # y-direction interfaces
        ix, iy = np.meshgrid(np.arange(nx), np.arange(1, ny), indexing="ij")
        ix, iy = ix.ravel(), iy.ravel()
        Lo, Up = flat(ix, iy - 1), flat(ix, iy)
        yf = box.lo[1] + iy * h[1]
        bf = A_j[1, 0] * xc[ix] + A_j[1, 1] * yf
        pieces = [
            (Lo, 0.5 * bf + half_eps2 * D[(1, 1)][ix, iy - 1] / h[1]),
            (Up, 0.5 * bf - half_eps2 * D[(1, 1)][ix, iy] / h[1]),
        ]
        if has_cross:
            for cell_iy in (iy - 1, iy):
                for c, w in cross_derivative(D[(0, 1)], 0, ix, cell_iy, h[0]):
                    pieces.append((c, -half_eps2 * 0.5 * w))
        for cells, coeff in pieces:
            add(Lo, cells, coeff / h[1])
            add(Up, cells, -coeff / h[1])
        shape = (nx * ny, nx * ny)
    else:
        raise DimensionError("grid solver supports d in {1, 2}")

    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    ).tocsc()


def _pinned_null_vector(L: scipy.sparse.csc_matrix, pin: int) -> np.ndarray:
    """Null vector of a zero-flux operator ``L``, scaled so ``v[pin] = 1``.

    The columns of ``L`` sum to zero, so any one balance row is implied by
    the others: row ``pin`` is replaced by ``v[pin] = 1`` and the result is
    factored once (minimum-degree ordering on the pattern of A + A^T) and
    solved once. An exactly singular factor, or a pivot ratio
    ``min|U_ii| / max|U_ii|`` below round-off, means the null space is not
    one-dimensional (NonUniqueError); a relative residual
    ``||L v|| / (scale ||v||)`` above 1e-9 raises NumericalError.
    """
    n = L.shape[0]
    scale = float(np.abs(L.data).max()) if L.nnz else 1.0
    pinned = L.copy()
    pinned.data[pinned.indices == pin] = 0.0  # CSC: indices are row numbers
    # the sum drops the zeroed entries, so they add no structural fill
    pinned = pinned + scipy.sparse.csc_matrix(([1.0], ([pin], [pin])), shape=(n, n))
    try:
        lu = scipy.sparse.linalg.splu(pinned, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise NumericalError(f"sparse factorization failed: {exc}") from exc
        ratio = 0.0
    else:
        pivots = np.abs(lu.U.diagonal())
        ratio = float(pivots.min() / pivots.max())
    if ratio < 1e-12:
        raise NonUniqueError(
            "discrete stationary operator has a multi-dimensional null space "
            f"(LU pivot ratio {ratio:.3e})"
        )
    rhs = np.zeros(n)
    rhs[pin] = 1.0
    v = lu.solve(rhs)
    res = float(np.linalg.norm(L @ v)) / (scale * float(np.linalg.norm(v)))
    if not res <= 1e-9:  # also catches NaN from a broken-down solve
        raise NumericalError(f"pinned solve left relative residual {res!r}")
    return v


def solve_stationary_fp_grid(
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    eps: float,
    box: Box | None = None,
    n_cells: int | None = None,
) -> GridDensity:
    """Stationary density on a box: null vector of the zero-flux operator.

    One pinned direct solve (``_pinned_null_vector``) fixes the cell nearest
    the origin, where the zero-mean stationary law peaks. It raises
    NonUniqueError when the operator does not determine the density
    uniquely, and NumericalError when the factorization fails or the
    relative residual exceeds 1e-9. Entries below -1e-10 of the peak raise
    NumericalError; smaller negative round-off is clamped to zero before
    normalization.
    """
    if sys.d not in (1, 2):
        raise DimensionError("grid solver supports d in {1, 2}")
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be a positive real, got {eps!r}")
    A_j = closed_loop_matrix(sys, gains, mode)
    alpha = spectral_abscissa(A_j)
    if alpha >= 0.0:
        raise NotHurwitzError(f"mode {mode} is not Hurwitz (abscissa {alpha!r})")
    if box is None:
        box = default_stationary_box(sys, gains, mode, eps, n_cells=n_cells)
    if box.dim != sys.d:
        raise DimensionError(f"box dimension {box.dim} does not match state dimension {sys.d}")

    L = _assemble_fv_operator(sys, A_j, eps, box)
    origin = np.clip(np.floor(-box.lo / box.cell_widths), 0, box.n - 1).astype(int)
    v = _pinned_null_vector(L, int(np.ravel_multi_index(tuple(origin), tuple(box.n))))

    values = v.reshape(tuple(box.n))
    total = values.sum() * box.cell_volume
    values = values / total
    # threshold scales with the density peak (peaks grow like eps^-d)
    if float(values.min()) < -1e-10 * float(values.max()):
        raise NumericalError(
            f"stationary solution has negative entries down to {values.min()!r}"
        )
    values = np.clip(values, 0.0, None)
    return GridDensity.from_unnormalized(box, values)
