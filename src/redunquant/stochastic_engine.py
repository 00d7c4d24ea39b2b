"""Stationary densities of the stochastically perturbed closed loops.

Three routes produce the stationary law of
``dx = A_j x dt + eps * sigma(x) dW``:

* ``stationary_gaussian`` — exact, for constant sigma (a Lyapunov solve);
* ``simulate_sde`` + ``empirical_density`` — Euler-Maruyama Monte
  Carlo. For constant sigma the Euler endpoint is an exact Gaussian,
  drawn directly from one RNG stream (``euler_endpoints``); diag_affine
  paths are stepped through the recursion with per-path keyed streams;
* ``solve_stationary_fp_grid`` — a finite-volume discretization of the
  stationary second-order transport operator with zero-flux boundaries,
  for d in {1, 2}, whose null vector comes from one sparse LU solve with
  a single balance row replaced by a pin. One loop over axes assembles
  it with exponentially fitted (Scharfetter-Gummel) face fluxes: for
  diagonal sigma sigma^T the operator is an M-matrix and its null vector
  is positive; the central cross terms of a full S S^T are not monotone.

``fp_residual`` applies the central-difference stationary operator to any
density so the three routes can be cross-checked.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

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
# CPUs this process may run on; os.cpu_count() counts the host's
_FILL_WORKERS = min(
    4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


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
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    horizon: float | None = None,
    dt: float | None = None,
) -> tuple[float, float]:
    """(horizon, dt) of one mode, defaults filled in where a value is None:
    ~20 closed-loop time constants, and a step of 1e-3 / max(1, ||A_j||).

    Only a missing horizon needs a Hurwitz mode (NotHurwitzError
    otherwise); the default step is defined for every A_j.
    """
    A_j = closed_loop_matrix(sys, gains, mode)
    if horizon is None:
        alpha = spectral_abscissa(A_j)
        if alpha >= 0.0:
            raise NotHurwitzError(
                f"mode {mode} is not Hurwitz (abscissa {alpha!r}); no stationary horizon exists"
            )
        horizon = 20.0 / abs(alpha)
    if dt is None:
        dt = 1e-3 * (1.0 / max(1.0, float(np.linalg.norm(A_j, 2))))
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

    For constant sigma the endpoint is an exact Gaussian, so this returns
    ``euler_endpoints``: one RNG stream seeded by ``seed``, row i for path
    i. For diag_affine sigma every path is stepped. Path i draws its noise
    from its own stream keyed by (seed, i), so the result does not depend
    on batching, execution order or thread count. Paths run in blocks with
    one noise buffer each, of at most ``_MAX_NOISE_ELEMENTS`` doubles: a
    chunk of ``_CHUNK_STEPS // m`` steps, i.e. ``_CHUNK_STEPS`` normals per
    path. The fill pool draws the chunk of every stream into it, then the
    calling thread steps it; the two are not overlapped, because the
    step's small ufuncs and the fill threads contend for the GIL. Each
    step ``x <- M x + (amp base + amp slope |x|) xi`` (``M = I + dt A_j``,
    ``amp = eps sqrt(dt)``) runs in place on preallocated (d, nb) buffers.
    Any state with |x| > 1e12 (or a non-finite value) at the end of a
    chunk aborts with DivergenceError carrying the offending path index.
    """
    if isinstance(sys.sigma, ConstantDiffusion):
        return euler_endpoints(sys, gains, mode, eps, horizon, dt, n_paths, seed, x0)
    eps, dt, n_steps, seed, A_j, x0 = _euler_setup(
        sys, gains, mode, eps, horizon, dt, n_paths, seed, x0
    )
    d = sys.d
    m = sys.sigma.m
    amp = eps * np.sqrt(dt)
    step_map = np.eye(d) + dt * A_j
    amp_base = amp * sys.sigma.base[:, None]
    amp_slope = amp * sys.sigma.slope[:, None]

    def advance(x, noise):
        # the state is stepped as (d, nb) so every broadcast runs along
        # the paths, not along a length-d inner axis
        x = np.ascontiguousarray(x.T)
        y = np.empty_like(x)
        kick = np.empty_like(x)
        for k in range(noise.shape[1]):
            np.abs(x, out=kick)
            kick *= amp_slope
            kick += amp_base
            kick *= noise[:, k].T
            np.matmul(step_map, x, out=y)
            y += kick
            x, y = y, x
        return x.T

    # One noise buffer per path block: the pool fills it, then this thread
    # steps it. Filling the next chunk while stepping this one would take a
    # second buffer and saves little time: each small ufunc of the
    # diag_affine step releases the GIL, a fill thread takes it between
    # paths, and a d=2 chunk that steps in ~45 ms alone takes 50-136 ms
    # beside one or two fill threads. Every chunk holds _CHUNK_STEPS
    # normals per path, whatever m.
    span = min(_CHUNK_STEPS // m, n_steps)
    block_paths = max(1, _MAX_NOISE_ELEMENTS // (span * m))
    samples = np.empty((n_paths, d))
    with ThreadPoolExecutor(_FILL_WORKERS) as pool:
        for start in range(0, n_paths, block_paths):
            stop = min(start + block_paths, n_paths)
            gens = [_path_generator(seed, i) for i in range(start, stop)]
            edges = np.linspace(0, len(gens), _FILL_WORKERS + 1, dtype=int)
            buf = np.empty((len(gens), span, m))
            x = np.tile(x0, (len(gens), 1))
            for first in range(0, n_steps, span):
                noise = buf[:, : min(span, n_steps - first)]

                def fill(lo, hi):
                    for i in range(lo, hi):
                        gens[i].standard_normal(out=noise[i])

                list(pool.map(fill, edges[:-1], edges[1:]))
                x = advance(x, noise)
                bad = _diverged(x)
                if np.any(bad):
                    idx = start + int(np.argmax(bad))
                    raise DivergenceError(
                        f"trajectory {idx} diverged by step {first + noise.shape[1]} "
                        "(non-Hurwitz mode or dt too large?)",
                        path_index=idx,
                    )
            samples[start:stop] = x
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
    (``euler_endpoint_law``), so this samples the law of the stepped
    recursion with d normals per path instead of n*m; ``simulate_sde``
    returns it for constant sigma. The normals come from one SFC64 stream
    seeded by ``seed`` as one (n_paths, d) block, row i for path i, so the
    first k paths do not depend on ``n_paths``; the endpoints are those
    rows times a Cholesky factor of C_n (positive definite for eps > 0,
    since C_n >= E E^T and S S^T is elliptic). eps = 0 returns ``M^n x0``
    exactly. Arguments and validation are those of ``simulate_sde``. Its
    divergence contract is checked at the endpoint only: a non-finite
    endpoint, or one with |x| > 1e12, raises DivergenceError carrying the
    first such path index.
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


def sample_box(sample_sets, n_cells: int) -> Box:
    """Smallest box covering every sample in the given sets, padded by 2.5 % of the span."""
    mats = [s.samples for s in sample_sets]
    lo = np.min([m.min(axis=0) for m in mats], axis=0)
    hi = np.max([m.max(axis=0) for m in mats], axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.025 * span + 1e-12
    d = mats[0].shape[1]
    return Box(lo - pad, hi + pad, np.full(d, int(n_cells)))


def _histogram(samples: SampleSet, box: Box) -> tuple[np.ndarray, float]:
    """Sample counts per cell of the box, and the fraction of samples that
    fell outside it. Leakage above 10% raises OutOfBoxError."""
    if box.dim != samples.d:
        raise DimensionError(f"box dimension {box.dim} does not match samples ({samples.d})")
    edges = [box.nodes(k) for k in range(box.dim)]
    counts, _ = np.histogramdd(samples.samples, bins=edges)
    leakage = 1.0 - float(counts.sum()) / samples.n
    if leakage > 0.10:
        raise OutOfBoxError(
            f"{leakage:.1%} of samples fell outside the box; enlarge it",
            leakage=leakage,
        )
    return counts, leakage


def empirical_density(samples: SampleSet, box: Box) -> tuple[GridDensity, float]:
    """Normalized histogram of the samples at the box's cell centers.

    Returns the density together with the leakage fraction (samples that
    fell outside the box). Leakage above 10% raises OutOfBoxError.
    """
    counts, leakage = _histogram(samples, box)
    values = counts / (float(counts.sum()) * box.cell_volume)
    return GridDensity(box, values), leakage


def smoothed_empirical_density(samples: SampleSet, box: Box, alpha: float) -> GridDensity:
    """Histogram with ``alpha`` pseudo-counts added to every cell.

    Use as the *reference* density in a histogram KL: raw histograms have
    empty tail cells wherever the other sample set still carries mass,
    which turns the estimate into the +inf sentinel at any finite sample
    size. The pseudo-count stands in for the reference law's true tiny
    tail mass (bias O(alpha * n_cells / n)). Leakage above 10% raises
    OutOfBoxError.
    """
    counts, _ = _histogram(samples, box)
    return GridDensity.from_unnormalized(box, counts + float(alpha))


# ---------------------------------------------------------------------------
# stationary operator: diffusion tensors, residual, finite-volume solver
# ---------------------------------------------------------------------------


def _diffusion_tensor(sys: MultiChannelSystem, points: np.ndarray):
    """sigma sigma^T at points of shape (..., d): its diagonal, shape (..., d),
    and its off-diagonal part, which is constant (zero for diag_affine)."""
    if isinstance(sys.sigma, ConstantDiffusion):
        D = sys.sigma.diffusion_matrix()
        return np.broadcast_to(np.diag(D), points.shape), D - np.diag(np.diag(D))
    return sys.sigma.diag_at(points) ** 2, np.zeros((sys.d, sys.d))


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
    if np.any(box.n < 3):
        raise DomainError("fp_residual needs at least 3 cells per axis")
    half_eps2 = 0.5 * float(eps) ** 2
    A_j = closed_loop_matrix(sys, gains, mode)
    h = box.cell_widths
    x = box.center_points().reshape(*rho.shape, d)
    diag, cross = _diffusion_tensor(sys, x)

    def at(g, *steps):
        """g on the interior cells shifted by unit (axis, +-1) steps."""
        off = np.zeros(d, dtype=int)
        for axis, step in steps:
            off[axis] += step
        return g[tuple(slice(1 + o, n - 1 + o) for o, n in zip(off, g.shape))]

    res = 0.0
    for k in range(d):
        f = (x @ A_j[k]) * rho
        g = diag[..., k] * rho
        res = res - (at(f, (k, 1)) - at(f, (k, -1))) / (2 * h[k])
        res = res + half_eps2 * (at(g, (k, 1)) - 2 * at(g) + at(g, (k, -1))) / h[k] ** 2
        for l in range(k + 1, d):  # d_k d_l and d_l d_k of D_kl rho
            g = cross[k, l] * rho
            dkl = at(g, (k, 1), (l, 1)) - at(g, (k, 1), (l, -1))
            dkl = dkl - at(g, (k, -1), (l, 1)) + at(g, (k, -1), (l, -1))
            res = res + half_eps2 * dkl / (2 * h[k] * h[l])
    return float(np.abs(res).max())


def default_stationary_box(
    sys: MultiChannelSystem,
    gains: GainSet,
    mode: int,
    eps: float,
    n_cells: int | None = None,
) -> Box:
    """Box of +- 6 times the largest stationary standard deviation per axis.

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
    width = np.full(sys.d, 6.0 * std.max())
    if n_cells is None:
        n_cells = 801 if sys.d == 1 else 101
    return Box(-width, width, np.full(sys.d, int(n_cells)))


def _bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), with B(0) = 1 (it underflows to 0 for large z)."""
    safe = np.where(z == 0.0, 1.0, z)
    with np.errstate(over="ignore"):
        return np.where(z == 0.0, 1.0, safe / np.expm1(safe))


def _assemble_fv_operator(
    sys: MultiChannelSystem, A_j: np.ndarray, eps: float, box: Box
) -> scipy.sparse.csc_matrix:
    """Finite-volume stationary operator with zero-flux boundaries.

    Rows are cell balance equations (sum of signed interface fluxes per
    cell volume); columns sum to zero, so total mass is conserved and the
    stationary density spans the null space.

    Each face normal to axis k carries the exponentially fitted flux of
    Scharfetter & Gummel (1969)
    ``F = (eps^2/2h) [D_L B(-Pe) rho_L - D_R B(Pe) rho_R]`` with
    ``B(z) = z / (e^z - 1)``, the drift b_k at the face centre and
    ``Pe = b_k h / (eps^2/2 D_f)``; for diag_affine noise this is the same
    flux on ``u = D rho``, with D the diagonal of sigma sigma^T at cells
    and face. It is exact for the 1-D OU law and upwinds at large Pe, so
    for diagonal diffusion the operator is an M-matrix (positive diagonal,
    nonpositive off-diagonal entries) whose null vector is positive. The
    off-diagonal part of a full constant S S^T adds central cross terms,
    which are not monotone.
    """
    import scipy.sparse  # only the grid route needs it

    d = box.dim
    if d > 2:
        raise DimensionError("grid solver supports d in {1, 2}")
    shape = tuple(int(v) for v in box.n)
    h = box.cell_widths
    half_eps2 = 0.5 * eps**2
    flat = np.arange(int(np.prod(shape))).reshape(shape)
    x = box.center_points().reshape(*shape, d)
    diag, cross = _diffusion_tensor(sys, x)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    for k in range(d):
        lower = tuple(slice(None, -1) if l == k else slice(None) for l in range(d))
        upper = tuple(slice(1, None) if l == k else slice(None) for l in range(d))
        face = x[lower].copy()
        face[..., k] += 0.5 * h[k]
        pe = (face @ A_j[k]) * h[k] / (half_eps2 * _diffusion_tensor(sys, face)[0][..., k])
        pieces = [
            (flat[lower], half_eps2 / h[k] * diag[lower][..., k] * _bernoulli(-pe)),
            (flat[upper], -half_eps2 / h[k] * diag[upper][..., k] * _bernoulli(pe)),
        ]
        for l in range(d):
            if cross[k, l] == 0.0:  # always so for l == k
                continue
            # -(eps^2/2) d_l(D_kl rho), central (one-sided at the walls) at
            # both cells of the face and averaged
            p_up = np.minimum(np.arange(shape[l]) + 1, shape[l] - 1)
            p_dn = np.maximum(np.arange(shape[l]) - 1, 0)
            w = np.where(p_up > p_dn, 1.0 / (np.maximum(p_up - p_dn, 1) * h[l]), 0.0)
            w = 0.5 * half_eps2 * cross[k, l] * w.reshape([-1 if a == l else 1 for a in range(d)])
            w = np.broadcast_to(w, shape)
            for side in (lower, upper):
                pieces.append((np.take(flat, p_up, axis=l)[side], -w[side]))
                pieces.append((np.take(flat, p_dn, axis=l)[side], w[side]))
        for cells, coeff in pieces:
            for balance, sign in ((flat[lower], 1.0), (flat[upper], -1.0)):
                rows.append(balance.ravel())
                cols.append(cells.ravel())
                vals.append((sign / h[k] * coeff).ravel())

    n = flat.size
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
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
    import scipy.sparse.linalg  # loads scipy.sparse too

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

    With diagonal diffusion (diagonal S, or diag_affine) the fitted fluxes
    of ``_assemble_fv_operator`` make the operator an M-matrix, so the
    density is positive up to round-off at any cell Peclet number: all 40
    plants of an eccentric, rotated d=2 family (A = R diag(-1, -k) R^T,
    k in [5, 40], eps = 0.1) solve at 101^2, median L1 error 1.0e-3 to the
    exact law. A full S S^T adds central cross-diffusion terms, which can
    still drive entries negative: 23 of the same 40 plants with a full S
    raise NumericalError at 101^2 and 10 at 201^2.
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
