"""Stationary densities of the stochastically perturbed closed loops.

Three routes produce the stationary law of
``dx = A_j x dt + eps * sigma(x) dW``:

* ``stationary_gaussian`` — exact, for constant sigma (a Lyapunov solve);
* ``simulate_sde`` + ``empirical_density`` — Euler Monte Carlo. For
  constant sigma the Euler-Maruyama endpoint is an exact Gaussian, drawn
  directly from one RNG stream; diag_affine paths are stepped through
  the weak Euler recursion with +-1 increments, one random bit per path
  and step, each block of 64 paths on one keyed stream;
* ``solve_stationary_fp_grid`` — a finite-volume discretization of the
  stationary second-order transport operator with zero-flux boundaries,
  for d in {1, 2}, whose null vector comes from one sparse LU solve with
  a single balance row replaced by a pin. Its exponentially fitted
  (Scharfetter-Gummel) face fluxes are added in place to dense bands of
  the matrix, one per stencil offset, converted to CSC once: for
  diagonal sigma sigma^T the operator is an M-matrix and its null vector
  is positive; the central cross terms of a full S S^T are not monotone.
  On a box symmetric about the origin the solve is folded by x -> -x,
  under which the law is even (odd drift, even diffusion), so the LU
  factors one cell of each mirror pair, about half the unknowns.

``fp_residual`` applies the central-difference stationary operator to any
density so the three routes can be cross-checked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .densities import Box, GaussianDensity, GridDensity, _frozen_array
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
_CHUNK_STEPS = 512
_MAX_NOISE_ELEMENTS = 2**21
_STREAM_PATHS = 64
# fill threads started by simulate_sde (none); the benchmark's provenance reads it
_FILL_WORKERS = 0


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Endpoints of independent sample paths recorded at t = t_final."""

    samples: np.ndarray
    seed: int
    t_final: float
    dt: float
    mode: int

    def __post_init__(self):
        samples = _frozen_array(self.samples, ndim=2, name="samples")
        if samples.shape[0] < 1:
            raise DimensionError(f"samples must be a nonempty n x d matrix, got {samples.shape}")
        if not (self.dt > 0.0 and self.t_final >= self.dt):
            raise DomainError("need dt > 0 and t_final >= dt")
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


def _whole(value, name: str, lo: int) -> int:
    """``value`` as an int of at least ``lo``; a bool, a non-integer (numpy
    integers pass) or a smaller value raises DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise DomainError(f"{name} must be " + ("nonnegative" if lo == 0 else f"at least {lo}"))
    return int(value)


def derived_seed(seed: int, *key: int) -> int:
    """Stable 64-bit sub-seed for (seed, key) -- used for per-mode and
    per-row streams so larger runs stay schedule-independent. The seed must
    be a nonnegative integer (DomainError otherwise)."""
    seed = _whole(seed, "seed", 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _block_stream(seed: int, block: int) -> np.random.Generator:
    # the noise of paths [64 block, 64 block + 64), keyed by (seed, block);
    # SeedSequence spawn keys are the stock numpy derivation for parallel streams
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
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
    """Weak Euler endpoints of n_paths trajectories of the perturbed loop.

    The recursion ``x_{k+1} = M x_k + eps sqrt(dt) sigma(x_k) xi_k`` with
    ``M = I + dt A_j`` runs ``n = round(horizon/dt)`` steps from x0 (zero
    by default); a horizon/dt that is not a finite number raises
    DomainError. Two samplers draw its endpoint:

    * constant sigma = S: xi_k are standard normals (Euler-Maruyama), so
      the endpoint is exactly ``N(M^n x0, C_n)``,
      ``C_n = sum_{j<n} M^j E E^T M^j^T`` with ``E = eps sqrt(dt) S``
      (``euler_endpoint_law``), and it is drawn directly with d normals per
      path instead of n*m. The normals come from one SFC64 stream seeded
      by ``seed`` as one (n_paths, d) block, row i for path i, so the
      first k paths do not depend on ``n_paths``; the endpoints are those
      rows times a Cholesky factor of C_n (positive definite for eps > 0,
      since C_n >= E E^T and S S^T is elliptic). eps = 0 returns
      ``M^n x0`` exactly.
    * diag_affine sigma: every path is stepped, with two-point increments
      xi = +-1, each sign with probability 1/2 (the simplified weak Euler
      scheme). Only the stationary law is used downstream, not the paths,
      and xi has the first three moments of a standard normal
      (E xi = E xi^3 = 0, E xi^2 = 1), so the scheme keeps Euler-Maruyama's
      weak order 1 (Kloeden & Platen 1992, Thm 14.5.2): the mean
      recursion is the same, and the laws differ at O(dt), the order of
      Euler's own bias. A sign costs one random bit instead of a normal.
      Each block of ``_STREAM_PATHS`` = 64 paths shares one SFC64 stream
      keyed by (seed, i // 64), drawn in step order: one uint64 word per
      step and noise channel, whose bit i mod 64 (counted from the least
      significant) is path i's: xi = 1 - 2 bit. A partial last block is
      padded to 64 lanes, stepped but neither checked nor returned. So
      path i's increments, and its endpoint bit for bit, depend neither
      on ``n_paths`` nor on chunking or path blocks; every product with M
      is at least 64 columns wide, so BLAS never switches to its
      matrix-vector kernel, which rounds differently. Streams run in
      blocks with one int8 sign buffer each, (streams, steps, m, 64), of
      at most ``_MAX_NOISE_ELEMENTS`` = 2**21 signs (2 MiB) for
      m <= 32768: a chunk of ``_CHUNK_STEPS // m`` steps (at least one).
      Each stream's words for the chunk come from one call, in stream
      order; one ``unpackbits`` of them all is the sign buffer, which the
      calling thread then steps; no other thread is started. Each step
      ``x <- M x + (amp base + amp slope |x|) xi`` (``amp = eps
      sqrt(dt)``) runs in place on preallocated (d, paths) buffers and
      reads its signs as one run of m*64 contiguous values per stream.

    ``n_paths`` >= 1 and ``seed`` >= 0 are integers, numpy integers
    included but not bools (DomainError otherwise).

    Divergence: a state with |x| > 1e12, or a non-finite one, raises
    DivergenceError carrying the first offending path index. The direct
    draw checks the endpoint; the stepped sampler checks at the end of
    every chunk.
    """
    eps = float(eps)
    dt = float(dt)
    horizon = float(horizon)
    if not (np.isfinite(eps) and eps >= 0.0):
        raise DomainError(f"eps must be a nonnegative real, got {eps!r}")
    if not (dt > 0.0 and np.isfinite(dt)):
        raise DomainError(f"dt must be positive, got {dt!r}")
    if horizon < dt:
        raise DomainError("horizon must be at least one step")
    n_paths = _whole(n_paths, "n_paths", 1)
    seed = _whole(seed, "seed", 0)
    if not np.isfinite(horizon / dt):
        raise DomainError(f"horizon / dt = {horizon!r} / {dt!r} is not a finite step count")
    A_j = closed_loop_matrix(sys, gains, mode)
    n_steps = max(1, int(round(horizon / dt)))
    if x0 is None:
        x0 = np.zeros(sys.d)
    else:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.size != sys.d:
            raise DimensionError(f"x0 has dimension {x0.size}, expected {sys.d}")
    d = sys.d
    amp = eps * np.sqrt(dt)
    step_map = np.eye(d) + dt * A_j

    if isinstance(sys.sigma, ConstantDiffusion):
        noise_gain = amp * sys.sigma.matrix
        with np.errstate(over="ignore", invalid="ignore"):
            power, cov = euler_endpoint_law(step_map, noise_gain @ noise_gain.T, n_steps)
            samples = np.tile(power @ x0, (n_paths, 1))
            if eps > 0.0:
                try:
                    chol = np.linalg.cholesky(cov)  # non-finite in, non-finite out
                except np.linalg.LinAlgError as exc:
                    raise NumericalError(
                        f"endpoint covariance is not positive definite in floating point: {exc}"
                    ) from exc
                rng = np.random.Generator(np.random.SFC64(seed))
                samples += rng.standard_normal((n_paths, d)) @ chol.T
        bad = _diverged(samples)
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise DivergenceError(
                f"endpoint {idx} diverged after {n_steps} steps "
                "(non-Hurwitz mode or dt too large?)",
                path_index=idx,
            )
        return SampleSet(samples, seed=seed, t_final=n_steps * dt, dt=dt, mode=mode)

    # Each chunk's words, one integers call per stream, are unpacked by one
    # call into the sign buffer, which this thread then steps. A pool of
    # fill threads, each unpacking its own streams, was slower: the calling
    # thread waited ~0.06 s of a ~0.2 s 1000-path x 10 000-step d=2 run on
    # its locks. That run takes 0.09-0.10 s without it, against 0.14-0.16 s
    # (in-process medians, one BLAS thread, 2-vCPU x86-64 VM).
    m = sys.sigma.m
    span = min(max(1, _CHUNK_STEPS // m), n_steps)
    block_streams = max(1, _MAX_NOISE_ELEMENTS // (span * m * _STREAM_PATHS))
    n_streams = -(-n_paths // _STREAM_PATHS)
    samples = np.empty((n_paths, d))
    for first_stream in range(0, n_streams, block_streams):
        streams = [
            _block_stream(seed, b)
            for b in range(first_stream, min(first_stream + block_streams, n_streams))
        ]
        start = first_stream * _STREAM_PATHS
        real = min(n_paths - start, len(streams) * _STREAM_PATHS)  # then padding
        # the state is stepped as (d, paths), so every operand runs along
        # the paths, not along a length-d inner axis; the amplitudes are
        # spread to (d, paths) too, since an in-place ufunc that
        # broadcasts a (d, 1) operand takes about twice as long as one on
        # equal shapes
        x = np.tile(x0[:, None], (1, len(streams) * _STREAM_PATHS))
        y, kick = np.empty_like(x), np.empty_like(x)
        kick_lanes = kick.reshape(d, len(streams), _STREAM_PATHS)
        slope = np.repeat(amp * sys.sigma.slope[:, None], x.shape[1], axis=1)
        base = np.repeat(amp * sys.sigma.base[:, None], x.shape[1], axis=1)
        for first in range(0, n_steps, span):
            steps = min(span, n_steps - first)
            words = np.stack(
                [s.integers(0, 2**64, (steps, m, 1), dtype=np.uint64) for s in streams],
                dtype="<u8",
            )
            # (streams, steps, m, 64): bit i of each word is lane i
            signs = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little").view(np.int8)
            signs *= -2
            signs += 1
            for xi in signs.transpose(1, 2, 0, 3):  # (m, streams, 64)
                np.abs(x, out=kick)
                kick *= slope
                kick += base
                kick_lanes *= xi
                np.matmul(step_map, x, out=y)
                y += kick
                x, y = y, x
            del words, signs, xi  # one chunk's noise alive at a time
            paths = x[:, :real].T
            bad = _diverged(paths)
            if np.any(bad):
                idx = start + int(np.argmax(bad))
                raise DivergenceError(
                    f"trajectory {idx} diverged by step {first + steps} "
                    "(non-Hurwitz mode or dt too large?)",
                    path_index=idx,
                )
        samples[start : start + real] = paths
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
    spread estimate. A non-Hurwitz mode raises NotHurwitzError from the
    first Lyapunov solve.
    """
    A_j = closed_loop_matrix(sys, gains, mode)
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


def _check_cell_counts(box: Box | None, n_cells: int | None, box_name: str, cells_name: str):
    """DomainError when a box and a cell count are both given and disagree."""
    if box is not None and n_cells is not None and np.any(box.n != n_cells):
        raise DomainError(
            f"{box_name} has {box.n.tolist()} cells per axis but {cells_name} = {n_cells}"
        )


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

    The matrix is built band by band: a flux term that couples cell f to
    cell f + s, for a grid step s, adds to the dense band of flat offset
    ``s . strides`` on a slice of the grid, and the bands are converted
    to CSC once. Fitted fluxes fill offsets 0 and +-stride_k; full-S cross
    terms add +-stride_k +- stride_l, one-sided at the walls.
    """
    import scipy.sparse  # only the grid route needs it

    d = box.dim
    shape = tuple(int(v) for v in box.n)
    strides = [int(np.prod(shape[a + 1 :])) for a in range(d)]
    unit = np.eye(d, dtype=int)
    h = box.cell_widths
    half_eps2 = 0.5 * eps**2
    x = box.center_points().reshape(*shape, d)
    diag, cross = _diffusion_tensor(sys, x)
    bands: dict[int, np.ndarray] = {}  # offset o -> L[f - o, f], indexed by column f

    def moved(cells, step):
        return tuple(slice(c.start + s, c.stop + s) for c, s in zip(cells, step))

    def add(rows, step, value):  # L[f, f + step] += value for the cells f in rows
        band = bands.setdefault(int(np.dot(strides, step)), np.zeros(shape))
        band[moved(rows, step)] += value

    def flux(k, faces, step, coeff):
        # coeff * rho(f + step) crosses the axis-k face above each cell f of
        # faces: it leaves f's balance row and enters that of f + e_k
        value = 1.0 / h[k] * coeff
        add(faces, step, value)
        add(moved(faces, unit[k]), step - unit[k], -value)

    for k in range(d):
        lower = tuple(slice(0, n - (a == k)) for a, n in enumerate(shape))
        upper = moved(lower, unit[k])
        face = x[lower].copy()
        face[..., k] += 0.5 * h[k]
        pe = (face @ A_j[k]) * h[k] / (half_eps2 * _diffusion_tensor(sys, face)[0][..., k])
        flux(k, lower, 0 * unit[k], half_eps2 / h[k] * diag[lower][..., k] * _bernoulli(-pe))
        flux(k, lower, unit[k], -half_eps2 / h[k] * diag[upper][..., k] * _bernoulli(pe))
        for l in range(d):
            if cross[k, l] == 0.0:  # always so for l == k
                continue
            # -(eps^2/2) d_l(D_kl rho), central (one-sided at the walls) at
            # both cells of the face and averaged
            i = np.arange(shape[l])
            p_up, p_dn = np.minimum(i + 1, shape[l] - 1), np.maximum(i - 1, 0)
            w = np.where(p_up > p_dn, 1.0 / (np.maximum(p_up - p_dn, 1) * h[l]), 0.0)
            w = 0.5 * half_eps2 * cross[k, l] * w
            for p, sign in ((p_up, -1.0), (p_dn, 1.0)):
                for s in np.unique(p - i):  # +-1 inside, 0 at the wall
                    run = np.flatnonzero(p - i == s)
                    faces = list(lower)
                    faces[l] = slice(run[0], run[-1] + 1)
                    coeff = sign * w[run].reshape([-1 if a == l else 1 for a in range(d)])
                    for side in (0, 1):
                        flux(k, faces, side * unit[k] + s * unit[l], coeff)

    offsets = sorted(bands, reverse=True)  # rows ascend within each column
    n = int(np.prod(shape))
    data = np.stack([bands.pop(o).ravel() for o in offsets])
    return scipy.sparse.dia_matrix((data, offsets), shape=(n, n)).tocsc()


def _pinned_null_vector(L: scipy.sparse.csc_matrix, pin: int, fold: bool = False) -> np.ndarray:
    """Null vector of a zero-flux operator ``L``, scaled so ``v[pin] = 1``.

    With ``fold`` the operator must commute with the reversal of the
    cells, f -> N-1-f, and the solve runs on the first ``ceil(N/2)`` rows
    with each column added to its mirror's: ``F = L[:K] P``, where ``P``
    sends cell f to its representative ``min(f, N-1-f)``, and ``v =
    u[orbit]`` unfolds the result, so an antisymmetric null vector cannot
    be seen. The columns of ``L`` sum to zero, so ``F``'s left null vector
    is the positive vector of pair sizes and any one balance row is implied
    by the others: the row of the pin's representative is replaced in
    place by ``u = 1`` there and the result is factored once (minimum-degree
    ordering on the pattern of A + A^T, diagonal pivots) and solved once.
    An exactly singular factor, or a pivot ratio ``min|U_ii| / max|U_ii|``
    below round-off, means the null space is not one-dimensional
    (NonUniqueError); a relative residual on the full operator,
    ``||L v|| / (scale ||v||)``, above 1e-9 raises NumericalError.

    The pivots are the diagonal because a boundary column of ``L`` has an
    off-diagonal entry as large as its diagonal one: threshold pivoting
    would let round-off pick between the two, and the wrong pick cost an
    unfolded 1-D solve its far tail (9e-2 relative error, against 1e-13).
    ``L`` is column diagonally dominant and the pin row is a unit row.
    """
    import scipy.sparse.linalg  # loads scipy.sparse too

    n = L.shape[0]
    scale = float(np.abs(L.data).max()) if L.nnz else 1.0
    cells = np.arange(n)
    if fold:
        orbit = np.minimum(cells, n - 1 - cells)
        k = (n + 1) // 2  # the representatives are the prefix of the cells
        P = scipy.sparse.csr_matrix((np.ones(n), orbit, np.arange(n + 1)), shape=(n, k))
        pinned = L[:k] @ P
    else:
        orbit, k, pinned = cells, n, L.copy()
    row = int(orbit[pin])
    pinned.data[pinned.indices == row] = 0.0  # CSC: indices are row numbers
    with warnings.catch_warnings():
        # in place, unless the diagonal entry cancelled (one or two cells)
        warnings.simplefilter("ignore", scipy.sparse.SparseEfficiencyWarning)
        pinned[row, row] = 1.0
    pinned.eliminate_zeros()  # the zeroed entries add no structural fill
    try:
        lu = scipy.sparse.linalg.splu(pinned, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
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
    rhs = np.zeros(k)
    rhs[row] = 1.0
    v = lu.solve(rhs)[orbit]
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

    ``box`` defaults to ``default_stationary_box`` with ``n_cells`` per
    axis; a box and an ``n_cells`` that disagree raise DomainError.

    One pinned direct solve (``_pinned_null_vector``) fixes the cell nearest
    the origin, where the zero-mean stationary law peaks. It raises
    NonUniqueError when the operator does not determine the density
    uniquely, and NumericalError when the factorization fails or the
    relative residual exceeds 1e-9. Entries below -1e-10 of the peak raise
    NumericalError; smaller negative round-off is clamped to zero before
    normalization.

    A box symmetric about the origin (``box.lo == -box.hi``, as every
    default box is) is folded by x -> -x, which maps C-order cell f to
    N-1-f. This is exact up to round-off: the drift A_j x is odd and sigma
    sigma^T even, so the operator commutes with the reflection, and its
    null space is one-dimensional, so the density is even. The LU factors
    (N+1)//2 unknowns and the values come out exactly mirror-symmetric.
    The blind spot is a second, antisymmetric null direction, which no
    system of the public API produces. Any other box is solved unfolded.
    At 201^2 the fold halves the LU fill and time (0.08 s against 0.17 s
    for the five-point operator, on one core of a 2-vCPU x86-64 VM).
    Either way the 1-D far tail is exact to round-off: relative error
    3e-14 folded and 1e-13 unfolded, out to 7.7 standard deviations.

    With diagonal diffusion (diagonal S, or diag_affine) the fitted fluxes
    of ``_assemble_fv_operator`` make the operator an M-matrix, so the
    density is positive up to round-off at any cell Peclet number: all 40
    plants of an eccentric, rotated d=2 family (A = R diag(-1, -k) R^T,
    k in [5, 40], eps = 0.1) solve at 101^2, median L1 error 1.0e-3 to the
    exact law. A full S S^T adds central cross-diffusion terms, which can
    still drive entries negative: 23 of the same 40 plants with a full S
    raise NumericalError at 101^2 and 10 at 201^2. This solver stays in
    the x frame; for r with a full S use ``systemic_redundancy(...,
    "grid")``, which solves in the eigenbasis of S S^T, where the
    diffusion is diagonal (0 of those 40 fail at 101^2 or 201^2).
    """
    if sys.d not in (1, 2):
        raise DimensionError("grid solver supports d in {1, 2}")
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be a positive real, got {eps!r}")
    _check_cell_counts(box, n_cells, "box", "n_cells")
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
    pin = int(np.ravel_multi_index(tuple(origin), tuple(box.n)))
    v = _pinned_null_vector(L, pin, fold=np.array_equal(box.lo, -box.hi))

    values = v.reshape(tuple(box.n))
    total = values.sum() * box.cell_volume
    values = values / total
    # threshold scales with the density peak (peaks grow like eps^-d)
    if float(values.min()) < -1e-10 * float(values.max()):
        raise NumericalError(
            f"stationary solution has negative entries down to {float(values.min())!r}"
        )
    values = np.clip(values, 0.0, None)
    return GridDensity.from_unnormalized(box, values)
