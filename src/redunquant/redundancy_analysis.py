"""The systemic redundancy measure and its parameter sweeps.

The measure for a reliable gain set at noise level eps is

    r = (1/(2N)) * sum_i D(mu_i || mu_0)  -  H(mu_0)     [bits]

where mu_0 is the stationary law of the nominal closed loop, mu_i the
stationary law under outage of channel i, D the relative entropy and H
the differential entropy. ``liouville_redundancy`` evaluates the same
functional along the unperturbed density flow at time t instead of the
stationary laws. The average always takes the paper's 1/(2N); a plain
channel average (1/N) of the KL terms is ``r + avg_term``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .densities import Box, GaussianDensity, GridDensity
from .errors import DimensionError, DomainError, NotReliableError
from .info_measures import LN2, _grid_kl_and_left_out
from .info_measures import gaussian_entropy, gaussian_kl, grid_entropy, grid_kl
from .liouville_flow import GeneralDensity, _check_time, flow_kl, pushforward_gaussian
from .reliable_gains import verify_reliable
from .stochastic_engine import (
    _check_cell_counts,
    default_sim_params,
    default_stationary_box,
    derived_seed,
    empirical_density,
    sample_box,
    simulate_sde,
    smoothed_empirical_density,
    solve_stationary_fp_grid,
    stationary_gaussian,
)
from .system_model import ConstantDiffusion, GainSet, MultiChannelSystem, closed_loop_matrix

METHODS = ("closed_form", "monte_carlo", "grid")


@dataclass(frozen=True, eq=False)
class RedundancyReport:
    """Redundancy value with every intermediate term and its provenance.

    ``r = avg_term - entropy_term`` holds exactly by construction. For
    stationary-law reports ``epsilon`` is set; for flow reports ``t``.
    """

    kl_per_channel: tuple[float, ...]
    avg_term: float
    entropy_term: float
    r: float
    method: str
    epsilon: float | None = None
    t: float | None = None
    provenance: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Sweep rows (strictly increasing parameter) plus per-pair annotations."""

    parameter: str
    values: tuple[float, ...]
    reports: tuple[RedundancyReport, ...]
    pair_annotations: tuple[dict, ...]
    notes: dict

    def __post_init__(self):
        if len(self.values) != len(self.reports):
            raise DimensionError("one report per parameter value is required")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise DomainError("sweep parameter column must be strictly increasing")


def _verified(sys: MultiChannelSystem, gains: GainSet, method: str = "closed_form") -> None:
    """Check ``method``, then take the one reliability verdict that a call
    or a whole sweep needs (NotReliableError when a failure mode has no
    stationary law)."""
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}")
    report = verify_reliable(sys, gains)
    if not report.reliable:
        raise NotReliableError(
            f"gain set is not reliable (margin {report.margin!r}); "
            "stationary laws do not exist for every failure mode",
            report=report,
        )


def _assemble_report(
    kls,
    entropy_term: float,
    method: str,
    epsilon: float | None = None,
    t: float | None = None,
    provenance: dict | None = None,
) -> RedundancyReport:
    kls = tuple(float(k) for k in kls)
    avg_term = math.fsum(kls) / (2.0 * len(kls)) if all(math.isfinite(k) for k in kls) else math.inf
    return RedundancyReport(
        kl_per_channel=kls,
        avg_term=avg_term,
        entropy_term=float(entropy_term),
        r=avg_term - float(entropy_term),
        method=method,
        epsilon=epsilon,
        t=t,
        provenance=provenance or {},
    )


def systemic_redundancy(
    sys: MultiChannelSystem,
    gains: GainSet,
    eps: float,
    method: str = "closed_form",
    *,
    seed: int = 42,
    n_paths: int = 100_000,
    horizon: float | None = None,
    dt: float | None = None,
    hist_cells: int = 64,
    grid_box: Box | None = None,
    grid_cells: int | None = None,
) -> RedundancyReport:
    """Redundancy of the stationary laws at noise level eps.

    ``method`` selects how the N+1 stationary densities are produced:
    exact Gaussians (constant sigma only), histograms of Euler endpoints, or
    grid solutions of the stationary transport operator.

    The Monte Carlo route takes each mode's endpoints from
    ``simulate_sde``, which draws them exactly when sigma is constant and
    steps them otherwise; unset ``horizon``/``dt`` take each mode's
    ``default_sim_params``. Provenance names the sampler
    (``"exact_endpoint"`` or ``"euler_two_point"``) and carries batch-means
    standard errors of each KL, the entropy and r over 10 fixed path
    shards. Those cover sampling noise only, not histogram bias; below 20
    paths they are nan.

    The grid route solves all N+1 laws on one box: ``grid_box``, else the
    hull of the modes' default boxes with ``grid_cells`` per axis. Both
    given must agree on every axis (DomainError otherwise). When sigma is
    constant and S S^T has a nonzero off-diagonal entry, it solves them in
    y = U^T x, where S S^T = U diag(lam) U^T (``numpy.linalg.eigh``): there
    the diffusion is diagonal, so the operator is the five-point M-matrix
    of diagonal noise, with a positive null vector, instead of a nine-point
    one with central cross terms. r is the same number in either frame. A
    configured ``grid_box`` is read in x and replaced by the bounding box of
    its rotated corners, with the same cell counts; ``grid_lo``/``grid_hi``
    then describe that y box, and provenance records ``grid_frame`` = U^T
    (y = grid_frame @ x). d = 1, a diagonal S S^T and diag_affine noise stay
    in x and write no ``grid_frame``. Its KLs are ``grid_kl``'s: cells where
    the reference has underflowed to 0 are left out, and provenance records
    the outage law's mass on them as ``kl_mass_where_reference_underflows``.
    """
    _verified(sys, gains, method)
    return _stationary_redundancy(
        sys, gains, eps, method, seed=seed, n_paths=n_paths, horizon=horizon,
        dt=dt, hist_cells=hist_cells, grid_box=grid_box, grid_cells=grid_cells,
    )


def _hull(boxes: list[Box]) -> Box:
    """Smallest box covering ``boxes``, on the cell counts of the first."""
    return Box(
        np.min([b.lo for b in boxes], axis=0), np.max([b.hi for b in boxes], axis=0), boxes[0].n
    )


def _stationary_redundancy(
    sys: MultiChannelSystem,
    gains: GainSet,
    eps: float,
    method: str,
    *,
    seed: int = 42,
    n_paths: int = 100_000,
    horizon: float | None = None,
    dt: float | None = None,
    hist_cells: int = 64,
    grid_box: Box | None = None,
    grid_cells: int | None = None,
) -> RedundancyReport:
    """``systemic_redundancy`` after its checks and its reliability verdict."""
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be a positive real, got {eps!r}")
    n = sys.n_channels

    if method == "closed_form":
        laws = [stationary_gaussian(sys, gains, j, eps) for j in range(n + 1)]
        kls = [gaussian_kl(laws[i], laws[0]) for i in range(1, n + 1)]
        entropy_term = gaussian_entropy(laws[0])
        prov = {"eps": eps}
        return _assemble_report(kls, entropy_term, method, epsilon=eps, provenance=prov)

    if method == "monte_carlo":
        if sys.d > 2:
            raise DimensionError("monte_carlo redundancy supports d <= 2 (histogram KL)")
        exact = isinstance(sys.sigma, ConstantDiffusion)
        mode_seeds = [derived_seed(seed, j) for j in range(n + 1)]
        sets = []
        horizons, dts = [], []
        for j in range(n + 1):
            h_j, dt_j = default_sim_params(sys, gains, j, horizon, dt)
            sets.append(simulate_sde(sys, gains, j, eps, h_j, dt_j, n_paths, mode_seeds[j]))
            horizons.append(h_j)
            dts.append(dt_j)
        boxes = [sample_box([sets[0], sets[i]], hist_cells) for i in range(1, n + 1)]
        boxes.append(sample_box([sets[0]], hist_cells))
        kls, entropy_term = _histogram_terms(sets, boxes)
        prov = {
            "seed": seed,
            "mode_seeds": mode_seeds,
            "n_paths": n_paths,
            "horizon": horizons,
            "dt": dts,
            "hist_cells": hist_cells,
            "reference_smoothing": _REFERENCE_SMOOTHING,
            "sampler": "exact_endpoint" if exact else "euler_two_point",
            "standard_error": _batch_means_se(sets, boxes),
        }
        return _assemble_report(kls, entropy_term, method, epsilon=eps, provenance=prov)

    # grid: one shared box so densities are directly comparable
    if sys.d not in (1, 2):
        raise DimensionError("grid redundancy supports d in {1, 2}")
    _check_cell_counts(grid_box, grid_cells, "grid_box", "grid_cells")
    frame = _diffusion_frame(sys, gains)
    if frame is not None:
        U, sys, gains = frame
        if grid_box is not None:  # bounding box of the rotated x-frame box
            corners = np.array(list(itertools.product(*zip(grid_box.lo, grid_box.hi)))) @ U
            grid_box = Box(corners.min(axis=0), corners.max(axis=0), grid_box.n)
    if grid_box is None:
        grid_box = _hull(
            [default_stationary_box(sys, gains, j, eps, n_cells=grid_cells) for j in range(n + 1)]
        )
    densities = [
        solve_stationary_fp_grid(sys, gains, j, eps, box=grid_box) for j in range(n + 1)
    ]
    kls, left_out = zip(*(_grid_kl_and_left_out(q, densities[0]) for q in densities[1:]))
    entropy_term = grid_entropy(densities[0])
    prov = {
        "grid_lo": grid_box.lo.tolist(),
        "grid_hi": grid_box.hi.tolist(),
        "grid_cells": grid_box.n.tolist(),
        "kl_mass_where_reference_underflows": list(left_out),
    }
    if frame is not None:
        prov["grid_frame"] = U.T.tolist()
    return _assemble_report(kls, entropy_term, method, epsilon=eps, provenance=prov)


def _diffusion_frame(sys: MultiChannelSystem, gains: GainSet):
    """Eigenvectors U of a constant S S^T with a nonzero off-diagonal entry,
    and the system and gains in y = U^T x (A -> U^T A U, B_i -> U^T B_i,
    K_i -> K_i U, S -> diag(sqrt(lam))); None for any other sigma."""
    if not isinstance(sys.sigma, ConstantDiffusion):
        return None
    D = sys.sigma.diffusion_matrix()
    if not np.any(D - np.diag(np.diag(D))):
        return None
    lam, U = np.linalg.eigh(D)
    rotated = MultiChannelSystem(
        U.T @ sys.A @ U, [U.T @ B for B in sys.B], ConstantDiffusion(np.diag(np.sqrt(lam)))
    )
    return U, rotated, GainSet([K @ U for K in gains.K])


#: Pseudo-count per cell of the Monte Carlo route's reference histogram.
_REFERENCE_SMOOTHING = 0.05


def _histogram_terms(sets, boxes) -> tuple[list[float], float]:
    """Histogram KL of each outage set against the smoothed nominal set on
    their shared box ``boxes[i-1]``, and the nominal entropy on ``boxes[-1]``."""
    kls = []
    for s_i, box in zip(sets[1:], boxes):
        q_i, _ = empirical_density(s_i, box)
        kls.append(grid_kl(q_i, smoothed_empirical_density(sets[0], box, _REFERENCE_SMOOTHING)))
    h0, _ = empirical_density(sets[0], boxes[-1])
    return kls, grid_entropy(h0)


#: Fixed number of contiguous path-index shards behind the batch-means
#: standard errors of the Monte Carlo route.
_SE_SHARDS = 10


def _batch_means_se(sets, boxes) -> dict:
    """Batch-means standard errors of each KL, the entropy and r.

    The path indices split into ``_SE_SHARDS`` fixed contiguous shards; the
    terms are re-evaluated on each shard with the boxes of the full-sample
    estimate, and each SE is the shard standard deviation over
    sqrt(_SE_SHARDS). This covers sampling noise only, not histogram bias.
    Below two paths per shard every entry is nan.
    """
    n_paths = sets[0].n
    if n_paths < 2 * _SE_SHARDS:
        return {"kl_per_channel": [math.nan] * (len(sets) - 1), "entropy": math.nan, "r": math.nan}
    rows = []
    for k in range(_SE_SHARDS):
        shard = slice(k * n_paths // _SE_SHARDS, (k + 1) * n_paths // _SE_SHARDS)
        kls, entropy = _histogram_terms([replace(s, samples=s.samples[shard]) for s in sets], boxes)
        rows.append([*kls, entropy, _assemble_report(kls, entropy, "monte_carlo").r])
    se = np.std(rows, axis=0, ddof=1) / math.sqrt(_SE_SHARDS)
    return {"kl_per_channel": se[:-2].tolist(), "entropy": float(se[-2]), "r": float(se[-1])}


def liouville_redundancy(
    sys: MultiChannelSystem,
    gains: GainSet,
    rho0: GeneralDensity,
    t: float,
) -> RedundancyReport:
    """Redundancy functional r_t along the unperturbed density flow.

    Gaussian rho0 takes the exact pushforward path (method
    ``"closed_form"``). A ``GridDensity`` rho0 (method ``"grid"``) is
    evaluated in its own frame, on its own box: with Phi_j = exp(A_j t)
    and M_i = Phi_0^{-1} Phi_i, KL_i = KL(M_i # rho0 || rho0) and H_t =
    H(rho0) + trace(A_0) t / ln 2. A one-cell (uniform) start is exact in
    any dimension: KL_i = -(trace(A_i) - trace(A_0)) t / ln 2 when M_i maps
    the box into itself and +inf otherwise, so KL_i is +inf for every
    t > 0 once outage mode i contracts more slowly than the nominal one in
    some direction of the box. A multi-cell start takes a midpoint
    quadrature of the cross term (``flow_kl``), and provenance records
    a bound on its error for each KL as ``quadrature_tol`` (bits). t = 0
    gives r = -H(rho0) exactly.

    The paper's literal Jacobian exp(-trace(A) t) would only rescale mode
    j's mass by exp((trace(A_j) - trace(A)) t), a factor that cancels from
    r_t, so the flow uses the closed-loop trace. On the Gaussian path, a
    time at which a pushforward covariance has underflowed gives infinite
    KL terms and r = inf.
    """
    _verified(sys, gains)
    return _flow_redundancy(sys, gains, rho0, t)


def _flow_redundancy(
    sys: MultiChannelSystem,
    gains: GainSet,
    rho0: GeneralDensity,
    t: float,
) -> RedundancyReport:
    """``liouville_redundancy`` after its checks and its reliability verdict."""
    t = _check_time(t)
    if not isinstance(rho0, (GaussianDensity, GridDensity)):
        raise DomainError(f"unsupported initial density type {type(rho0).__name__}")
    if rho0.dim != sys.d:
        raise DimensionError(f"density dimension {rho0.dim} does not match state dimension {sys.d}")
    n = sys.n_channels
    prov: dict = {"t": t}

    if isinstance(rho0, GaussianDensity):
        flows = [_pushforward_or_none(sys, gains, j, rho0, t) for j in range(n + 1)]
        kls = [
            math.inf if None in (flows[i], flows[0]) else gaussian_kl(flows[i], flows[0])
            for i in range(1, n + 1)
        ]
        entropy_term = -math.inf if flows[0] is None else gaussian_entropy(flows[0])
        return _assemble_report(kls, entropy_term, "closed_form", t=t, provenance=prov)

    terms = [flow_kl(sys, gains, i, rho0, t) for i in range(1, n + 1)]
    prov["quadrature_tol"] = [tol for _, tol in terms]
    entropy_term = grid_entropy(rho0) + float(np.trace(closed_loop_matrix(sys, gains, 0))) * t / LN2
    return _assemble_report(
        [kl for kl, _ in terms], entropy_term, "grid", t=t, provenance=prov
    )


def _pushforward_or_none(sys, gains, mode, rho0, t) -> GaussianDensity | None:
    """Exact pushforward of mode ``mode``, or None once its covariance has
    underflowed (it is no longer positive definite in floating point); the
    terms that involve it are then infinite, and so is r."""
    try:
        return pushforward_gaussian(sys, gains, mode, rho0, t)
    except DomainError:
        return None


def _sorted_strictly(values, name: str) -> list[float]:
    vals = [float(v) for v in values]
    if not vals:
        raise DomainError(f"{name} must be nonempty")
    ordered = sorted(vals)
    if any(b <= a for a, b in zip(ordered, ordered[1:])):
        raise DomainError(f"{name} entries must be distinct")
    return ordered


def epsilon_sweep(
    sys: MultiChannelSystem,
    gains: GainSet,
    eps_list,
    method: str = "closed_form",
    *,
    seed: int = 42,
    **method_kwargs,
) -> SweepTable:
    """Redundancy across noise levels, with the noise-scaling annotations.

    Rows are stored in increasing eps order whatever the input order. For
    constant sigma each row is annotated with the implied unit-noise
    redundancy r + d log2(eps) (constant across rows exactly when the
    closed-form scaling law holds), and each adjacent pair records whether
    the claimed nondecrease of r in eps holds on the data. Reliability is
    verified once per sweep, before the first row (NotReliableError); every
    row is then the ``systemic_redundancy`` value at its eps, with the
    row's seed ``derived_seed(seed, row)``.
    """
    ordered = _sorted_strictly(eps_list, "eps_list")
    if any(e <= 0.0 for e in ordered):
        raise DomainError("eps_list entries must be positive")
    _verified(sys, gains, method)
    constant = isinstance(sys.sigma, ConstantDiffusion)
    reports = [
        _stationary_redundancy(
            sys, gains, eps, method, seed=derived_seed(seed, row), **method_kwargs
        )
        for row, eps in enumerate(ordered)
    ]
    pairs = []
    for (e_a, rep_a), (e_b, rep_b) in zip(
        zip(ordered, reports), zip(ordered[1:], reports[1:])
    ):
        entry = {
            "eps_low": e_a,
            "eps_high": e_b,
            "delta_r": rep_b.r - rep_a.r,
            "claim_r_nondecreasing_in_eps_holds": rep_b.r >= rep_a.r,
        }
        if constant and method == "closed_form":
            predicted = -sys.d * math.log2(e_b / e_a)
            entry["scaling_law_delta_r"] = predicted
            entry["scaling_law_residual"] = (rep_b.r - rep_a.r) - predicted
        pairs.append(entry)
    notes = {
        "claim": "r is nondecreasing in eps and exceeds the flow value r_t",
        "observed_r_direction": _direction([rep.r for rep in reports]),
        "claim_consistent_with_data": all(
            p["claim_r_nondecreasing_in_eps_holds"] for p in pairs
        )
        if pairs
        else True,
    }
    if constant and method == "closed_form":
        notes["scaling_law"] = (
            "r(eps) = r(1) - d*log2(eps): KL terms are invariant under common "
            "covariance scaling while the entropy term grows by d*log2(eps)"
        )
        notes["implied_r_at_unit_noise"] = [
            rep.r + sys.d * math.log2(e) for e, rep in zip(ordered, reports)
        ]
    return SweepTable(
        parameter="epsilon",
        values=tuple(ordered),
        reports=tuple(reports),
        pair_annotations=tuple(pairs),
        notes=notes,
    )


def time_sweep(
    sys: MultiChannelSystem,
    gains: GainSet,
    rho0: GeneralDensity,
    t_list,
    *,
    reference_eps: float | None = None,
) -> SweepTable:
    """Flow redundancy r_t across times, optionally compared against the
    stationary measure at a reference noise level.

    Reliability is verified once per sweep, before the first row
    (NotReliableError); every row, and the closed-form reference at
    ``reference_eps`` (constant sigma only), is then the value
    ``liouville_redundancy`` or ``systemic_redundancy`` would return.
    """
    ordered = _sorted_strictly(t_list, "t_list")
    if ordered[0] < 0.0:
        raise DomainError("t_list entries must be nonnegative")
    _verified(sys, gains)
    reports = [_flow_redundancy(sys, gains, rho0, t) for t in ordered]
    r_ref = None
    if reference_eps is not None and isinstance(sys.sigma, ConstantDiffusion):
        r_ref = _stationary_redundancy(sys, gains, reference_eps, "closed_form").r
    pairs = []
    for (t_a, rep_a), (t_b, rep_b) in zip(
        zip(ordered, reports), zip(ordered[1:], reports[1:])
    ):
        pairs.append(
            {
                "t_low": t_a,
                "t_high": t_b,
                "delta_r": rep_b.r - rep_a.r,
                "r_increased": rep_b.r > rep_a.r,
            }
        )
    notes: dict = {"observed_r_direction": _direction([rep.r for rep in reports])}
    if r_ref is not None:
        notes["reference_eps"] = reference_eps
        notes["r_reference"] = r_ref
        notes["claim"] = "the stationary redundancy exceeds r_t for every t"
        notes["claim_holds_per_row"] = [bool(r_ref > rep.r) for rep in reports]
    return SweepTable(
        parameter="t",
        values=tuple(ordered),
        reports=tuple(reports),
        pair_annotations=tuple(pairs),
        notes=notes,
    )


def _direction(values) -> str:
    finite = [v for v in values if math.isfinite(v)]
    if len(finite) < 2:
        return "undetermined"
    increasing = all(b >= a for a, b in zip(finite, finite[1:]))
    decreasing = all(b <= a for a, b in zip(finite, finite[1:]))
    if increasing and not decreasing:
        return "nondecreasing"
    if decreasing and not increasing:
        return "nonincreasing"
    if increasing and decreasing:
        return "constant"
    return "nonmonotone"
