"""The systemic redundancy measure and its parameter sweeps.

The measure for a reliable gain set at noise level eps is

    r = (1/(2N)) * sum_i D(mu_i || mu_0)  -  H(mu_0)     [bits]

where mu_0 is the stationary law of the nominal closed loop, mu_i the
stationary law under outage of channel i, D the relative entropy and H
the differential entropy. ``liouville_redundancy`` evaluates the same
functional along the unperturbed density flow at time t instead of the
stationary laws.

The printed 1/(2N) normalization is the default; ``avg_normalization =
"mean"`` switches the first term to a plain channel average (1/N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .densities import Box, GaussianDensity, GridDensity
from .errors import DimensionError, DomainError, NotReliableError
from .info_measures import gaussian_entropy, gaussian_kl, grid_entropy, grid_kl
from .liouville_flow import (
    GeneralDensity,
    default_transport_box,
    pushforward_gaussian,
    transported_pdf,
)
from .reliable_gains import verify_reliable
from .stochastic_engine import (
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
NORMALIZATIONS = ("paper", "mean")


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
    normalization: str
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


def _check_normalization(avg_normalization: str) -> str:
    if avg_normalization not in NORMALIZATIONS:
        raise DomainError(f"avg_normalization must be one of {NORMALIZATIONS}")
    return avg_normalization


def _assemble_report(
    kls,
    entropy_term: float,
    method: str,
    normalization: str,
    epsilon: float | None = None,
    t: float | None = None,
    provenance: dict | None = None,
) -> RedundancyReport:
    kls = tuple(float(k) for k in kls)
    denom = 2.0 * len(kls) if normalization == "paper" else float(len(kls))
    avg_term = math.fsum(kls) / denom if all(math.isfinite(k) for k in kls) else math.inf
    return RedundancyReport(
        kl_per_channel=kls,
        avg_term=avg_term,
        entropy_term=float(entropy_term),
        r=avg_term - float(entropy_term),
        method=method,
        normalization=normalization,
        epsilon=epsilon,
        t=t,
        provenance=provenance or {},
    )


def _require_reliable(sys: MultiChannelSystem, gains: GainSet):
    report = verify_reliable(sys, gains)
    if not report.reliable:
        raise NotReliableError(
            f"gain set is not reliable (margin {report.margin!r}); "
            "stationary laws do not exist for every failure mode",
            report=report,
        )
    return report


def systemic_redundancy(
    sys: MultiChannelSystem,
    gains: GainSet,
    eps: float,
    method: str = "closed_form",
    *,
    seed: int = 42,
    avg_normalization: str = "paper",
    n_paths: int = 100_000,
    horizon: float | None = None,
    dt: float | None = None,
    hist_cells: int = 64,
    grid_box: Box | None = None,
    grid_cells: int | None = None,
) -> RedundancyReport:
    """Redundancy of the stationary laws at noise level eps.

    ``method`` selects how the N+1 stationary densities are produced:
    exact Gaussians (constant sigma only), Euler-Maruyama histograms, or
    grid solutions of the stationary transport operator.

    The Monte Carlo route takes each mode's endpoints from
    ``simulate_sde``, which draws them exactly when sigma is constant and
    steps them otherwise; unset ``horizon``/``dt`` take each mode's
    ``default_sim_params``. Provenance names the sampler
    (``"exact_endpoint"`` or ``"euler_stepped"``) and carries batch-means
    standard errors of each KL, the entropy and r over 10 fixed path
    shards. Those cover sampling noise only, not histogram bias; below 20
    paths they are nan.
    """
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}")
    normalization = _check_normalization(avg_normalization)
    _require_reliable(sys, gains)
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be a positive real, got {eps!r}")
    n = sys.n_channels

    if method == "closed_form":
        laws = [stationary_gaussian(sys, gains, j, eps) for j in range(n + 1)]
        kls = [gaussian_kl(laws[i], laws[0]) for i in range(1, n + 1)]
        entropy_term = gaussian_entropy(laws[0])
        prov = {"eps": eps}
        return _assemble_report(kls, entropy_term, method, normalization, epsilon=eps, provenance=prov)

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
            "sampler": "exact_endpoint" if exact else "euler_stepped",
            "standard_error": _batch_means_se(sets, boxes, normalization),
        }
        return _assemble_report(kls, entropy_term, method, normalization, epsilon=eps, provenance=prov)

    # grid: one shared box so densities are directly comparable
    if sys.d not in (1, 2):
        raise DimensionError("grid redundancy supports d in {1, 2}")
    if grid_box is None:
        boxes = [
            default_stationary_box(sys, gains, j, eps, n_cells=grid_cells)
            for j in range(n + 1)
        ]
        lo = np.min([b.lo for b in boxes], axis=0)
        hi = np.max([b.hi for b in boxes], axis=0)
        grid_box = Box(lo, hi, boxes[0].n)
    densities = [
        solve_stationary_fp_grid(sys, gains, j, eps, box=grid_box) for j in range(n + 1)
    ]
    kls = []
    dropped = []
    for i in range(1, n + 1):
        kl_i, dropped_i = _solver_kl(densities[i], densities[0])
        kls.append(kl_i)
        dropped.append(dropped_i)
    entropy_term = grid_entropy(densities[0])
    prov = {
        "grid_lo": grid_box.lo.tolist(),
        "grid_hi": grid_box.hi.tolist(),
        "grid_cells": grid_box.n.tolist(),
        "kl_mass_below_resolution": dropped,
    }
    return _assemble_report(kls, entropy_term, method, normalization, epsilon=eps, provenance=prov)


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


def _batch_means_se(sets, boxes, normalization: str) -> dict:
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
        rows.append([*kls, entropy, _assemble_report(kls, entropy, "monte_carlo", normalization).r])
    se = np.std(rows, axis=0, ddof=1) / math.sqrt(_SE_SHARDS)
    return {"kl_per_channel": se[:-2].tolist(), "entropy": float(se[-2]), "r": float(se[-1])}


#: Solver outputs cannot resolve density values below this fraction of
#: their peak; cells under it carry discretization noise, not tail mass.
_SOLVER_RESOLUTION = 1e-13

#: If more than this much q-mass sits where the reference density is
#: unresolvable, the KL is reported as the +inf sentinel instead of a
#: silently truncated number.
_MAX_UNRESOLVED_MASS = 1e-3


def _solver_kl(q: GridDensity, p: GridDensity) -> tuple[float, float]:
    """Histogram KL between solver outputs, floored at solver resolution.

    True stationary densities are positive everywhere, but a grid solution
    bottoms out at round-off well above the generic density floor; cells
    below that resolution are excluded and the q-mass they carry is
    returned as a diagnostic (its KL contribution is bounded by that mass
    times the log-ratio at the support edge, negligible when small).
    """
    resolvable = p.values > _SOLVER_RESOLUTION * p.values.max()
    volume = q.box.cell_volume
    dropped = float(q.values[~resolvable].sum() * volume)
    if dropped > _MAX_UNRESOLVED_MASS:
        return math.inf, dropped
    qv = q.values[resolvable]
    pv = p.values[resolvable]
    active = qv > 0.0
    kl = float(np.sum(qv[active] * (np.log2(qv[active]) - np.log2(pv[active]))) * volume)
    return max(kl, 0.0), dropped


def liouville_redundancy(
    sys: MultiChannelSystem,
    gains: GainSet,
    rho0: GeneralDensity,
    t: float,
    *,
    paper_literal_jacobian: bool = False,
    avg_normalization: str = "paper",
    grid_cells: int | None = None,
    box: Box | None = None,
) -> RedundancyReport:
    """Redundancy functional r_t along the unperturbed density flow.

    Gaussian rho0 takes the exact pushforward path; other initial
    densities are evaluated on a shared grid, with the mass of each
    transported density before normalization in provenance. The literal
    Jacobian exp(-trace(A) t) only rescales mode j by exp((trace(A_j) -
    trace(A)) t), so r_t does not depend on ``paper_literal_jacobian``;
    the flag records that factor as ``raw_masses`` (times the grid mass).
    """
    normalization = _check_normalization(avg_normalization)
    _require_reliable(sys, gains)
    t = float(t)
    if not (np.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be a finite nonnegative real, got {t!r}")
    n = sys.n_channels
    drift = None
    if paper_literal_jacobian:
        traces = np.array([np.trace(closed_loop_matrix(sys, gains, j)) for j in range(n + 1)])
        drift = np.exp((traces - np.trace(sys.A)) * t).tolist()

    if isinstance(rho0, GaussianDensity):
        flows = [pushforward_gaussian(sys, gains, j, rho0, t) for j in range(n + 1)]
        kls = [gaussian_kl(flows[i], flows[0]) for i in range(1, n + 1)]
        entropy_term = gaussian_entropy(flows[0])
        prov = {"t": t}
        if drift is not None:
            prov.update(paper_literal_jacobian=True, raw_masses=drift)
        return _assemble_report(
            kls, entropy_term, "closed_form", normalization, t=t, provenance=prov
        )

    if sys.d > 2:
        raise DimensionError("grid-path flow redundancy supports d <= 2")
    if grid_cells is None:
        grid_cells = 801 if sys.d == 1 else 101
    if box is None:
        boxes = [
            default_transport_box(sys, gains, j, rho0, t, n=grid_cells)
            for j in range(n + 1)
        ]
        lo = np.min([b.lo for b in boxes], axis=0)
        hi = np.max([b.hi for b in boxes], axis=0)
        box = Box(lo, hi, np.full(sys.d, grid_cells))
    points = box.center_points()
    masses = []
    densities = []
    for j in range(n + 1):
        values = transported_pdf(sys, gains, j, rho0, t, points).reshape(tuple(box.n))
        masses.append(float(values.sum() * box.cell_volume))
        densities.append(GridDensity.from_unnormalized(box, values))
    if drift is not None:
        masses = [m * f for m, f in zip(masses, drift)]
    kls = [grid_kl(densities[i], densities[0]) for i in range(1, n + 1)]
    entropy_term = grid_entropy(densities[0])
    prov = {
        "t": t,
        "raw_masses": masses,
        "paper_literal_jacobian": paper_literal_jacobian,
        "grid_lo": box.lo.tolist(),
        "grid_hi": box.hi.tolist(),
        "grid_cells": box.n.tolist(),
    }
    return _assemble_report(kls, entropy_term, "grid", normalization, t=t, provenance=prov)


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
    avg_normalization: str = "paper",
    **method_kwargs,
) -> SweepTable:
    """Redundancy across noise levels, with the noise-scaling annotations.

    Rows are stored in increasing eps order whatever the input order. For
    constant sigma each row is annotated with the implied unit-noise
    redundancy r + d log2(eps) (constant across rows exactly when the
    closed-form scaling law holds), and each adjacent pair records whether
    the claimed nondecrease of r in eps holds on the data.
    """
    ordered = _sorted_strictly(eps_list, "eps_list")
    if any(e <= 0.0 for e in ordered):
        raise DomainError("eps_list entries must be positive")
    constant = isinstance(sys.sigma, ConstantDiffusion)
    reports = []
    for row, eps in enumerate(ordered):
        reports.append(
            systemic_redundancy(
                sys,
                gains,
                eps,
                method,
                seed=derived_seed(seed, row),
                avg_normalization=avg_normalization,
                **method_kwargs,
            )
        )
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
    avg_normalization: str = "paper",
    paper_literal_jacobian: bool = False,
) -> SweepTable:
    """Flow redundancy r_t across times, optionally compared against the
    stationary measure at a reference noise level; ``paper_literal_jacobian``
    only adds each row's literal mass drift to its provenance."""
    ordered = _sorted_strictly(t_list, "t_list")
    if ordered[0] < 0.0:
        raise DomainError("t_list entries must be nonnegative")
    reports = []
    for t in ordered:
        reports.append(
            liouville_redundancy(
                sys,
                gains,
                rho0,
                t,
                paper_literal_jacobian=paper_literal_jacobian,
                avg_normalization=avg_normalization,
            )
        )
    r_ref = None
    if reference_eps is not None and isinstance(sys.sigma, ConstantDiffusion):
        r_ref = systemic_redundancy(
            sys, gains, reference_eps, "closed_form", avg_normalization=avg_normalization
        ).r
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
