import math
import re

import numpy as np
import pytest

import redunquant as rq
from redunquant.errors import (
    DimensionError,
    DomainError,
    NotReliableError,
    NumericalError,
    UnsupportedDiffusionError,
)
from redunquant.info_measures import _grid_kl_and_left_out, grid_entropy
from redunquant.redundancy_analysis import _direction

from .conftest import eccentric_plant, random_grid_start, random_system, uniform_start
from .oracles import diagonal_pullback_kl_bits, entropy_quad_bits, kl_quad_bits, normal_pdf

# closed-form values for the scalar two-channel configuration
# (stationary variances eps^2/6 nominal, eps^2/2 under either outage),
# cross-checked against the quadrature oracles in oracles.py:
#   kl_quad_bits(normal_pdf(0, 0.005), normal_pdf(0, 1/600), -1, 1)
#       -> 0.6502137905283851
#   entropy_quad_bits(normal_pdf(0, 1/600), -0.6, 0.6)
#       -> -2.567313760067299
R_SCALAR_EPS_01 = 2.8924206553314917
R_SCALAR_EPS_1 = -0.4295074395558702
KL_SCALAR = 0.6502137905283851
ENTROPY_SCALAR_EPS_01 = -2.5673137600672993
# flow values for rho0 = N(0,1): r_0 = -H(N(0,1)); at t = 0.5 the modes have
# variances e^{-1} (outage) and e^{-3} (nominal), giving
#   kl_quad_bits(normal_pdf(0, e^-1), normal_pdf(0, e^-3), -7.5, 7.5)
#       -> 3.1660347340553545
R_FLOW_T0 = -2.047095585180641
R_FLOW_T05 = 1.6999643431804814


def _fast_outage_plant():
    """d=1 loop A = -3 with two unit channels of gain 1: the nominal loop is
    -1 and each outage loop -2, so outages contract faster than the nominal
    loop and a compact start keeps finite flow KLs."""
    system = rq.MultiChannelSystem([[-3.0]], [[[1.0]], [[1.0]]], rq.ConstantDiffusion([[1.0]]))
    return system, rq.GainSet([[[1.0]], [[1.0]]])


def _sampled_normal() -> rq.GridDensity:
    """N(0, 1) sampled at the centres of 2001 cells on [-8, 8]."""
    box = rq.Box([-8.0], [8.0], [2001])
    g0 = rq.GaussianDensity([0.0], [[1.0]])
    return rq.GridDensity.from_unnormalized(box, g0.pdf(box.center_points()).reshape(tuple(box.n)))


def _contracting_plane():
    """d=2 plant A = -2I, B = [I, I], K = [I, 0]: the nominal loop is -I,
    outage 1 is -2I and outage 2 equals the nominal loop."""
    eye = np.eye(2)
    system = rq.MultiChannelSystem(-2.0 * eye, [eye, eye], rq.ConstantDiffusion(eye))
    return system, rq.GainSet([eye, np.zeros((2, 2))])


class TestSystemicRedundancy:
    def test_scalar_closed_form_small_noise(self, scalar_two_channel):
        system, gains = scalar_two_channel
        report = rq.systemic_redundancy(system, gains, 0.1)
        assert report.kl_per_channel == pytest.approx((KL_SCALAR, KL_SCALAR), abs=1e-12)
        assert report.avg_term == pytest.approx(KL_SCALAR / 2.0, abs=1e-12)
        assert report.entropy_term == pytest.approx(ENTROPY_SCALAR_EPS_01, abs=1e-12)
        assert report.r == pytest.approx(R_SCALAR_EPS_01, abs=1e-9)
        assert report.r == report.avg_term - report.entropy_term  # exact identity
        assert report.method == "closed_form"
        assert report.epsilon == 0.1

    def test_scalar_closed_form_unit_noise(self, scalar_two_channel):
        system, gains = scalar_two_channel
        report = rq.systemic_redundancy(system, gains, 1.0)
        assert report.r == pytest.approx(R_SCALAR_EPS_1, abs=1e-9)

    def test_quadrature_cross_check(self, scalar_two_channel):
        kl = kl_quad_bits(normal_pdf(0, 0.005), normal_pdf(0, 1.0 / 600.0), -1, 1)
        entropy = entropy_quad_bits(normal_pdf(0, 1.0 / 600.0), -0.6, 0.6)
        assert kl / 2.0 - entropy == pytest.approx(R_SCALAR_EPS_01, abs=1e-8)

    def test_unreliable_gains_raise(self):
        system = rq.MultiChannelSystem(
            [[1.0]], [[[1.0]]], rq.ConstantDiffusion([[1.0]])
        )
        stabilizing_only = rq.GainSet([[[-2.0]]])  # outage leaves A = 1 unstable
        with pytest.raises(NotReliableError) as err:
            rq.systemic_redundancy(system, stabilizing_only, 0.1)
        assert err.value.report is not None

    def test_closed_form_needs_constant_sigma(self):
        system = rq.MultiChannelSystem(
            [[-1.0]], [[[1.0]], [[1.0]]], rq.DiagAffineDiffusion([1.0], [0.5])
        )
        gains = rq.GainSet([[[0.0]], [[0.0]]])
        with pytest.raises(UnsupportedDiffusionError):
            rq.systemic_redundancy(system, gains, 0.5, "closed_form")

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        system = random_system(rng, 2, 3, input_dims=[1, 1, 1])
        gains = rq.synthesize_gains(system)
        report = rq.systemic_redundancy(system, gains, 0.3)
        perm = [2, 0, 1]
        system_p = rq.MultiChannelSystem(
            system.A, [system.B[i] for i in perm], system.sigma
        )
        gains_p = rq.GainSet([gains.K[i] for i in perm])
        report_p = rq.systemic_redundancy(system_p, gains_p, 0.3)
        assert report_p.kl_per_channel == pytest.approx(
            tuple(report.kl_per_channel[i] for i in perm), abs=1e-12
        )
        assert report_p.r == pytest.approx(report.r, abs=1e-12)

    def test_grid_method_matches_closed_form(self, scalar_two_channel):
        system, gains = scalar_two_channel
        grid = rq.systemic_redundancy(system, gains, 0.1, "grid")
        assert grid.r == pytest.approx(R_SCALAR_EPS_01, abs=5e-3)
        assert grid.method == "grid"
        assert all(math.isfinite(k) for k in grid.kl_per_channel)

    def test_monte_carlo_method_small(self, scalar_two_channel):
        system, gains = scalar_two_channel
        report = rq.systemic_redundancy(
            system, gains, 0.1, "monte_carlo", seed=5, n_paths=20_000,
            horizon=15.0, dt=5e-3, hist_cells=48,
        )
        assert report.r == pytest.approx(R_SCALAR_EPS_01, abs=0.15)
        assert report.provenance["mode_seeds"][0] != report.provenance["mode_seeds"][1]

    def test_monte_carlo_sampler_follows_sigma_type(self, scalar_two_channel):
        system, gains = scalar_two_channel
        exact = rq.systemic_redundancy(system, gains, 0.1, "monte_carlo", seed=3, n_paths=2000)
        assert exact.provenance["sampler"] == "exact_endpoint"
        affine = rq.MultiChannelSystem(
            [[1.0]], [[[1.0]], [[1.0]]], rq.DiagAffineDiffusion([1.0], [0.5])
        )
        stepped = rq.systemic_redundancy(
            affine, gains, 0.1, "monte_carlo", seed=3, n_paths=200, horizon=5.0, dt=1e-2
        )
        assert stepped.provenance["sampler"] == "euler_two_point"
        for report in (exact, stepped):
            se = report.provenance["standard_error"]
            assert len(se["kl_per_channel"]) == 2
            assert all(v > 0.0 for v in (*se["kl_per_channel"], se["entropy"], se["r"]))

    def test_monte_carlo_standard_error_shrinks_with_paths(self, scalar_two_channel):
        system, gains = scalar_two_channel
        se = [
            rq.systemic_redundancy(system, gains, 0.1, "monte_carlo", seed=8, n_paths=n)
            .provenance["standard_error"]["r"]
            for n in (2_000, 50_000)
        ]
        # sampling noise falls like 1/sqrt(n): a factor 5 here
        assert 2.0 < se[0] / se[1] < 12.0

    @pytest.mark.parametrize("n_paths", [19, 20])
    def test_monte_carlo_standard_error_needs_two_paths_per_shard(self, scalar_two_channel, n_paths):
        system, gains = scalar_two_channel
        report = rq.systemic_redundancy(system, gains, 0.1, "monte_carlo", seed=4, n_paths=n_paths)
        se = report.provenance["standard_error"]
        values = [*se["kl_per_channel"], se["entropy"], se["r"]]
        assert len(values) == 4
        if n_paths < 20:
            assert all(math.isnan(v) for v in values)
        else:
            assert all(math.isfinite(v) for v in values)

    def test_finite_kl_for_reliable_constant_sigma(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            system = random_system(rng, 2, 2)
            try:
                gains = rq.synthesize_gains(system)
            except (rq.SynthesisFailedError, rq.NumericalError):
                continue
            report = rq.systemic_redundancy(system, gains, 0.5)
            assert all(math.isfinite(k) and k >= 0.0 for k in report.kl_per_channel)

    def test_solver_kl_is_infinite_where_reference_is_unresolvable(self):
        # q puts 1e-2 of its mass, more than the 1e-3 allowed, on a cell where
        # p is exactly 0; cells where p is tiny but positive are kept
        box = rq.Box([0.0], [4.0], [4])
        p = rq.GridDensity(box, [1.0 - 2e-14, 1e-14, 1e-14, 0.0])
        q = rq.GridDensity(box, [0.99, 0.0, 0.0, 0.01])
        kl, left_out = _grid_kl_and_left_out(q, p)
        assert kl == math.inf
        assert left_out == pytest.approx(1e-2)
        q = rq.GridDensity(box, [0.98, 0.01, 0.01, 0.0])
        assert _grid_kl_and_left_out(q, p)[1] == 0.0

    @pytest.mark.parametrize("n_cells", [201, 801])
    def test_bundled_grid_r_matches_closed_form(self, scalar_two_channel, n_cells):
        # the reference's tail, below 1e-23 of its peak at the box edge,
        # carries ~1.2e-4 bits of r; a cut at 1e-13 of the peak lost it
        system, gains = scalar_two_channel
        grid = rq.systemic_redundancy(system, gains, 0.1, "grid", grid_cells=n_cells)
        assert grid.r == pytest.approx(R_SCALAR_EPS_01, abs=1e-7)
        assert grid.provenance["kl_mass_where_reference_underflows"] == [0.0, 0.0]

    def test_grid_r_finite_where_reference_tail_is_far_below_its_peak(self):
        # draw 9 of random_system(default_rng(11), 2, 2), counting the draws
        # where synthesis fails: more than 1e-3 of an outage law's mass sits
        # where the reference is below 1e-13 of its peak, and those cells
        # are solved accurately enough to count
        rng = np.random.default_rng(11)
        for _ in range(10):
            system = random_system(rng, 2, 2)
        gains = rq.synthesize_gains(system)
        grid = rq.systemic_redundancy(system, gains, 0.3, "grid", grid_cells=201)
        assert grid.r == pytest.approx(rq.systemic_redundancy(system, gains, 0.3).r, abs=2e-3)
        assert all(m <= 1e-3 for m in grid.provenance["kl_mass_where_reference_underflows"])


def _full_s_plane():
    """d=2, two unit channels, S S^T with a nonzero off-diagonal entry."""
    system = rq.MultiChannelSystem(
        [[-0.5, 0.4], [-0.3, -0.6]],
        [[[1.0], [0.0]], [[0.0], [1.0]]],
        rq.ConstantDiffusion([[1.0, 0.0], [0.5, 0.8]]),
    )
    return system, rq.GainSet([[[-1.0, 0.0]], [[0.0, -1.0]]])


class TestGridFrame:
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_eccentric_rotated_plant_full_noise(self, seed):
        # a full S S^T gives the x-frame operator central cross-diffusion
        # terms, and these plants' densities go negative there at 101^2; in
        # the eigenbasis of S S^T the operator is an M-matrix
        system, gains = eccentric_plant(seed, diagonal=False)
        grid = rq.systemic_redundancy(system, gains, 0.1, "grid")
        assert grid.provenance["grid_cells"] == [101, 101]
        assert "grid_frame" in grid.provenance
        assert grid.r == pytest.approx(rq.systemic_redundancy(system, gains, 0.1).r, abs=0.05)

    def test_frame_is_the_eigenbasis_of_the_diffusion(self):
        system, gains = _full_s_plane()
        frame = np.array(rq.systemic_redundancy(system, gains, 0.3, "grid").provenance["grid_frame"])
        assert frame @ frame.T == pytest.approx(np.eye(2), abs=1e-12)
        D = frame @ system.sigma.diffusion_matrix() @ frame.T
        assert abs(D[0, 1]) <= 1e-12 * np.abs(D).max()

    @pytest.mark.parametrize(
        "system, gains, eps",
        [
            (*eccentric_plant(4), 0.1),  # diagonal S; eigh would swap its axes
            (
                rq.MultiChannelSystem(
                    eccentric_plant(4)[0].A, [np.zeros((2, 1))],
                    rq.DiagAffineDiffusion([0.7, 1.3], [0.5, 2.0]),
                ),
                rq.GainSet([np.zeros((1, 2))]),
                0.3,
            ),
            (
                rq.MultiChannelSystem([[1.0]], [[[1.0]], [[1.0]]], rq.ConstantDiffusion([[1.0]])),
                rq.GainSet([[[-2.0]], [[-2.0]]]),
                0.1,
            ),
        ],
        ids=["diagonal_S", "diag_affine", "d1"],
    )
    def test_diagonal_diffusion_stays_in_x(self, system, gains, eps):
        report = rq.systemic_redundancy(system, gains, eps, "grid", grid_cells=41)
        assert "grid_frame" not in report.provenance
        prov = report.provenance
        box = rq.Box(prov["grid_lo"], prov["grid_hi"], prov["grid_cells"])
        laws = [
            rq.solve_stationary_fp_grid(system, gains, j, eps, box=box)
            for j in range(system.n_channels + 1)
        ]
        kls = tuple(_grid_kl_and_left_out(q, laws[0])[0] for q in laws[1:])
        assert report.kl_per_channel == kls
        assert report.entropy_term == grid_entropy(laws[0])

    def test_configured_box_maps_to_bounding_box_of_rotated_corners(self):
        system, gains = _full_s_plane()
        lo, hi = np.array([-1.0, -0.5]), np.array([1.5, 0.8])
        prov = rq.systemic_redundancy(
            system, gains, 0.1, "grid", grid_box=rq.Box(lo, hi, [41, 37])
        ).provenance
        corners = np.array([[a, b] for a in (lo[0], hi[0]) for b in (lo[1], hi[1])])
        y = corners @ np.array(prov["grid_frame"]).T
        assert prov["grid_cells"] == [41, 37]
        assert np.all(y >= prov["grid_lo"]) and np.all(y <= prov["grid_hi"])
        assert y.min(axis=0).tolist() == prov["grid_lo"]
        assert y.max(axis=0).tolist() == prov["grid_hi"]

    @pytest.mark.parametrize("n, cells", [([41, 41], 801), ([41, 37], 41)], ids=["both", "one"])
    def test_box_and_cell_count_that_differ_raise_before_rotating(self, monkeypatch, n, cells):
        # a grid_box fixes the cell counts, so a grid_cells that differs on
        # any axis is rejected, before the box is read in the diffusion frame
        system, gains = _full_s_plane()
        monkeypatch.setattr(
            rq.redundancy_analysis, "_diffusion_frame", lambda *a: pytest.fail("rotated")
        )
        box = rq.Box([-1.0, -1.0], [1.0, 1.0], n)
        message = rf"grid_box has \[{n[0]}, {n[1]}\] cells per axis but grid_cells = {cells}"
        with pytest.raises(DomainError, match=message):
            rq.systemic_redundancy(system, gains, 0.3, "grid", grid_box=box, grid_cells=cells)

    def test_box_and_cell_count_that_agree_are_one_grid(self, scalar_two_channel):
        system, gains = scalar_two_channel
        box = rq.Box([-0.5], [0.5], [51])
        both = rq.systemic_redundancy(system, gains, 0.1, "grid", grid_box=box, grid_cells=51)
        assert both.r == rq.systemic_redundancy(system, gains, 0.1, "grid", grid_box=box).r
        assert both.provenance["grid_cells"] == [51]

    def test_epsilon_sweep_matches_closed_form_per_row(self):
        system, gains = _full_s_plane()
        grid = rq.epsilon_sweep(system, gains, [0.1, 0.3], "grid")
        closed = rq.epsilon_sweep(system, gains, [0.1, 0.3])
        for g, c in zip(grid.reports, closed.reports):
            assert "grid_frame" in g.provenance
            assert g.kl_per_channel == pytest.approx(c.kl_per_channel, abs=1e-2)
            assert g.r == pytest.approx(c.r, abs=1e-2)


class TestLiouvilleRedundancy:
    def test_t0_equals_negative_entropy(self, scalar_two_channel):
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        report = rq.liouville_redundancy(system, gains, rho0, 0.0)
        assert report.kl_per_channel == pytest.approx((0.0, 0.0), abs=1e-12)
        assert report.r == pytest.approx(R_FLOW_T0, abs=1e-9)
        assert report.t == 0.0 and report.epsilon is None

    def test_scalar_value_at_half(self, scalar_two_channel):
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        report = rq.liouville_redundancy(system, gains, rho0, 0.5)
        assert report.r == pytest.approx(R_FLOW_T05, abs=1e-9)

    def test_growth_at_larger_time(self, scalar_two_channel):
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        r_half = rq.liouville_redundancy(system, gains, rho0, 0.5).r
        r_two = rq.liouville_redundancy(system, gains, rho0, 2.0).r
        assert r_two > r_half

    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_grid_path_matches_gaussian_path(self, t):
        system, gains = _fast_outage_plant()
        closed = rq.liouville_redundancy(system, gains, rq.GaussianDensity([0.0], [[1.0]]), t)
        assert closed.method == "closed_form"
        numeric = rq.liouville_redundancy(system, gains, _sampled_normal(), t)
        assert numeric.method == "grid"
        assert numeric.r == pytest.approx(closed.r, abs=1e-5)
        assert numeric.kl_per_channel == pytest.approx(closed.kl_per_channel, abs=1e-5)

    def test_unsupported_start_rejected(self, scalar_two_channel):
        system, gains = scalar_two_channel
        samples = rq.simulate_sde(system, gains, 0, 0.1, 1.0, 0.01, 10, seed=1)
        with pytest.raises(DomainError, match="unsupported initial density type"):
            rq.liouville_redundancy(system, gains, samples, 0.3)

    def test_uniform_start_at_late_time_gives_infinite_r(self, scalar_two_channel):
        # each outage loop (-1) contracts more slowly than the nominal one (-3):
        # M_i = e^{2t} maps the start's box far outside itself
        system, gains = scalar_two_channel
        report = rq.liouville_redundancy(system, gains, uniform_start([-1.0], [1.0]), 25.0)
        assert report.r == math.inf

    def test_truncated_start_gives_honest_sentinel(self, scalar_two_channel):
        # a grid-sampled start has compact support; the failure-mode flow
        # carries mass outside the nominal flow's support, so the KL is
        # genuinely infinite
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        box = rq.Box([-8.0], [8.0], [4001])
        sampled = rq.GridDensity.from_unnormalized(
            box, rho0.pdf(box.center_points()).reshape(tuple(box.n))
        )
        numeric = rq.liouville_redundancy(system, gains, sampled, 0.3)
        assert numeric.kl_per_channel == (math.inf, math.inf)
        assert numeric.r == math.inf

    def test_underflowed_pushforward_gives_infinite_r(self, scalar_two_channel):
        # the nominal pushforward variance e^{-6t} is subnormal at t = 120
        # and 0.0 at t = 150
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        late = rq.liouville_redundancy(system, gains, rho0, 120.0)
        assert late.r == pytest.approx(1.0434e208, rel=1e-3)
        gone = rq.liouville_redundancy(system, gains, rho0, 150.0)
        assert gone.kl_per_channel == (math.inf, math.inf)
        assert gone.entropy_term == -math.inf
        assert gone.r == math.inf

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_invalid_time_rejected(self, scalar_two_channel, t):
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        with pytest.raises(DomainError, match="time must be"):
            rq.liouville_redundancy(system, gains, rho0, t)


class TestGridStartFlow:
    """r_t from a GridDensity start, computed in the start's own frame."""

    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 5.0, 10.0])
    def test_uniform_start_on_contracting_plane_is_exact(self, t):
        # M_1 = e^{-t} I, M_2 = I: KL_1 = 2t nats, KL_2 = 0, H_t = log2(4) - 2t nats;
        # KL_2 is 0 exactly, where a rounded M_2 = I would push the box's faces
        # out by an ulp and give +inf
        system, gains = _contracting_plane()
        report = rq.liouville_redundancy(system, gains, uniform_start([-1.0, -1.0], [1.0, 1.0]), t)
        kl_1 = 2.0 * t / math.log(2.0)
        assert report.kl_per_channel[0] == pytest.approx(kl_1, rel=1e-14)
        assert report.kl_per_channel[1] == 0.0
        assert report.entropy_term == pytest.approx(2.0 - kl_1, rel=1e-14)
        assert report.r == pytest.approx(kl_1 / 4.0 - 2.0 + kl_1, rel=1e-14)
        assert report.provenance["quadrature_tol"] == [0.0, 0.0]

    def test_uniform_start_pinned_values(self):
        system, gains = _contracting_plane()
        start = uniform_start([-1.0, -1.0], [1.0, 1.0])
        r = [rq.liouville_redundancy(system, gains, start, t).r for t in (0.0, 0.1, 10.0)]
        assert r[0] == -2.0
        assert r[1] == pytest.approx(-1.639326, abs=1e-6)
        assert r[2] == pytest.approx(34.067376, abs=1e-6)

    def test_outage_equal_to_nominal_on_a_non_normal_loop(self):
        # the nominal loop A + I/2 has eigenvalues -0.5 and -5.9: at t = 5,
        # solve(exp(A_0 t), exp(A_0 t)) misses I by 1.8e-5; outage 1 leaves
        # A, so M_1 = e^{-t/2} I and KL_1 = t nats
        eye = np.eye(2)
        A = np.array([[-1.86, -1.4], [-2.8, -5.56]])
        system = rq.MultiChannelSystem(A, [eye, eye], rq.ConstantDiffusion(eye))
        gains = rq.GainSet([0.5 * eye, np.zeros((2, 2))])
        start = uniform_start([-1.0, -1.0], [1.0, 1.0])
        report = rq.liouville_redundancy(system, gains, start, 5.0)
        assert report.kl_per_channel == pytest.approx((5.0 / math.log(2.0), 0.0), rel=1e-12)
        assert report.kl_per_channel[1] == 0.0

    @pytest.mark.parametrize(
        "start",
        [
            lambda: random_grid_start(5, (4, 4)),
            _sampled_normal,
            lambda: uniform_start([0.2], [0.7]),
        ],
        ids=["4x4", "sampled_normal", "uniform"],
    )
    def test_time_zero_gives_negative_entropy_exactly(self, start):
        rho0 = start()
        system, gains = _contracting_plane() if rho0.dim == 2 else _fast_outage_plant()
        report = rq.liouville_redundancy(system, gains, rho0, 0.0)
        assert report.kl_per_channel == (0.0, 0.0)
        assert report.provenance["quadrature_tol"] == [0.0, 0.0]
        assert report.r == -grid_entropy(rho0)

    @pytest.mark.parametrize("t", [0.05, 0.1, 0.3, 0.5, 1.0, 10.0])
    def test_4x4_start_within_reported_tolerance_of_exact(self, t):
        # M_1 = e^{-t} I is diagonal, so the oracle's interval overlaps are exact;
        # 1e-12 covers the round-off of the two sums
        system, gains = _contracting_plane()
        rho0 = random_grid_start(5, (4, 4))
        report = rq.liouville_redundancy(system, gains, rho0, t)
        exact = diagonal_pullback_kl_bits(rho0, [math.exp(-t)] * 2)
        tol = report.provenance["quadrature_tol"]
        assert abs(report.kl_per_channel[0] - exact) <= tol[0] + 1e-12
        assert report.kl_per_channel[1] == 0.0 and tol[1] == 0.0
        assert tol[0] < 0.05

    def test_one_cell_start_in_three_dimensions(self):
        eye = np.eye(3)
        system = rq.MultiChannelSystem(-2.0 * eye, [eye, eye], rq.ConstantDiffusion(eye))
        gains = rq.GainSet([eye, np.zeros((3, 3))])
        report = rq.liouville_redundancy(system, gains, uniform_start(-np.ones(3), np.ones(3)), 0.7)
        kl_1 = 3.0 * 0.7 / math.log(2.0)
        assert report.kl_per_channel == pytest.approx((kl_1, 0.0), rel=1e-14)
        assert report.entropy_term == pytest.approx(3.0 - kl_1, rel=1e-14)

    def test_slow_outage_from_offset_start_is_infinite(self, scalar_two_channel):
        system, gains = scalar_two_channel
        report = rq.liouville_redundancy(system, gains, uniform_start([0.2], [0.7]), 25.0)
        assert report.kl_per_channel == (math.inf, math.inf)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_seeded_plane_from_offset_start_is_infinite(self, seed):
        rng = np.random.default_rng(seed)
        eye = np.eye(2)
        A = rng.uniform(-1.0, 1.0, (2, 2))
        gains = rq.GainSet([-2.0 * eye + 0.1 * rng.standard_normal((2, 2)) for _ in range(2)])
        system = rq.MultiChannelSystem(A, [eye, eye], rq.ConstantDiffusion(eye))
        report = rq.liouville_redundancy(system, gains, uniform_start([0.2, 0.2], [0.7, 0.7]), 2.0)
        assert report.r == math.inf

    def test_underflowed_nominal_flow_raises(self, scalar_two_channel):
        # the nominal flow map e^{-3t} is 0.0 at t = 300, so M_i cannot be formed
        system, gains = scalar_two_channel
        with pytest.raises(NumericalError, match="singular in floating point"):
            rq.liouville_redundancy(system, gains, uniform_start([-1.0], [1.0]), 300.0)

    def test_provenance_layout(self):
        system, gains = _fast_outage_plant()
        gaussian = rq.liouville_redundancy(system, gains, rq.GaussianDensity([0.0], [[1.0]]), 0.5)
        grid = rq.liouville_redundancy(system, gains, uniform_start([-1.0], [1.0]), 0.5)
        assert list(grid.provenance) == [*gaussian.provenance, "quadrature_tol"]

    def test_time_sweep_rows_match_single_calls(self):
        system, gains = _contracting_plane()
        rho0 = random_grid_start(5, (4, 4))
        table = rq.time_sweep(system, gains, rho0, [0.0, 0.3, 1.0])
        for t, row in zip(table.values, table.reports):
            single = rq.liouville_redundancy(system, gains, rho0, t)
            assert row.r == single.r and row.provenance == single.provenance

    @pytest.mark.parametrize("start_dim", [1, 2])
    def test_start_dimension_must_match_state(self, scalar_two_channel, start_dim):
        if start_dim == 2:
            (system, gains), rho0 = scalar_two_channel, uniform_start([-1.0, -1.0], [1.0, 1.0])
        else:
            (system, gains), rho0 = _contracting_plane(), uniform_start([-1.0], [1.0])
        message = "density dimension .* does not match state dimension"
        with pytest.raises(DimensionError, match=message):
            rq.liouville_redundancy(system, gains, rho0, 0.5)
        with pytest.raises(DimensionError, match=message):
            rq.time_sweep(system, gains, rho0, [0.0, 0.5])


class TestEpsilonSweep:
    def test_scaling_law_exact(self, scalar_two_channel):
        system, gains = scalar_two_channel
        table = rq.epsilon_sweep(system, gains, [1.0, 0.5])
        assert table.values == (0.5, 1.0)
        delta = table.reports[0].r - table.reports[1].r  # r(0.5) - r(1.0)
        assert delta == pytest.approx(1.0, abs=1e-9)

    def test_log_ten_shift(self, scalar_two_channel):
        system, gains = scalar_two_channel
        table = rq.epsilon_sweep(system, gains, [1.0, 0.1])
        delta = table.reports[0].r - table.reports[1].r
        assert delta == pytest.approx(math.log2(10.0), abs=1e-9)

    def test_kl_terms_invariant_in_eps(self, scalar_two_channel):
        system, gains = scalar_two_channel
        table = rq.epsilon_sweep(system, gains, [2.0, 1.0, 0.25, 0.03125])
        for report in table.reports:
            assert report.kl_per_channel == pytest.approx(
                (KL_SCALAR, KL_SCALAR), abs=1e-12
            )

    def test_claim_annotations_flag_decrease(self, scalar_two_channel):
        system, gains = scalar_two_channel
        table = rq.epsilon_sweep(system, gains, [1.0, 0.5, 0.25])
        assert table.notes["observed_r_direction"] == "nonincreasing"
        assert table.notes["claim_consistent_with_data"] is False
        for pair in table.pair_annotations:
            assert pair["claim_r_nondecreasing_in_eps_holds"] is False
            assert pair["scaling_law_residual"] == pytest.approx(0.0, abs=1e-9)
        implied = table.notes["implied_r_at_unit_noise"]
        assert max(implied) - min(implied) <= 1e-9

    @pytest.mark.parametrize(
        "values, direction",
        [
            ([1.0, math.inf, math.nan], "undetermined"),
            ([1.0, 2.0, 2.0], "nondecreasing"),
            ([3.0, math.inf, 2.0, 2.0], "nonincreasing"),
            ([1.5, 1.5, 1.5], "constant"),
            ([1.0, 3.0, 2.0], "nonmonotone"),
        ],
        ids=["undetermined", "nondecreasing", "nonincreasing", "constant", "nonmonotone"],
    )
    def test_observed_direction(self, values, direction):
        # non-finite r values are left out of the comparison
        assert _direction(values) == direction

    def test_input_order_does_not_matter(self, scalar_two_channel):
        system, gains = scalar_two_channel
        decreasing = rq.epsilon_sweep(system, gains, [1.0, 0.5, 0.25])
        increasing = rq.epsilon_sweep(system, gains, [0.25, 0.5, 1.0])
        assert decreasing.values == increasing.values
        assert [r.r for r in decreasing.reports] == [r.r for r in increasing.reports]

    def test_rejects_duplicates_and_nonpositive(self, scalar_two_channel):
        system, gains = scalar_two_channel
        with pytest.raises(DomainError):
            rq.epsilon_sweep(system, gains, [0.5, 0.5])
        with pytest.raises(DomainError):
            rq.epsilon_sweep(system, gains, [0.5, -1.0])


class TestTimeSweep:
    def test_single_time_zero(self, scalar_two_channel):
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        table = rq.time_sweep(system, gains, rho0, [0.0])
        assert len(table.reports) == 1
        assert table.reports[0].r == pytest.approx(R_FLOW_T0, abs=1e-9)

    def test_scalar_pair(self, scalar_two_channel):
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        table = rq.time_sweep(system, gains, rho0, [0.0, 0.5])
        assert table.reports[0].r == pytest.approx(R_FLOW_T0, abs=1e-3)
        assert table.reports[1].r == pytest.approx(R_FLOW_T05, abs=1e-3)

    def test_entropy_transport_column(self, scalar_two_channel):
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        h0 = rq.gaussian_entropy(rho0)
        table = rq.time_sweep(system, gains, rho0, [0.0, 0.5, 1.0, 2.0])
        for t, report in zip(table.values, table.reports):
            expected = h0 + (-3.0) * t * math.log2(math.e)
            assert report.entropy_term == pytest.approx(expected, abs=1e-9)

    def test_reference_comparison_annotation(self, scalar_two_channel):
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        table = rq.time_sweep(system, gains, rho0, [0.0, 0.5, 2.0], reference_eps=0.1)
        assert table.notes["r_reference"] == pytest.approx(R_SCALAR_EPS_01, abs=1e-9)
        flags = table.notes["claim_holds_per_row"]
        assert flags[0] is True  # r_0 < r_(sigma, 0.1)
        assert flags[2] is False  # the flow value overtakes the claim


class TestOneVerdictPerSweep:
    """A sweep verifies reliability once, then evaluates every row."""

    EPS = [0.05, 0.1, 0.2, 0.4]
    TIMES = [0.0, 0.5, 1.0, 2.0]

    @pytest.fixture
    def verdicts(self, monkeypatch):
        calls = []
        verify = rq.redundancy_analysis.verify_reliable

        def counting(sys, gains):
            calls.append(gains)
            return verify(sys, gains)

        monkeypatch.setattr(rq.redundancy_analysis, "verify_reliable", counting)
        return calls

    def test_epsilon_sweep(self, scalar_two_channel, verdicts):
        system, gains = scalar_two_channel
        table = rq.epsilon_sweep(system, gains, self.EPS)
        assert len(verdicts) == 1
        for eps, report in zip(self.EPS, table.reports):
            single = rq.systemic_redundancy(system, gains, eps)
            assert (report.kl_per_channel, report.r) == (single.kl_per_channel, single.r)

    @pytest.mark.parametrize("reference_eps", [None, 0.1])
    def test_time_sweep(self, scalar_two_channel, verdicts, reference_eps):
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        table = rq.time_sweep(system, gains, rho0, self.TIMES, reference_eps=reference_eps)
        assert len(verdicts) == 1
        for t, report in zip(self.TIMES, table.reports):
            single = rq.liouville_redundancy(system, gains, rho0, t)
            assert (report.kl_per_channel, report.r) == (single.kl_per_channel, single.r)
        if reference_eps is not None:
            assert table.notes["r_reference"] == rq.systemic_redundancy(system, gains, 0.1).r

    def test_unreliable_gains_raise_before_any_law(self, monkeypatch):
        system = rq.MultiChannelSystem([[1.0]], [[[1.0]]], rq.ConstantDiffusion([[1.0]]))
        stabilizing_only = rq.GainSet([[[-2.0]]])  # outage leaves A = 1 unstable
        for name in ("stationary_gaussian", "pushforward_gaussian"):
            monkeypatch.setattr(
                rq.redundancy_analysis, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran")
            )
        with pytest.raises(NotReliableError):
            rq.epsilon_sweep(system, stabilizing_only, self.EPS)
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        with pytest.raises(NotReliableError):
            rq.time_sweep(system, stabilizing_only, rho0, self.TIMES, reference_eps=0.1)


def _flow_row(system, gains):
    return rq.liouville_redundancy(system, gains, rq.GaussianDensity([0.0], [[1.0]]), 0.0)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda system, gains: rq.systemic_redundancy(system, gains, 0.0),
            DomainError, "eps must be a positive real", id="eps_zero",
        ),
        pytest.param(
            lambda system, gains: rq.systemic_redundancy(system, gains, -0.1, "grid"),
            DomainError, "eps must be a positive real", id="eps_negative_grid",
        ),
        pytest.param(
            lambda system, gains: rq.systemic_redundancy(system, gains, 0.1, "exact"),
            DomainError, "method must be one of", id="method",
        ),
        pytest.param(
            lambda system, gains: rq.systemic_redundancy(
                system, gains, 0.1, "monte_carlo", seed=1.5
            ),
            DomainError, "seed must be an integer, got 1.5", id="fractional_seed",
        ),
        pytest.param(
            lambda system, gains: rq.systemic_redundancy(
                system, gains, 0.1, "monte_carlo", seed=-1
            ),
            DomainError, "seed must be nonnegative", id="negative_seed",
        ),
        pytest.param(
            lambda system, gains: rq.systemic_redundancy(
                system, gains, 0.1, "monte_carlo", seed=True
            ),
            DomainError, "seed must be an integer, got True", id="bool_seed",
        ),
        pytest.param(
            lambda system, gains: rq.systemic_redundancy(
                system, gains, 0.1, "monte_carlo", n_paths=200.0
            ),
            DomainError, "n_paths must be an integer, got 200.0", id="float_paths",
        ),
        pytest.param(
            lambda system, gains: rq.epsilon_sweep(system, gains, [0.1], "monte_carlo", seed=1.5),
            DomainError, "seed must be an integer, got 1.5", id="sweep_fractional_seed",
        ),
        pytest.param(
            lambda system, gains: rq.epsilon_sweep(system, gains, []),
            DomainError, "eps_list must be nonempty", id="empty_eps_list",
        ),
        pytest.param(
            lambda system, gains: rq.time_sweep(
                system, gains, rq.GaussianDensity([0.0], [[1.0]]), [-0.5, 1.0]
            ),
            DomainError, "t_list entries must be nonnegative", id="negative_time",
        ),
        pytest.param(
            lambda system, gains: rq.SweepTable(
                "t", (0.0, 1.0), (_flow_row(system, gains),), (), {}
            ),
            DimensionError, "one report per parameter value", id="sweep_lengths",
        ),
        pytest.param(
            lambda system, gains: rq.SweepTable(
                "t", (1.0, 0.0), (_flow_row(system, gains),) * 2, (), {}
            ),
            DomainError, "must be strictly increasing", id="sweep_order",
        ),
    ],
)
def test_typed_errors(scalar_two_channel, call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(*scalar_two_channel)


def test_monte_carlo_accepts_numpy_integers(scalar_two_channel):
    numpy_ints = rq.systemic_redundancy(
        *scalar_two_channel, 0.1, "monte_carlo", seed=np.int64(3), n_paths=np.uint16(64)
    )
    plain = rq.systemic_redundancy(*scalar_two_channel, 0.1, "monte_carlo", seed=3, n_paths=64)
    assert numpy_ints.r == plain.r
