import math

import numpy as np
import pytest

import redunquant as rq
from redunquant.errors import DomainError, NotReliableError, UnsupportedDiffusionError

from .conftest import random_system
from .oracles import entropy_quad_bits, kl_quad_bits, normal_pdf

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

    def test_mean_normalization(self, scalar_two_channel):
        system, gains = scalar_two_channel
        paper = rq.systemic_redundancy(system, gains, 0.1, avg_normalization="paper")
        mean = rq.systemic_redundancy(system, gains, 0.1, avg_normalization="mean")
        assert mean.avg_term == pytest.approx(2.0 * paper.avg_term, abs=1e-12)
        assert mean.r == pytest.approx(paper.r + paper.avg_term, abs=1e-12)

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
        assert stepped.provenance["sampler"] == "euler_stepped"
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

    def test_grid_path_matches_gaussian_path(self, scalar_two_channel):
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        closed = rq.liouville_redundancy(system, gains, rho0, 0.3)
        assert closed.method == "closed_form"

        class AnalyticStart:  # full-support evaluator that skips the closed path
            dim = 1

            def pdf(self, x):
                return rho0.pdf(x)

        numeric = rq.liouville_redundancy(
            system, gains, AnalyticStart(), 0.3, box=rq.Box([-8.0], [8.0], [2001])
        )
        assert numeric.method == "grid"
        assert numeric.r == pytest.approx(closed.r, abs=5e-3)

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
        numeric = rq.liouville_redundancy(system, gains, sampled, 0.3, grid_cells=2001)
        assert numeric.kl_per_channel == (math.inf, math.inf)
        assert numeric.r == math.inf

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_paper_literal_jacobian_records_mass_drift(self, scalar_two_channel, t):
        system, gains = scalar_two_channel
        rho0 = rq.GaussianDensity([0.0], [[1.0]])
        # the plant has trace +1; the nominal loop has trace -3 and either
        # outage loop -1, so the literal density of mode j integrates to
        # e^{(trace(A_j) - trace(A)) t}
        drift = np.exp(np.array([-4.0, -2.0, -2.0]) * t)
        plain = rq.liouville_redundancy(system, gains, rho0, t)
        literal = rq.liouville_redundancy(system, gains, rho0, t, paper_literal_jacobian=True)
        assert literal.method == "closed_form"
        assert literal.provenance["paper_literal_jacobian"] is True
        assert literal.provenance["raw_masses"] == pytest.approx(drift, rel=1e-12)
        assert literal.r == plain.r

        class AnalyticStart:  # full-support evaluator that skips the closed path
            dim = 1

            def pdf(self, x):
                return rho0.pdf(x)

        box = rq.Box([-8.0], [8.0], [2001])
        plain = rq.liouville_redundancy(system, gains, AnalyticStart(), t, box=box)
        literal = rq.liouville_redundancy(
            system, gains, AnalyticStart(), t, box=box, paper_literal_jacobian=True
        )
        assert literal.method == "grid"
        assert literal.provenance["paper_literal_jacobian"] is True
        assert literal.provenance["raw_masses"] == pytest.approx(
            np.array(plain.provenance["raw_masses"]) * drift, rel=1e-12
        )
        assert literal.r == plain.r


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
