import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redunquant as rq
from redunquant.errors import DimensionError, DomainError
from redunquant import liouville_flow
from redunquant.liouville_flow import flow_kl, pullback_kl

from .conftest import random_gains, random_grid_start, random_system, uniform_start
from .oracles import default_transport_box, diagonal_pullback_kl_bits, integrate_density


def _ou_single(a=-1.0):
    system = rq.MultiChannelSystem([[a]], [[[1.0]]], rq.ConstantDiffusion([[1.0]]))
    return system, rq.GainSet([[[0.0]]])


class TestPushforward:
    def test_time_zero_is_identity(self, scalar_two_channel):
        system, gains = scalar_two_channel
        g0 = rq.GaussianDensity([0.3], [[1.7]])
        out = rq.pushforward_gaussian(system, gains, 0, g0, 0.0)
        np.testing.assert_array_equal(out.mean, g0.mean)
        np.testing.assert_array_equal(out.cov, g0.cov)

    def test_scalar_variance_contraction(self):
        system, gains = _ou_single()
        out = rq.pushforward_gaussian(system, gains, 0, rq.GaussianDensity([0.0], [[1.0]]), np.log(2.0))
        assert out.cov[0, 0] == pytest.approx(0.25, rel=1e-12)

    def test_scalar_mean_transport(self):
        system, gains = _ou_single()
        out = rq.pushforward_gaussian(system, gains, 0, rq.GaussianDensity([1.0], [[1.0]]), 1.0)
        assert out.mean[0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    @given(seed=st.integers(0, 10_000), t1=st.floats(0.0, 0.75), t2=st.floats(0.0, 0.75))
    @settings(max_examples=25)
    def test_semigroup(self, seed, t1, t2):
        from .conftest import random_hurwitz

        rng = np.random.default_rng(seed)
        A = rng.uniform(-2.0, 2.0, (2, 2))
        system = rq.MultiChannelSystem(A, [np.eye(2)], rq.ConstantDiffusion(np.eye(2)))
        gains = rq.GainSet([random_hurwitz(rng, 2) - A])  # nominal loop is Hurwitz
        g0 = rq.GaussianDensity(rng.uniform(-1, 1, 2), np.eye(2) + 0.3 * np.ones((2, 2)))
        for mode in (0, 1):
            direct = rq.pushforward_gaussian(system, gains, mode, g0, t1 + t2)
            nested = rq.pushforward_gaussian(
                system, gains, mode, rq.pushforward_gaussian(system, gains, mode, g0, t1), t2
            )
            np.testing.assert_allclose(direct.mean, nested.mean, atol=1e-10)
            np.testing.assert_allclose(direct.cov, nested.cov, atol=1e-10)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(42)
        system, gains = _ou_single(-0.7)
        g0 = rq.GaussianDensity([0.5], [[2.0]])
        t = 0.8
        flowed = rq.pushforward_gaussian(system, gains, 0, g0, t)
        x0 = rng.normal(0.5, np.sqrt(2.0), 100_000)
        xt = x0 * np.exp(-0.7 * t)
        stat_err = flowed.cov[0, 0] * np.sqrt(2.0 / 100_000)
        assert abs(xt.var() - flowed.cov[0, 0]) < 3.0 * stat_err

    def test_entropy_transport_law(self):
        rng = np.random.default_rng(9)
        system = random_system(rng, 2, 2)
        gains = random_gains(rng, system)
        g0 = rq.GaussianDensity([0.0, 0.0], [[2.0, 0.3], [0.3, 1.0]])
        for mode in range(3):
            A_j = rq.closed_loop_matrix(system, gains, mode)
            for t in (0.0, 0.5, 2.0):
                flowed = rq.pushforward_gaussian(system, gains, mode, g0, t)
                expected = rq.gaussian_entropy(g0) + np.trace(A_j) * t * np.log2(np.e)
                assert rq.gaussian_entropy(flowed) == pytest.approx(expected, abs=1e-9)


class TestTransportedPdf:
    def test_time_zero(self, scalar_two_channel):
        system, gains = scalar_two_channel
        rho0 = uniform_start([-1.0], [1.0])
        for x in (-0.5, 0.0, 0.99, 1.5):
            assert rq.transported_pdf(system, gains, 0, rho0, 0.0, [x])[0] == rho0.pdf([x])

    def test_uniform_transport_closed_form(self):
        system, gains = _ou_single()
        rho0 = uniform_start([-1.0], [1.0])
        value = rq.transported_pdf(system, gains, 0, rho0, 1.0, [0.0])[0]
        assert value == pytest.approx(0.5 * np.e, rel=1e-12)

    def test_gaussian_paths_agree(self):
        rng = np.random.default_rng(17)
        system = random_system(rng, 2, 2)
        gains = random_gains(rng, system)
        g0 = rq.GaussianDensity([0.2, -0.1], [[1.0, 0.2], [0.2, 0.8]])
        for mode in range(3):
            flowed = rq.pushforward_gaussian(system, gains, mode, g0, 0.7)
            for _ in range(20):
                x = rng.uniform(-2.0, 2.0, 2)
                direct = rq.transported_pdf(system, gains, mode, g0, 0.7, x)[0]
                assert direct == pytest.approx(flowed.pdf(x), abs=1e-10)

    def test_positivity(self):
        system, gains = _ou_single()
        g0 = rq.GaussianDensity([0.0], [[1.0]])
        xs = np.linspace(-5, 5, 101)
        for t in (0.0, 0.5, 2.0):
            vals = rq.transported_pdf(system, gains, 0, g0, t, xs[:, None])
            assert np.all(vals > 0.0)

    @pytest.mark.parametrize("points", [np.zeros((3, 2)), np.zeros(2)])
    def test_wrong_dimension_points_rejected(self, scalar_two_channel, points):
        system, gains = scalar_two_channel
        g0 = rq.GaussianDensity([0.0], [[1.0]])
        with pytest.raises(DimensionError):
            rq.transported_pdf(system, gains, 0, g0, 0.5, points)


class TestIntegrateDensity:
    def test_gaussian_time_zero(self):
        system, gains = _ou_single()
        g0 = rq.GaussianDensity([0.0], [[1.0]])
        box = rq.Box([-8.0], [8.0], [400])
        result = integrate_density(system, gains, 0, g0, 0.0, box)
        assert result == pytest.approx(1.0, abs=1e-6)

    def test_mass_conservation_scalar_case(self, scalar_two_channel):
        system, gains = scalar_two_channel
        g0 = rq.GaussianDensity([0.0], [[1.0]])
        for mode in range(3):
            for t in (0.0, 0.5, 1.0, 2.0):
                result = integrate_density(system, gains, mode, g0, t)
                assert result == pytest.approx(1.0, abs=1e-6)

    def test_half_box_symmetric_density(self):
        system, gains = _ou_single()
        g0 = rq.GaussianDensity([0.0], [[1.0]])
        box = rq.Box([0.0], [8.0], [400])
        result = integrate_density(system, gains, 0, g0, 0.0, box)
        assert result == pytest.approx(0.5, abs=1e-6)

    def test_too_small_box_reports_deviation(self):
        system, gains = _ou_single()
        g0 = rq.GaussianDensity([0.0], [[1.0]])
        box = rq.Box([-1.0], [1.0], [200])
        result = integrate_density(system, gains, 0, g0, 0.0, box)
        assert result == pytest.approx(0.6827, abs=1e-3)  # mass inside 1 sigma

    def test_uniform_rho0_mass(self):
        system, gains = _ou_single()
        rho0 = uniform_start([-1.0], [1.0])
        box = default_transport_box(system, gains, 0, rho0, 1.0, n=2000)
        result = integrate_density(system, gains, 0, rho0, 1.0, box)
        # discontinuous edges limit trapezoid accuracy to O(1/n)
        assert result == pytest.approx(1.0, abs=2e-3)

    def test_2d_mass(self):
        rng = np.random.default_rng(23)
        system = random_system(rng, 2, 1)
        gains = rq.GainSet([np.zeros((system.input_dims[0], 2))])
        g0 = rq.GaussianDensity([0.0, 0.0], np.eye(2))
        result = integrate_density(system, gains, 0, g0, 0.3, None)
        assert result == pytest.approx(1.0, abs=1e-6)


class TestPullbackKL:
    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_one_cell_start_is_exact(self, d):
        # M maps the box into itself: KL = -log det M, with nothing to bound
        rng = np.random.default_rng(d)
        M = np.diag(rng.uniform(0.3, 0.9, d))
        kl, tol = pullback_kl(uniform_start(-np.ones(d), np.ones(d)), M, np.log(np.linalg.det(M)))
        assert kl == pytest.approx(-np.log2(np.linalg.det(M)), rel=1e-14)
        assert tol == 0.0

    def test_one_cell_start_leaving_its_box_is_infinite(self):
        # a rotation by 30 degrees takes the square's corners outside it
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        M = 0.9 * np.array([[c, -s], [s, c]])
        kl, _ = pullback_kl(uniform_start([-1.0, -1.0], [1.0, 1.0]), M, 2.0 * np.log(0.9))
        assert kl == np.inf

    @pytest.mark.parametrize("m", [[0.95, 0.6], [0.37, 0.8], [0.5, 0.5]])
    def test_diagonal_map_within_its_bound(self, m):
        rho0 = random_grid_start(7, (5, 3))
        kl, tol = pullback_kl(rho0, np.diag(m), float(np.sum(np.log(m))))
        assert abs(kl - diagonal_pullback_kl_bits(rho0, m)) <= tol + 1e-12
        assert tol < 0.1

    def test_midpoint_in_an_empty_cell_is_infinite(self):
        values = np.ones((4, 4))
        values[1:3, 1:3] = 0.0  # an empty centre that M = 0.5 I maps every cell into
        rho0 = rq.GridDensity.from_unnormalized(rq.Box([-1.0, -1.0], [1.0, 1.0], [4, 4]), values)
        assert pullback_kl(rho0, 0.5 * np.eye(2), 2.0 * np.log(0.5))[0] == np.inf

    def test_quadrature_point_cap(self):
        # two cells at d = 7 need 2 * 16^7 subcells, past the cap
        d = 7
        n = [2] + [1] * (d - 1)
        rho0 = rq.GridDensity.from_unnormalized(rq.Box(-np.ones(d), np.ones(d), n), np.ones(n))
        with pytest.raises(DomainError, match="quadrature grid too large"):
            pullback_kl(rho0, 0.9 * np.eye(d), d * np.log(0.9))


class TestFlowKL:
    def test_equal_loops_skip_the_quadrature(self, monkeypatch):
        # A = -2I, B = [I, I], K = [I, 0]: outage 2 is the nominal loop, so
        # M = I, for which the quadrature would return (0.0, 0.0) exactly
        eye = np.eye(2)
        system = rq.MultiChannelSystem(-2.0 * eye, [eye, eye], rq.ConstantDiffusion(eye))
        gains = rq.GainSet([eye, np.zeros((2, 2))])
        rho0 = random_grid_start(3, (9, 7))
        assert pullback_kl(rho0, eye, 0.0) == (0.0, 0.0)

        def no_quadrature(*args):
            raise AssertionError("pullback_kl ran for equal loops")

        monkeypatch.setattr(liouville_flow, "pullback_kl", no_quadrature)
        assert flow_kl(system, gains, 2, rho0, 0.3) == (0.0, 0.0)
        with pytest.raises(AssertionError, match="equal loops"):
            flow_kl(system, gains, 1, rho0, 0.3)


def test_pushforward_dimension_mismatch():
    # the one typed error of this module that no other test reaches
    system, gains = _ou_single()
    g0 = rq.GaussianDensity([0.0, 0.0], np.eye(2))
    with pytest.raises(DimensionError, match="dimension 2 does not match state dimension 1"):
        rq.pushforward_gaussian(system, gains, 0, g0, 1.0)
