import re
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import redunquant as rq
from redunquant import stochastic_engine
from redunquant.errors import (
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
from redunquant.redundancy_analysis import _diffusion_frame
from redunquant.stochastic_engine import (
    _assemble_fv_operator,
    _pinned_null_vector,
    euler_endpoint_law,
    smoothed_empirical_density,
)

from .conftest import eccentric_plant, random_hurwitz
from .oracles import (
    euler_endpoint_cov_reference,
    euler_stepped_reference,
    fv_operator_coo_reference,
    lyapunov_reference,
    null_vector_inverse_iteration,
)


@pytest.fixture(autouse=True)
def _no_leaked_threads():
    """No exit path of simulate_sde may leave a thread running."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


def _discretized(g: rq.GaussianDensity, box: rq.Box) -> rq.GridDensity:
    values = g.pdf(box.center_points()).reshape(tuple(box.n))
    return rq.GridDensity.from_unnormalized(box, values)


class TestStationaryGaussian:
    def test_ou_unit(self, ou_system):
        system, gains = ou_system
        law = rq.stationary_gaussian(system, gains, 0, 1.0)
        assert law.cov[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_scalar_case_small_noise(self, scalar_two_channel):
        system, gains = scalar_two_channel
        law = rq.stationary_gaussian(system, gains, 0, 0.1)
        assert law.cov[0, 0] == pytest.approx(1.0 / 600.0, rel=1e-12)
        for mode in (1, 2):
            law_f = rq.stationary_gaussian(system, gains, mode, 0.1)
            assert law_f.cov[0, 0] == pytest.approx(0.005, rel=1e-12)

    def test_unstable_mode_raises(self):
        system = rq.MultiChannelSystem([[1.0]], [[[1.0]]], rq.ConstantDiffusion([[1.0]]))
        with pytest.raises(NotHurwitzError):
            rq.stationary_gaussian(system, rq.GainSet([[[0.0]]]), 0, 1.0)

    def test_diag_affine_unsupported(self):
        system = rq.MultiChannelSystem(
            [[-1.0]], [[[1.0]]], rq.DiagAffineDiffusion([1.0], [0.5])
        )
        with pytest.raises(UnsupportedDiffusionError):
            rq.stationary_gaussian(system, rq.GainSet([[[0.0]]]), 0, 1.0)

    def test_eps_squared_scaling(self):
        rng = np.random.default_rng(12)
        from .conftest import eccentric_plant, random_hurwitz

        A = random_hurwitz(rng, 3)
        system = rq.MultiChannelSystem(
            A, [np.zeros((3, 1))], rq.ConstantDiffusion(np.eye(3) + 0.2)
        )
        gains = rq.GainSet([np.zeros((1, 3))])
        base = rq.stationary_gaussian(system, gains, 0, 1.0)
        for eps in (0.5, 0.1, 2.0):
            law = rq.stationary_gaussian(system, gains, 0, eps)
            np.testing.assert_allclose(law.cov, eps**2 * base.cov, rtol=1e-13)

    def test_matches_reference_solver(self):
        from .conftest import eccentric_plant, random_hurwitz

        rng = np.random.default_rng(77)
        A = random_hurwitz(rng, 2)
        system = rq.MultiChannelSystem(
            A, [np.zeros((2, 1))], rq.ConstantDiffusion(np.eye(2))
        )
        gains = rq.GainSet([np.zeros((1, 2))])
        law = rq.stationary_gaussian(system, gains, 0, 0.7)
        np.testing.assert_allclose(
            law.cov, lyapunov_reference(A, 0.49 * np.eye(2)), rtol=1e-9, atol=1e-12
        )


class TestDefaultSimParams:
    def test_fills_only_missing_values(self, scalar_two_channel):
        system, gains = scalar_two_channel  # A_0 = -3
        horizon, dt = rq.default_sim_params(system, gains, 0)
        assert (horizon, dt) == (20.0 / 3.0, 1e-3 * min(1.0, 1.0 / 3.0))
        assert rq.default_sim_params(system, gains, 0, horizon=2.0) == (2.0, dt)
        assert rq.default_sim_params(system, gains, 0, dt=0.5) == (horizon, 0.5)

    def test_only_the_default_horizon_needs_a_hurwitz_mode(self, scalar_two_channel):
        system, _ = scalar_two_channel
        gains = rq.GainSet([[[-1.0]], [[-1.0]]])  # A_1 = 0
        for dt in (None, 0.01):
            with pytest.raises(NotHurwitzError):
                rq.default_sim_params(system, gains, 1, dt=dt)
        assert rq.default_sim_params(system, gains, 1, horizon=1.0) == (1.0, 1e-3)


class TestSimulate:
    def test_zero_noise_stays_at_origin(self, ou_system):
        system, gains = ou_system
        out = rq.simulate_sde(system, gains, 0, 0.0, 1.0, 0.01, 50, seed=1)
        np.testing.assert_array_equal(out.samples, np.zeros((50, 1)))

    def test_determinism(self, ou_system):
        system, gains = ou_system
        a = rq.simulate_sde(system, gains, 0, 1.0, 2.0, 1e-2, 500, seed=9)
        b = rq.simulate_sde(system, gains, 0, 1.0, 2.0, 1e-2, 500, seed=9)
        assert np.array_equal(a.samples, b.samples)
        c = rq.simulate_sde(system, gains, 0, 1.0, 2.0, 1e-2, 500, seed=10)
        assert not np.array_equal(a.samples, c.samples)

    def test_path_prefix_independent_of_n_paths(self, ou_system):
        # row i of one (n_paths, d) draw: adding paths never changes earlier ones
        system, gains = ou_system
        small = rq.simulate_sde(system, gains, 0, 1.0, 1.0, 1e-2, 40, seed=3)
        large = rq.simulate_sde(system, gains, 0, 1.0, 1.0, 1e-2, 160, seed=3)
        assert np.array_equal(large.samples[:40], small.samples)

    def test_ou_variance_matches_stationary(self, ou_system):
        system, gains = ou_system
        out = rq.simulate_sde(system, gains, 0, 1.0, 20.0, 1e-3, 20_000, seed=5)
        assert out.samples.var() == pytest.approx(0.5, rel=0.05)

    def test_divergence(self):
        system = rq.MultiChannelSystem([[2.0]], [[[1.0]]], rq.ConstantDiffusion([[1.0]]))
        with pytest.raises(DivergenceError) as err:
            rq.simulate_sde(system, rq.GainSet([[[0.0]]]), 0, 1.0, 30.0, 1e-2, 5, seed=2)
        assert 0 <= err.value.path_index < 5

    def test_divergence_diag_affine_with_chunks_left(self):
        # the first chunk's endpoint is far past the limit (1.2^512 ~ 1e40)
        # with chunks still to draw; the call leaves no thread behind
        system = rq.MultiChannelSystem(
            [[20.0]], [[[1.0]]], rq.DiagAffineDiffusion([1.0], [0.5])
        )
        span = stochastic_engine._CHUNK_STEPS // 2
        threads_before = threading.active_count()
        with pytest.raises(DivergenceError) as err:
            rq.simulate_sde(
                system, rq.GainSet([[[0.0]]]), 0, 1.0, 3 * span * 1e-2, 1e-2, 70, seed=2
            )
        assert 0 <= err.value.path_index < 70
        assert threading.active_count() == threads_before

    def test_divergence_diag_affine_counts_steps(self):
        # the message counts steps, not the m normals per step in a chunk;
        # the first chunk already grows the state by 1.15^256 ~ 4e15
        sigma = rq.DiagAffineDiffusion([1.0, 1.0], [0.5, 0.5])
        system = rq.MultiChannelSystem([[20.0, 0.0], [0.0, 15.0]], [np.zeros((2, 1))], sigma)
        span = stochastic_engine._CHUNK_STEPS // 2
        with pytest.raises(DivergenceError, match=f"by step {span} ") as err:
            rq.simulate_sde(
                system, rq.GainSet([np.zeros((1, 2))]), 0, 1.0, 3 * span * 1e-2, 1e-2, 9, seed=2
            )
        assert 0 <= err.value.path_index < 9

    def test_x0_parameter(self, ou_system):
        system, gains = ou_system
        out = rq.simulate_sde(system, gains, 0, 0.0, 1.0, 1e-3, 3, seed=1, x0=[2.0])
        np.testing.assert_allclose(out.samples, np.full((3, 1), 2.0 * np.exp(-1.0)), rtol=1e-3)

    def test_diag_affine_path(self):
        system = rq.MultiChannelSystem(
            [[-1.0]], [[[1.0]]], rq.DiagAffineDiffusion([1.0], [0.0])
        )
        gains = rq.GainSet([[[0.0]]])
        out = rq.simulate_sde(system, gains, 0, 1.0, 10.0, 1e-2, 5_000, seed=8)
        assert out.samples.var() == pytest.approx(0.5, rel=0.1)

    def test_diag_affine_zero_slope_matches_constant(self):
        # the stepped constant twin, on the same keyed streams: the same
        # recursion up to summation order
        affine = rq.MultiChannelSystem(
            [[-1.0]], [[[1.0]]], rq.DiagAffineDiffusion([1.0], [0.0])
        )
        constant = rq.MultiChannelSystem(
            [[-1.0]], [[[1.0]]], rq.ConstantDiffusion([[1.0]])
        )
        gains = rq.GainSet([[[0.0]]])
        a = rq.simulate_sde(affine, gains, 0, 0.7, 2.0, 1e-2, 100, seed=4)
        b = euler_stepped_reference(constant, [[-1.0]], 0.7, 1e-2, 200, 100, 4)
        np.testing.assert_allclose(a.samples, b, atol=1e-12)

    def test_constant_sigma_draws_exact_endpoints(self):
        # the direct draw, rebuilt from its parts: the endpoint law, a
        # Cholesky factor and one SFC64 stream seeded by seed, row i for path i
        A = np.array([[-1.0, 0.3], [-0.2, -1.5]])
        S = np.array([[1.0, 0.4], [0.0, 0.9]])
        system = rq.MultiChannelSystem(A, [np.zeros((2, 1))], rq.ConstantDiffusion(S))
        gains = rq.GainSet([np.zeros((1, 2))])
        eps, dt, n_paths, seed = 0.8, 1e-2, 300, 11
        noise_gain = (eps * np.sqrt(dt)) * S
        power, cov = euler_endpoint_law(
            np.eye(2) + dt * rq.closed_loop_matrix(system, gains, 0), noise_gain @ noise_gain.T, 300
        )
        draw = np.random.Generator(np.random.SFC64(seed)).standard_normal((n_paths, 2))
        kick = draw @ np.linalg.cholesky(cov).T
        for x0 in (None, [0.5, -0.25]):
            out = rq.simulate_sde(system, gains, 0, eps, 3.0, dt, n_paths, seed, x0=x0)
            start = np.zeros(2) if x0 is None else np.array(x0)
            np.testing.assert_array_equal(out.samples, np.tile(power @ start, (n_paths, 1)) + kick)
            assert (out.t_final, out.dt, out.seed, out.mode) == (300 * dt, dt, seed, 0)

    def test_validation(self, ou_system):
        system, gains = ou_system
        with pytest.raises(DomainError):
            rq.simulate_sde(system, gains, 0, 1.0, 0.5, -0.1, 10, seed=1)
        with pytest.raises(DomainError):
            rq.simulate_sde(system, gains, 0, 1.0, 0.005, 0.01, 10, seed=1)
        with pytest.raises(DomainError):
            rq.simulate_sde(system, gains, 0, 1.0, 1.0, 0.01, 0, seed=1)

    @pytest.mark.parametrize("sigma", ["constant", "diag_affine"])
    @pytest.mark.parametrize(
        "horizon, dt",
        [(np.inf, 0.01), (np.nan, 0.01), (1e300, 1e-300)],
        ids=["inf", "nan", "overflow"],
    )
    def test_step_count_not_finite(self, monkeypatch, sigma, horizon, dt):
        noise = {
            "constant": rq.ConstantDiffusion([[1.0]]),
            "diag_affine": rq.DiagAffineDiffusion([1.0], [0.5]),
        }[sigma]
        system = rq.MultiChannelSystem([[-1.0]], [[[1.0]]], noise)

        def no_sampling(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr(stochastic_engine, "_block_stream", no_sampling)
        monkeypatch.setattr(stochastic_engine, "euler_endpoint_law", no_sampling)
        with pytest.raises(DomainError, match="not a finite step count"):
            rq.simulate_sde(system, rq.GainSet([[[0.0]]]), 0, 1.0, horizon, dt, 10, seed=1)


def _plane(sigma):
    A = np.array([[-1.0, 0.4], [-0.3, -1.6]])
    return rq.MultiChannelSystem(A, [np.zeros((2, 1))], sigma), rq.GainSet([np.zeros((1, 2))]), A


_PLANE_NOISE = {
    "diag_affine": rq.DiagAffineDiffusion([0.7, 0.9], [0.3, 0.5]),
}


class TestSimulateStepping:
    """The stepped (diag_affine) simulate_sde against a plain per-path,
    per-step loop, its independence of n_paths, chunks and path blocks,
    and its single thread."""

    @pytest.mark.parametrize("kind", sorted(_PLANE_NOISE))
    @pytest.mark.parametrize("blocks", [1, 3], ids=["one_block", "three_blocks"])
    def test_matches_plain_loop(self, monkeypatch, kind, blocks):
        system, gains, A = _plane(_PLANE_NOISE[kind])
        span = stochastic_engine._CHUNK_STEPS // 2
        n_steps, n_paths, dt = 2 * span + 7, 7, 1e-3  # last chunk partial
        if blocks > 1:  # -> blocks of one stream: 64, 64 and 7 paths
            n_paths += 2 * stochastic_engine._STREAM_PATHS
            stream_chunk = 2 * span * stochastic_engine._STREAM_PATHS
            monkeypatch.setattr(stochastic_engine, "_MAX_NOISE_ELEMENTS", stream_chunk)
        x0 = [0.5, -0.25]
        out = rq.simulate_sde(system, gains, 0, 0.9, n_steps * dt, dt, n_paths, 13, x0=x0)
        ref = euler_stepped_reference(system, A, 0.9, dt, n_steps, n_paths, 13, x0=x0)
        assert np.abs(out.samples - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("case", ["constant", "diag_affine", "divergence"])
    def test_starts_no_thread(self, monkeypatch, case):
        # both samplers over four streams and several chunks, and the
        # divergence exit, run on the calling thread alone
        def no_thread(thread):
            raise AssertionError(f"simulate_sde started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        n_paths, dt = 3 * stochastic_engine._STREAM_PATHS + 11, 1e-2
        horizon = 3 * stochastic_engine._CHUNK_STEPS * dt
        if case == "divergence":  # |x| grows by 1.2 per step, past the limit in one chunk
            sigma = rq.DiagAffineDiffusion([1.0], [0.5])
            system = rq.MultiChannelSystem([[20.0]], [[[1.0]]], sigma)
            with pytest.raises(DivergenceError):
                rq.simulate_sde(system, rq.GainSet([[[0.0]]]), 0, 1.0, horizon, dt, n_paths, 6)
        else:
            noise = rq.ConstantDiffusion(np.eye(2)) if case == "constant" else _PLANE_NOISE[case]
            system, gains, _ = _plane(noise)
            assert rq.simulate_sde(system, gains, 0, 1.0, horizon, dt, n_paths, 6).n == n_paths

    @pytest.mark.parametrize("d", [1, 2])
    def test_independent_of_chunks_and_blocks(self, monkeypatch, d):
        # every run ends on a partial chunk, and at d=2 the odd
        # _CHUNK_STEPS = 7 is not a whole number of steps
        A = np.array([[-1.0, 0.4], [-0.3, -1.6]])[:d, :d]
        sigma = rq.DiagAffineDiffusion([0.7, 0.9][:d], [0.3, 0.5][:d])
        system = rq.MultiChannelSystem(A, [np.zeros((d, 1))], sigma)
        gains = rq.GainSet([np.zeros((1, d))])
        span = stochastic_engine._CHUNK_STEPS // d
        n_steps = 2 * span + 7
        n_paths = 2 * stochastic_engine._STREAM_PATHS + 8  # three streams, the last partial

        def run(**knobs):
            with monkeypatch.context() as patch:
                for name, value in knobs.items():
                    patch.setattr(stochastic_engine, name, value)
                return rq.simulate_sde(
                    system, gains, 0, 1.0, n_steps * 1e-3, 1e-3, n_paths, 5
                ).samples

        default = run()
        assert np.array_equal(run(_CHUNK_STEPS=7), default)
        stream_chunk = span * d * stochastic_engine._STREAM_PATHS
        for streams in (1, 2):  # blocks of 1, 1, 1 and of 2, 1 streams
            blocked = run(_MAX_NOISE_ELEMENTS=streams * stream_chunk)
            assert np.array_equal(blocked, default)

    @pytest.mark.parametrize("n_paths", [1, 63, 64, 65])
    def test_path_prefix_independent_of_n_paths(self, n_paths):
        # a partial block is padded to 64 columns, so even one path is
        # stepped by the same matrix-matrix kernel as a 160-path run
        system, gains, _ = _plane(_PLANE_NOISE["diag_affine"])
        large = rq.simulate_sde(system, gains, 0, 1.0, 2.0, 1e-3, 160, 3).samples
        small = rq.simulate_sde(system, gains, 0, 1.0, 2.0, 1e-3, n_paths, 3).samples
        assert np.array_equal(small, large[:n_paths])

    def test_more_noise_channels_than_chunk_normals(self, monkeypatch):
        # m > _CHUNK_STEPS: each chunk is one step of m normals per path
        system, gains, _ = _plane(_PLANE_NOISE["diag_affine"])
        default = rq.simulate_sde(system, gains, 0, 1.0, 25e-3, 1e-3, 5, 8).samples
        monkeypatch.setattr(stochastic_engine, "_CHUNK_STEPS", 1)
        one_step = rq.simulate_sde(system, gains, 0, 1.0, 25e-3, 1e-3, 5, 8).samples
        assert np.array_equal(one_step, default)

    def test_noise_memory_is_one_chunk_per_path(self):
        # one noise buffer of _CHUNK_STEPS signs per path, padded to whole
        # streams, over a run of several chunks; the state and step buffers
        # are O(d) per path
        system, gains, _ = _plane(_PLANE_NOISE["diag_affine"])
        n_paths = 200
        lanes = stochastic_engine._STREAM_PATHS
        tracemalloc.start()
        try:
            rq.simulate_sde(system, gains, 0, 1.0, 5000 * 1e-3, 1e-3, n_paths, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded = -(-n_paths // lanes) * lanes
        assert peak <= 1.25 * 8 * stochastic_engine._CHUNK_STEPS * padded + 1e6

    def test_noise_memory_at_a_thousand_paths(self):
        # 1000 paths x 10 000 steps at d=2 need one 0.5 MB buffer: 16
        # streams of 256 steps x 2 x 64 int8 signs
        system, gains, _ = _plane(_PLANE_NOISE["diag_affine"])
        tracemalloc.start()
        try:
            rq.simulate_sde(system, gains, 0, 1.0, 10.0, 1e-3, 1000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_one_step_lands_on_two_points(self):
        # from x0, one step reaches M x0 +- amp (base + slope |x0|) per axis,
        # each sign with probability 1/2, the two axes' signs independent
        system, gains, A = _plane(_PLANE_NOISE["diag_affine"])
        sigma, n, dt, eps = system.sigma, 8192, 1e-2, 0.8
        x0 = np.array([0.5, -0.25])
        out = rq.simulate_sde(system, gains, 0, eps, dt, dt, n, seed=21, x0=x0).samples
        centre = (np.eye(2) + dt * A) @ x0
        half_gap = eps * np.sqrt(dt) * (sigma.base + sigma.slope * np.abs(x0))
        up = np.isclose(out, centre + half_gap, rtol=0.0, atol=1e-15)
        down = np.isclose(out, centre - half_gap, rtol=0.0, atol=1e-15)
        assert np.all(up ^ down)
        se = np.sqrt(0.25 / n)
        assert np.all(np.abs(up.mean(axis=0) - 0.5) <= 5.0 * se)
        assert abs((up[:, 0] == up[:, 1]).mean() - 0.5) <= 5.0 * se

    def test_zero_slope_endpoint_is_normal_in_fourth_moment(self):
        # one +-1 step has kurtosis 1; the sum of 500 of them, weighted by
        # the powers of M, is 3 up to O(dt)
        system, gains, _ = _plane(rq.DiagAffineDiffusion([0.7, 0.9], [0.0, 0.0]))
        n = 16_384
        x = rq.simulate_sde(system, gains, 0, 1.0, 5.0, 1e-2, n, seed=9).samples
        z = (x - x.mean(axis=0)) / x.std(axis=0)
        kurtosis = (z**4).mean(axis=0)
        assert np.all(np.abs(kurtosis - 3.0) <= 5.0 * np.sqrt(24.0 / n))

    def test_law_matches_gaussian_increments(self):
        # with slope > 0 the noise depends on |x|, so the endpoint laws of
        # +-1 and normal increments differ at O(dt), far below these SEs
        sigma = rq.DiagAffineDiffusion([0.7], [0.5])
        system = rq.MultiChannelSystem([[-1.0]], [[[1.0]]], sigma)
        gains = rq.GainSet([[[0.0]]])
        dt, n_steps = 2e-2, 150
        signs = rq.simulate_sde(system, gains, 0, 1.0, n_steps * dt, dt, 8192, seed=2).samples
        normals = euler_stepped_reference(
            system, [[-1.0]], 1.0, dt, n_steps, 256, 2, increments="gaussian"
        )
        for f in (np.square, np.abs):
            a, b = f(signs[:, 0]), f(normals[:, 0])
            se = np.sqrt(a.var() / a.size + b.var() / b.size)
            assert abs(a.mean() - b.mean()) <= 5.0 * se

    def test_one_stream_per_block_of_paths(self, monkeypatch):
        system, gains, _ = _plane(_PLANE_NOISE["diag_affine"])
        keys = []
        stream = stochastic_engine._block_stream

        def counting_stream(seed, block):
            keys.append((seed, block))
            return stream(seed, block)

        monkeypatch.setattr(stochastic_engine, "_block_stream", counting_stream)
        rq.simulate_sde(system, gains, 0, 1.0, 20e-3, 1e-3, 1000, 3)
        assert keys == [(3, b) for b in range(16)]


class TestEulerEndpoints:
    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("margin", [0.5, -0.5], ids=["schur_stable", "radius_above_1"])
    def test_law_matches_term_by_term_oracle(self, d, n, margin):
        # margin -0.5 puts the spectral abscissa of A at +0.5, so M = I + dt A
        # has spectral radius > 1
        rng = np.random.default_rng(100 * d + n)
        M = np.eye(d) + 1e-2 * random_hurwitz(rng, d, margin=margin)
        W = rng.uniform(-1.0, 1.0, (d, d))
        Q = W @ W.T + 0.1 * np.eye(d)
        power, cov = euler_endpoint_law(M, Q, n)
        ref_power, ref_cov = euler_endpoint_cov_reference(M, Q, n)
        assert np.linalg.norm(power - ref_power) <= 1e-12 * np.linalg.norm(ref_power)
        assert np.linalg.norm(cov - ref_cov) <= 1e-12 * np.linalg.norm(ref_cov)
        assert (max(abs(np.linalg.eigvals(M))) > 1.0) == (margin < 0.0)

    def test_determinism(self, ou_system):
        system, gains = ou_system
        a = rq.simulate_sde(system, gains, 0, 1.0, 2.0, 1e-2, 500, seed=9)
        b = rq.simulate_sde(system, gains, 0, 1.0, 2.0, 1e-2, 500, seed=9)
        assert np.array_equal(a.samples, b.samples)
        c = rq.simulate_sde(system, gains, 0, 1.0, 2.0, 1e-2, 500, seed=10)
        assert not np.array_equal(a.samples, c.samples)

    def test_path_prefix_independent_of_n_paths(self, ou_system):
        system, gains = ou_system
        small = rq.simulate_sde(system, gains, 0, 1.0, 1.0, 1e-2, 40, seed=3)
        large = rq.simulate_sde(system, gains, 0, 1.0, 1.0, 1e-2, 160, seed=3)
        assert np.array_equal(large.samples[:40], small.samples)

    def test_zero_noise_is_mean_map(self):
        A = np.array([[-1.0, 0.3], [-0.2, -1.5]])
        system = rq.MultiChannelSystem(A, [np.zeros((2, 1))], rq.ConstantDiffusion(np.eye(2)))
        gains = rq.GainSet([np.zeros((1, 2))])
        x0 = np.array([2.0, -1.0])
        out = rq.simulate_sde(system, gains, 0, 0.0, 1.0, 1e-3, 3, seed=1, x0=x0)
        expected = np.linalg.matrix_power(np.eye(2) + 1e-3 * A, 1000) @ x0
        np.testing.assert_allclose(out.samples, np.tile(expected, (3, 1)), rtol=1e-12)

    def test_divergence(self):
        system = rq.MultiChannelSystem([[2.0]], [[[1.0]]], rq.ConstantDiffusion([[1.0]]))
        with pytest.raises(DivergenceError) as err:
            rq.simulate_sde(system, rq.GainSet([[[0.0]]]), 0, 1.0, 30.0, 1e-2, 5, seed=2)
        assert 0 <= err.value.path_index < 5

    def test_covariance_matches_stepped_sampler(self):
        # both samplers target the law of the same Euler endpoint: the
        # stepped side is the zero-slope diag_affine twin of a diagonal S
        A = np.array([[-1.0, 0.3], [-0.2, -1.5]])
        S = np.diag([1.0, 0.9])
        system = rq.MultiChannelSystem(A, [np.zeros((2, 1))], rq.ConstantDiffusion(S))
        twin = rq.MultiChannelSystem(
            A, [np.zeros((2, 1))], rq.DiagAffineDiffusion(np.diag(S), [0.0, 0.0])
        )
        gains = rq.GainSet([np.zeros((1, 2))])
        n = 10_000
        exact = rq.simulate_sde(system, gains, 0, 1.0, 5.0, 1e-2, n, seed=17).samples
        stepped = rq.simulate_sde(twin, gains, 0, 1.0, 5.0, 1e-2, n, seed=17).samples
        _, law = euler_endpoint_law(np.eye(2) + 1e-2 * A, 1e-2 * S @ S.T, 500)
        var = np.diag(law)
        # sampling variance of a Gaussian covariance entry: (C_kk C_ll + C_kl^2) / n
        se = np.sqrt((np.outer(var, var) + law**2) / n)
        c_exact, c_stepped = np.cov(exact.T), np.cov(stepped.T)
        assert np.all(np.abs(c_exact - law) <= 5.0 * se)
        assert np.all(np.abs(c_exact - c_stepped) <= 5.0 * np.sqrt(2.0) * se)


class TestEmpiricalDensity:
    def test_single_cell_mass(self):
        samples = rq.SampleSet(np.full((100, 1), 0.5), seed=0, t_final=1.0, dt=0.1, mode=0)
        box = rq.Box([0.0], [1.0], [10])
        density, leakage = rq.empirical_density(samples, box)
        assert leakage == 0.0
        expected = np.zeros(10)
        expected[5] = 10.0
        np.testing.assert_allclose(density.values, expected)

    def test_normalization_for_any_input(self):
        rng = np.random.default_rng(0)
        samples = rq.SampleSet(rng.normal(0, 1, (5000, 1)), seed=0, t_final=1.0, dt=0.1, mode=0)
        box = rq.Box([-3.0], [3.0], [20])
        density, leakage = rq.empirical_density(samples, box)
        assert density.mass() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < leakage < 0.01

    def test_leakage_error(self):
        rng = np.random.default_rng(1)
        samples = rq.SampleSet(rng.normal(0, 5, (1000, 1)), seed=0, t_final=1.0, dt=0.1, mode=0)
        box = rq.Box([-1.0], [1.0], [10])
        with pytest.raises(OutOfBoxError):
            rq.empirical_density(samples, box)

    def test_histogram_close_to_stationary_law(self, ou_system):
        system, gains = ou_system
        out = rq.simulate_sde(system, gains, 0, 1.0, 20.0, 1e-3, 20_000, seed=21)
        box = rq.sample_box([out], 48)
        density, _ = rq.empirical_density(out, box)
        exact = _discretized(rq.stationary_gaussian(system, gains, 0, 1.0), box)
        l1 = np.abs(density.values - exact.values).sum() * box.cell_volume
        assert l1 <= 0.05

    def test_smoothed_reference_strictly_positive(self):
        samples = rq.SampleSet(np.zeros((50, 1)), seed=0, t_final=1.0, dt=0.1, mode=0)
        box = rq.Box([-1.0], [1.0], [8])
        density = smoothed_empirical_density(samples, box, alpha=0.5)
        assert density.values.min() > 0.0
        assert density.mass() == pytest.approx(1.0, abs=1e-12)


class TestFpResidual:
    def test_exact_density_residual_small_and_second_order(self, ou_system):
        system, gains = ou_system
        exact = rq.stationary_gaussian(system, gains, 0, 1.0)
        residuals = {}
        for h in (0.04, 0.02, 0.01):
            box = rq.Box([-6.0], [6.0], [int(round(12.0 / h))])
            residuals[h] = rq.fp_residual(exact, system, gains, 0, 1.0, box)
        assert residuals[0.01] <= 1e-3
        assert 2.5 <= residuals[0.04] / residuals[0.02] <= 6.0
        assert 2.5 <= residuals[0.02] / residuals[0.01] <= 6.0

    def test_wrong_density_has_large_residual(self, ou_system):
        system, gains = ou_system
        box = rq.Box([-6.0], [6.0], [1200])
        good = rq.fp_residual(
            rq.GaussianDensity([0.0], [[0.5]]), system, gains, 0, 1.0, box
        )
        bad = rq.fp_residual(
            rq.GaussianDensity([0.0], [[1.0]]), system, gains, 0, 1.0, box
        )
        assert bad >= 10.0 * good

    def test_needs_three_cells_per_axis(self, ou_system):
        # the central stencil has no interior cell to evaluate otherwise
        system, gains = ou_system
        law = rq.GaussianDensity([0.0], [[0.5]])
        with pytest.raises(DomainError):
            rq.fp_residual(law, system, gains, 0, 1.0, rq.Box([-3.0], [3.0], [2]))

    def test_2d_exact_density(self):
        from .conftest import eccentric_plant, random_hurwitz

        rng = np.random.default_rng(3)
        A = random_hurwitz(rng, 2)
        S = rng.uniform(-0.5, 0.5, (2, 2)) + 1.2 * np.eye(2)
        system = rq.MultiChannelSystem(A, [np.zeros((2, 1))], rq.ConstantDiffusion(S))
        gains = rq.GainSet([np.zeros((1, 2))])
        law = rq.stationary_gaussian(system, gains, 0, 1.0)
        std = np.sqrt(np.diag(law.cov)).max()
        box = rq.Box([-6 * std, -6 * std], [6 * std, 6 * std], [301, 301])
        res_coarse = rq.fp_residual(law, system, gains, 0, 1.0, box)
        box_fine = rq.Box([-6 * std, -6 * std], [6 * std, 6 * std], [602, 602])
        res_fine = rq.fp_residual(law, system, gains, 0, 1.0, box_fine)
        assert 2.5 <= res_coarse / res_fine <= 6.0


def _unfolded_solve(system, gains, mode, eps, box) -> np.ndarray:
    """solve_stationary_fp_grid's values from _pinned_null_vector without the fold."""
    L = _assemble_fv_operator(system, rq.closed_loop_matrix(system, gains, mode), eps, box)
    origin = np.clip(np.floor(-box.lo / box.cell_widths), 0, box.n - 1).astype(int)
    v = _pinned_null_vector(L, int(np.ravel_multi_index(tuple(origin), tuple(box.n))))
    values = np.clip(v.reshape(tuple(box.n)) / (v.sum() * box.cell_volume), 0.0, None)
    return rq.GridDensity.from_unnormalized(box, values).values


def _fold_case(name):
    """(system, gains, eps, box) of one symmetric-box plant."""
    zero_gain = rq.GainSet([np.zeros((1, 2))])
    if name.startswith("1d"):
        system = rq.MultiChannelSystem([[-1.0]], [[[1.0]]], rq.ConstantDiffusion([[1.0]]))
        n = 801 if name == "1d_odd" else 800
        return system, rq.GainSet([[[0.0]]]), 1.0, rq.Box([-6.0], [6.0], [n])
    if name == "2d_full_s_x_frame":  # the plant of test_2d_constant_with_cross_terms
        A = np.array([[-1.0, 0.3], [-0.2, -1.5]])
        sigma = rq.ConstantDiffusion([[1.0, 0.4], [0.0, 0.9]])
        system = rq.MultiChannelSystem(A, [np.zeros((2, 1))], sigma)
        std = np.sqrt(np.diag(rq.stationary_gaussian(system, zero_gain, 0, 1.0).cov)).max()
        return system, zero_gain, 1.0, rq.Box([-6 * std] * 2, [6 * std] * 2, [121, 121])
    sigma = {
        "2d_diagonal_s": rq.ConstantDiffusion(np.diag([0.7, 1.3])),
        "2d_diag_affine": rq.DiagAffineDiffusion([0.7, 1.3], [0.5, 2.0]),
    }[name]
    system = rq.MultiChannelSystem(eccentric_plant(4)[0].A, [np.zeros((2, 1))], sigma)
    return system, zero_gain, 0.3, rq.Box([-1.5, -1.5], [1.5, 1.5], [61, 60])


class TestGridSolver:
    def test_ou_matches_analytic(self, ou_system):
        system, gains = ou_system
        box = rq.Box([-6.0], [6.0], [801])
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box)
        exact = _discretized(rq.stationary_gaussian(system, gains, 0, 1.0), box)
        l1 = np.abs(solved.values - exact.values).sum() * box.cell_volume
        assert l1 <= 1e-3

    @pytest.mark.parametrize("n", [1601, 3201])
    def test_ou_matches_analytic_fine_grid(self, ou_system, n):
        # the inverse-iteration solver tripped its negativity guard here
        system, gains = ou_system
        box = rq.Box([-6.0], [6.0], [n])
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box)
        exact = _discretized(rq.stationary_gaussian(system, gains, 0, 1.0), box)
        l1 = np.abs(solved.values - exact.values).sum() * box.cell_volume
        assert l1 <= 1e-3

    def test_symmetric_output(self, ou_system):
        system, gains = ou_system
        box = rq.Box([-5.0], [5.0], [400])
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box)
        np.testing.assert_allclose(solved.values, solved.values[::-1], atol=1e-8)

    def test_diag_affine_zero_slope_matches_constant(self):
        gains = rq.GainSet([[[0.0]]])
        affine = rq.MultiChannelSystem(
            [[-1.0]], [[[1.0]]], rq.DiagAffineDiffusion([1.3], [0.0])
        )
        constant = rq.MultiChannelSystem(
            [[-1.0]], [[[1.0]]], rq.ConstantDiffusion([[1.3]])
        )
        box = rq.Box([-7.0], [7.0], [501])
        a = rq.solve_stationary_fp_grid(affine, gains, 0, 1.0, box=box)
        b = rq.solve_stationary_fp_grid(constant, gains, 0, 1.0, box=box)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_diag_affine_heavier_tails_than_base(self):
        gains = rq.GainSet([[[0.0]]])
        affine = rq.MultiChannelSystem(
            [[-1.0]], [[[1.0]]], rq.DiagAffineDiffusion([1.0], [1.0])
        )
        solved = rq.solve_stationary_fp_grid(affine, gains, 0, 1.0)
        base_law = rq.GaussianDensity([0.0], [[0.5]])
        exact = _discretized(base_law, solved.box)
        # state-amplified noise spreads the law beyond the base Gaussian
        sol_var = float(
            (solved.values * solved.box.center_points().ravel() ** 2).sum()
            * solved.box.cell_volume
        )
        assert sol_var > 0.6

    def test_unstable_mode_raises(self):
        system = rq.MultiChannelSystem([[0.5]], [[[1.0]]], rq.ConstantDiffusion([[1.0]]))
        with pytest.raises(NotHurwitzError):
            rq.solve_stationary_fp_grid(system, rq.GainSet([[[0.0]]]), 0, 1.0)

    @pytest.mark.parametrize(
        "sigma",
        [rq.ConstantDiffusion([[1.0]]), rq.DiagAffineDiffusion([1.0], [0.5])],
        ids=["constant", "diag_affine"],
    )
    def test_default_box_of_unstable_mode_raises(self, sigma):
        system = rq.MultiChannelSystem([[0.5]], [[[1.0]]], sigma)
        with pytest.raises(NotHurwitzError):
            rq.default_stationary_box(system, rq.GainSet([[[0.0]]]), 0, 1.0)

    def test_2d_constant_with_cross_terms(self):
        A = np.array([[-1.0, 0.3], [-0.2, -1.5]])
        S = np.array([[1.0, 0.4], [0.0, 0.9]])
        system = rq.MultiChannelSystem(A, [np.zeros((2, 1))], rq.ConstantDiffusion(S))
        gains = rq.GainSet([np.zeros((1, 2))])
        law = rq.stationary_gaussian(system, gains, 0, 1.0)
        std = np.sqrt(np.diag(law.cov)).max()
        box = rq.Box([-6 * std, -6 * std], [6 * std, 6 * std], [121, 121])
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box)
        exact = _discretized(law, box)
        l1 = np.abs(solved.values - exact.values).sum() * box.cell_volume
        assert l1 <= 5e-3

    def test_grid_residual_is_small(self, ou_system):
        system, gains = ou_system
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 1.0)
        residual = rq.fp_residual(solved, system, gains, 0, 1.0)
        assert residual <= 1e-2

    def test_matches_inverse_iteration_oracle(self):
        A = np.array([[-1.0, 0.3], [-0.2, -1.5]])
        S = np.array([[1.0, 0.4], [0.0, 0.9]])
        system = rq.MultiChannelSystem(A, [np.zeros((2, 1))], rq.ConstantDiffusion(S))
        gains = rq.GainSet([np.zeros((1, 2))])
        std = np.sqrt(np.diag(rq.stationary_gaussian(system, gains, 0, 1.0).cov)).max()
        box = rq.Box([-6 * std, -6 * std], [6 * std, 6 * std], [121, 121])
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box)
        bump = np.exp(-0.5 * np.sum((box.center_points() / (box.widths / 4)) ** 2, axis=1))
        v = null_vector_inverse_iteration(_assemble_fv_operator(system, A, 1.0, box), bump)
        ref = v.reshape(tuple(box.n)) / (v.sum() * box.cell_volume)
        assert np.abs(solved.values - ref).max() <= 1e-8 * ref.max()

    @pytest.mark.parametrize("seed", [1, 4, 5, 6, 7, 8])
    def test_eccentric_rotated_plant_diagonal_noise(self, seed):
        # cell Peclet numbers reach ~42 on these plants at 101^2; a central
        # advective flux stays monotone only up to 2
        system, gains = eccentric_plant(seed)
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 0.1)
        assert tuple(solved.box.n) == (101, 101)
        exact = _discretized(rq.stationary_gaussian(system, gains, 0, 0.1), solved.box)
        l1 = np.abs(solved.values - exact.values).sum() * solved.box.cell_volume
        assert l1 <= 2e-2

    @pytest.mark.xfail(
        raises=NumericalError,
        strict=True,
        reason="central cross-diffusion terms of a full S drive x-frame entries negative",
    )
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_eccentric_rotated_plant_full_noise(self, seed):
        # the same plants with a full S; systemic_redundancy's grid route
        # solves them in the eigenbasis of S S^T, where the diffusion is diagonal
        system, gains = eccentric_plant(seed, diagonal=False)
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 0.1)
        assert tuple(solved.box.n) == (101, 101)
        exact = _discretized(rq.stationary_gaussian(system, gains, 0, 0.1), solved.box)
        l1 = np.abs(solved.values - exact.values).sum() * solved.box.cell_volume
        assert l1 <= 2e-2

    def test_negativity_message_prints_a_float(self):
        # the strict-xfail plant above, whose guard reports about -8e-3
        system, gains = eccentric_plant(0, diagonal=False)
        with pytest.raises(NumericalError, match=r"negative entries down to -\d[\d.e-]*$"):
            rq.solve_stationary_fp_grid(system, gains, 0, 0.1)

    def test_ou_fitted_flux_is_exact(self, ou_system):
        # the exponentially fitted flux reproduces exp(-x^2) cell to cell
        system, gains = ou_system
        box = rq.Box([-6.0], [6.0], [201])
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box)
        exact = _discretized(rq.stationary_gaussian(system, gains, 0, 1.0), box)
        assert np.abs(solved.values - exact.values).sum() * box.cell_volume <= 1e-10

    @pytest.mark.parametrize(
        "sigma",
        [
            rq.ConstantDiffusion(np.diag([0.7, 1.3])),
            rq.DiagAffineDiffusion([0.7, 1.3], [0.5, 2.0]),
        ],
        ids=["constant", "diag_affine"],
    )
    def test_diagonal_diffusion_gives_m_matrix(self, sigma):
        A = eccentric_plant(4)[0].A
        system = rq.MultiChannelSystem(A, [np.zeros((2, 1))], sigma)
        box = rq.Box([-1.0, -1.5], [1.2, 1.5], [41, 37])
        L = _assemble_fv_operator(system, A, 0.3, box).toarray()
        off = L - np.diag(np.diag(L))
        assert np.all(np.diag(L) > 0.0)
        assert np.all(off <= 0.0)
        assert np.abs(L.sum(axis=0)).max() <= 1e-12 * np.abs(L).max()

    @pytest.mark.parametrize(
        "case",
        [
            "1d_odd",
            "1d_even",
            "2d_diagonal_s",
            "2d_diag_affine",
            "rotated_frame",
            "asymmetric_41x37",
            "2d_full_s_x_frame",
        ],
    )
    def test_operator_matches_coo_oracle(self, case):
        if case == "rotated_frame":  # the five-point operator of grid r with a full S
            system, gains, eps, _ = _fold_case("2d_full_s_x_frame")
            _, system, gains = _diffusion_frame(system, gains)
            box = rq.default_stationary_box(system, gains, 0, eps)
        elif case == "asymmetric_41x37":
            system, gains, eps, _ = _fold_case("2d_diag_affine")
            box = rq.Box([-1.0, -1.5], [1.2, 1.5], [41, 37])
        else:
            system, gains, eps, box = _fold_case(case)
        A = rq.closed_loop_matrix(system, gains, 0)
        ref = fv_operator_coo_reference(system, A, eps, box)
        # entrywise a - b is exact, so a zero difference is equality
        err = abs(_assemble_fv_operator(system, A, eps, box) - ref).max()
        if case == "2d_full_s_x_frame":  # its cross terms are summed in another order
            assert err <= 4 * np.spacing(abs(ref).max())
        else:
            assert err == 0.0

    def test_assembly_memory_is_a_few_operators(self):
        # the full-S x-frame operator of test_2d_constant_with_cross_terms at
        # 201^2: the traced peak, the returned matrix included, against the
        # bytes of that CSC matrix
        system, gains, eps, box = _fold_case("2d_full_s_x_frame")
        box = rq.Box(box.lo, box.hi, [201, 201])
        A = rq.closed_loop_matrix(system, gains, 0)
        tracemalloc.start()
        try:
            L = _assemble_fv_operator(system, A, eps, box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * (L.data.nbytes + L.indices.nbytes + L.indptr.nbytes)

    @pytest.mark.parametrize(
        "case",
        ["1d_odd", "1d_even", "2d_diagonal_s", "2d_full_s_x_frame", "2d_diag_affine"],
    )
    def test_symmetric_box_folds_to_the_unfolded_solve(self, case):
        system, gains, eps, box = _fold_case(case)
        solved = rq.solve_stationary_fp_grid(system, gains, 0, eps, box=box).values
        ref = _unfolded_solve(system, gains, 0, eps, box)
        assert np.abs(solved - ref).max() <= 1e-12 * ref.max()
        np.testing.assert_array_equal(solved, np.flip(solved))

    @pytest.mark.parametrize(
        "sigma",
        [
            rq.ConstantDiffusion(np.diag([0.7, 1.3])),
            rq.DiagAffineDiffusion([0.7, 1.3], [0.5, 2.0]),
        ],
        ids=["constant", "diag_affine"],
    )
    def test_asymmetric_box_is_not_folded(self, sigma):
        A = eccentric_plant(4)[0].A
        system = rq.MultiChannelSystem(A, [np.zeros((2, 1))], sigma)
        gains = rq.GainSet([np.zeros((1, 2))])
        box = rq.Box([-1.0, -1.5], [1.2, 1.5], [41, 37])
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 0.3, box=box)
        np.testing.assert_array_equal(solved.values, _unfolded_solve(system, gains, 0, 0.3, box))

    def test_symmetric_box_factors_half_the_cells(self, monkeypatch):
        factored = []
        splu = scipy.sparse.linalg.splu

        def recording_splu(A, **kwargs):
            factored.append(A.shape)
            return splu(A, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
        system, gains = eccentric_plant(4)
        rq.solve_stationary_fp_grid(system, gains, 0, 0.1, n_cells=101)
        assert factored == [((101**2 + 1) // 2, (101**2 + 1) // 2)]

    @pytest.mark.parametrize("stretch", [1.0, 1.05], ids=["folded", "unfolded"])
    def test_1d_tail_is_exact_to_round_off(self, scalar_two_channel, stretch):
        # the bundled scalar system: mode 0 (a = -3) on the box of mode 1
        # (a = -1), as the grid route shares it, reaches ~10 standard
        # deviations; the fitted flux is exact in 1-D, so the solve should
        # match the discrete Gaussian wherever the law is resolvable. The
        # box stretched on one side is solved unfolded; a boundary column's
        # diagonal ties with its off-diagonal entry there, and threshold
        # pivoting let round-off pick the pivot, which cost the far tail
        # 9e-2 relative error
        system, gains = scalar_two_channel
        b = rq.default_stationary_box(system, gains, 1, 0.1)
        box = rq.Box(b.lo, stretch * b.hi, b.n)
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 0.1, box=box)
        exact = _discretized(rq.stationary_gaussian(system, gains, 0, 0.1), box).values
        resolvable = exact > 1e-13 * exact.max()
        assert resolvable.sum() > 0.7 * box.n[0]
        rel = np.abs(solved.values - exact)[resolvable] / exact[resolvable]
        assert rel.max() <= 1e-10

    def test_box_and_cell_count_must_agree(self, ou_system):
        # a box fixes its own cell counts; a differing n_cells was silently dropped
        system, gains = ou_system
        box = rq.Box([-1.0], [1.0], [51])
        with pytest.raises(DomainError, match=r"box has \[51\] cells per axis but n_cells = 801"):
            rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box, n_cells=801)
        agreed = rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box, n_cells=51)
        alone = rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box)
        np.testing.assert_array_equal(agreed.values, alone.values)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_or_two_cells_give_the_uniform_law(self, ou_system, n):
        # the pin row has no diagonal entry to set in place: one cell has no
        # face, and the fold of two cells cancels it
        system, gains = ou_system
        box = rq.Box([-1.0], [1.0], [n])
        solved = rq.solve_stationary_fp_grid(system, gains, 0, 1.0, box=box)
        np.testing.assert_allclose(solved.values, 0.5, rtol=1e-15)

    def test_disconnected_operator_raises_non_unique(self, ou_system):
        # two decoupled zero-flux blocks: a two-dimensional null space that a
        # valid S S^T never produces through the public API
        system, _ = ou_system
        box = rq.Box([-6.0], [6.0], [201])
        L = _assemble_fv_operator(system, np.array([[-1.0]]), 1.0, box)
        with pytest.raises(NonUniqueError):
            _pinned_null_vector(scipy.sparse.block_diag([L, L], format="csc"), 100)

    def test_exactly_singular_factor_raises_non_unique(self):
        # two decoupled two-cell pairs: pinning a cell of the first leaves
        # the second pair's rows exactly dependent, so splu itself reports
        # the factor singular
        pair = scipy.sparse.csc_matrix([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(NonUniqueError, match="pivot ratio 0.000e"):
            _pinned_null_vector(scipy.sparse.block_diag([pair, pair], format="csc"), 0)


_OU = (
    rq.MultiChannelSystem([[-1.0]], [[[1.0]]], rq.ConstantDiffusion([[1.0]])),
    rq.GainSet([[[0.0]]]),
)
_CUBE = rq.MultiChannelSystem(-np.eye(3), [np.eye(3)], rq.ConstantDiffusion(np.eye(3)))
_LINE = rq.Box([-3.0], [3.0], [30])
_SQUARE = rq.Box([-3.0, -3.0], [3.0, 3.0], [5, 5])
_UNIT = rq.GaussianDensity([0.0], [[1.0]])


def _on_line(box=_LINE):
    return rq.GridDensity.from_unnormalized(box, np.ones(tuple(box.n)))


def _samples(samples=np.zeros((4, 1)), dt=0.1):
    return rq.SampleSet(samples, seed=0, t_final=1.0, dt=dt, mode=0)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: rq.stationary_gaussian(*_OU, 0, 0.0),
            DomainError, "eps must be a positive real", id="stationary_gaussian_eps",
        ),
        pytest.param(
            lambda: rq.simulate_sde(*_OU, 0, -1.0, 1.0, 0.1, 4, seed=1),
            DomainError, "eps must be a nonnegative real", id="simulate_eps",
        ),
        pytest.param(
            lambda: rq.simulate_sde(*_OU, 0, 1.0, 1.0, 0.1, 4, seed=-1),
            DomainError, "seed must be nonnegative", id="simulate_seed",
        ),
        pytest.param(
            lambda: rq.simulate_sde(*_OU, 0, 1.0, 1.0, 0.1, 4, seed=1.5),
            DomainError, "seed must be an integer, got 1.5", id="simulate_fractional_seed",
        ),
        pytest.param(
            lambda: rq.simulate_sde(*_OU, 0, 1.0, 1.0, 0.1, 4, seed=True),
            DomainError, "seed must be an integer, got True", id="simulate_bool_seed",
        ),
        pytest.param(
            lambda: rq.simulate_sde(*_OU, 0, 1.0, 1.0, 0.1, 200.0, seed=1),
            DomainError, "n_paths must be an integer, got 200.0", id="simulate_float_paths",
        ),
        pytest.param(
            lambda: rq.simulate_sde(*_OU, 0, 1.0, 1.0, 0.1, True, seed=1),
            DomainError, "n_paths must be an integer, got True", id="simulate_bool_paths",
        ),
        pytest.param(
            lambda: rq.simulate_sde(*_OU, 0, 1.0, 1.0, 0.1, 4, seed=1, x0=[0.0, 0.0]),
            DimensionError, "x0 has dimension 2, expected 1", id="simulate_x0",
        ),
        pytest.param(
            lambda: _samples(np.zeros((0, 1))),
            DimensionError, "samples must be a nonempty n x d matrix", id="sample_set_empty",
        ),
        pytest.param(lambda: _samples(dt=0.0), DomainError, "need dt > 0", id="sample_set_dt"),
        pytest.param(
            lambda: rq.empirical_density(_samples(), _SQUARE),
            DimensionError, "box dimension 2 does not match samples (1)", id="histogram_box",
        ),
        pytest.param(
            lambda: rq.solve_stationary_fp_grid(*_OU, 0, 0.0),
            DomainError, "eps must be a positive real", id="grid_eps",
        ),
        pytest.param(
            lambda: rq.solve_stationary_fp_grid(*_OU, 0, 1.0, box=_SQUARE),
            DimensionError, "box dimension 2 does not match state dimension 1", id="grid_box",
        ),
        pytest.param(
            lambda: rq.fp_residual(_on_line(), *_OU, 0, 1.0, rq.Box([-3.0], [3.0], [31])),
            GridMismatchError, "explicit box does not match", id="residual_box_mismatch",
        ),
        pytest.param(
            lambda: rq.fp_residual(_UNIT, *_OU, 0, 1.0),
            DomainError, "a box is required", id="residual_gaussian_without_box",
        ),
        pytest.param(
            lambda: rq.fp_residual(np.ones(30), *_OU, 0, 1.0, _LINE),
            DomainError, "unsupported density type ndarray", id="residual_type",
        ),
        pytest.param(
            lambda: rq.fp_residual(_on_line(_SQUARE), *_OU, 0, 1.0),
            DimensionError, "box dimension 2 does not match state dimension 1", id="residual_dim",
        ),
        pytest.param(
            lambda: rq.fp_residual(
                rq.GaussianDensity(np.zeros(3), np.eye(3)), _CUBE, rq.GainSet([np.zeros((3, 3))]),
                0, 1.0, rq.Box(-np.ones(3), np.ones(3), [3, 3, 3]),
            ),
            DimensionError, "fp_residual supports d <= 2", id="residual_d3",
        ),
    ],
)
def test_typed_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize("kind", ["constant", "diag_affine"])
def test_simulate_accepts_numpy_integers(kind):
    noise = rq.ConstantDiffusion(np.eye(2)) if kind == "constant" else _PLANE_NOISE[kind]
    system, gains, _ = _plane(noise)
    numpy_ints = rq.simulate_sde(system, gains, 0, 1.0, 0.1, 1e-2, np.int64(70), np.uint32(5))
    plain = rq.simulate_sde(system, gains, 0, 1.0, 0.1, 1e-2, 70, 5)
    assert np.array_equal(numpy_ints.samples, plain.samples)
    assert type(numpy_ints.seed) is int
