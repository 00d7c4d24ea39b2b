import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redunquant as rq
from redunquant.errors import (
    DimensionError,
    DomainError,
    NotHurwitzError,
)

from .conftest import random_hurwitz
from .oracles import char_poly_abscissa, lyapunov_reference

matrix_entries = st.floats(-2.0, 2.0, allow_nan=False)


def seeded(seed):
    return np.random.default_rng(seed)


class TestTypes:
    def test_system_rejects_wrong_b_rows(self):
        with pytest.raises(DimensionError):
            rq.MultiChannelSystem(
                [[1.0, 0.0], [0.0, 1.0]], [[[1.0]]], rq.ConstantDiffusion([[1.0, 0.0], [0.0, 1.0]])
            )

    def test_system_rejects_nonfinite_a(self):
        with pytest.raises(DomainError):
            rq.MultiChannelSystem([[np.inf]], [[[1.0]]], rq.ConstantDiffusion([[1.0]]))

    def test_constant_diffusion_rejects_degenerate(self):
        with pytest.raises(DomainError):
            rq.ConstantDiffusion([[1.0, 0.0], [1.0, 0.0]])  # rank 1, kappa = 0

    def test_constant_diffusion_kappa(self):
        spec = rq.ConstantDiffusion([[2.0, 0.0], [0.0, 3.0]])
        assert spec.kappa == pytest.approx(4.0)

    def test_diag_affine_validation(self):
        spec = rq.DiagAffineDiffusion([1.0, 2.0], [0.5, 0.0])
        assert spec.kappa == pytest.approx(1.0)
        with pytest.raises(DomainError):
            rq.DiagAffineDiffusion([1.0, -1.0], [0.0, 0.0])
        with pytest.raises(DomainError):
            rq.DiagAffineDiffusion([1.0, 1.0], [-0.1, 0.0])

    @pytest.mark.parametrize(
        "base, slope, error",
        [
            ([[1.0]], [0.5], DimensionError),
            ([1.0, 1.0], [0.5], DimensionError),
            ([1.0, np.nan], [0.5, 0.5], DomainError),
            ([1.0], [-0.1], DomainError),
            ([0.0], [0.5], DomainError),
        ],
        ids=["2d_base", "unequal_lengths", "nan", "negative_slope", "zero_base"],
    )
    def test_diag_affine_rejects_malformed(self, base, slope, error):
        with pytest.raises(error):
            rq.DiagAffineDiffusion(base, slope)

    def test_immutable_arrays(self, scalar_two_channel):
        system, gains = scalar_two_channel
        with pytest.raises(ValueError):
            system.A[0, 0] = 5.0
        with pytest.raises(ValueError):
            gains.K[0][0, 0] = 5.0


class TestClosedLoop:
    def test_scalar_examples(self, scalar_two_channel):
        system, gains = scalar_two_channel
        np.testing.assert_array_equal(rq.closed_loop_matrix(system, gains, 0), [[-3.0]])
        np.testing.assert_array_equal(rq.closed_loop_matrix(system, gains, 1), [[-1.0]])
        np.testing.assert_array_equal(rq.closed_loop_matrix(system, gains, 2), [[-1.0]])

    def test_zero_gains_give_plant(self, scalar_two_channel):
        system, _ = scalar_two_channel
        zero = rq.GainSet([[[0.0]], [[0.0]]])
        for mode in range(3):
            np.testing.assert_array_equal(
                rq.closed_loop_matrix(system, zero, mode), system.A
            )

    def test_mode_out_of_range(self, scalar_two_channel):
        system, gains = scalar_two_channel
        with pytest.raises(DimensionError):
            rq.closed_loop_matrix(system, gains, 3)

    def test_gain_shape_mismatch(self, scalar_two_channel):
        system, _ = scalar_two_channel
        bad = rq.GainSet([[[-2.0, 0.0]], [[-2.0]]])
        with pytest.raises(DimensionError):
            rq.closed_loop_matrix(system, bad, 0)

    @given(seed=st.integers(0, 10_000), d=st.integers(1, 4), n=st.integers(1, 3))
    def test_outage_difference_is_channel_term(self, seed, d, n):
        from .conftest import random_gains, random_system

        rng = seeded(seed)
        system = random_system(rng, d, n)
        gains = random_gains(rng, system)
        nominal = rq.closed_loop_matrix(system, gains, 0)
        for j in range(1, n + 1):
            outage = rq.closed_loop_matrix(system, gains, j)
            # summation-order round-off allows a couple of ulps
            np.testing.assert_allclose(
                nominal - outage, system.B[j - 1] @ gains.K[j - 1], rtol=0, atol=1e-13
            )


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert rq.spectral_abscissa(np.diag([-3.0, -1.0])) == pytest.approx(-1.0)

    def test_rotation(self):
        assert rq.spectral_abscissa([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_char_poly_roots(self):
        rng = seeded(7)
        for _ in range(50):
            M = rng.uniform(-2.0, 2.0, (4, 4))
            assert rq.spectral_abscissa(M) == pytest.approx(
                char_poly_abscissa(M), abs=1e-8
            )

    @given(seed=st.integers(0, 10_000), c=st.floats(-5.0, 5.0, allow_nan=False))
    def test_shift_invariance(self, seed, c):
        M = seeded(seed).uniform(-2.0, 2.0, (3, 3))
        assert rq.spectral_abscissa(M + c * np.eye(3)) == pytest.approx(
            rq.spectral_abscissa(M) + c, abs=1e-9
        )


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(rq.matrix_exponential(np.zeros((3, 3)), 2.7), np.eye(3))

    def test_diagonal(self):
        E = rq.matrix_exponential(np.diag([-1.0, -2.0]), 1.0)
        np.testing.assert_allclose(E, np.diag([np.exp(-1.0), np.exp(-2.0)]), rtol=1e-13)

    def test_nilpotent(self):
        for t in (0.3, 1.0, 7.5):
            E = rq.matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]]), t)
            np.testing.assert_allclose(E, [[1.0, t], [0.0, 1.0]], rtol=1e-14)

    @given(seed=st.integers(0, 10_000), t=st.floats(0.01, 3.0, allow_nan=False))
    @example(seed=3675, t=3.0)  # residual 1.2e-10 with ||F|| ||B|| = 3.3e6
    @example(seed=2924, t=2.0)  # largest residual / (||F|| ||B|| u) under scipy's expm, ~900
    @example(seed=6206, t=3.0)  # largest ratio seen here, 8.1
    def test_inverse_identity(self, seed, t):
        # Rounding in F = exp(Mt), B = exp(-Mt) and their product scales with
        # ||F|| ||B|| u, which a fixed atol ignores. Scaling and squaring is
        # not backward stable for nonnormal M, so the constant is measured:
        # over 310 031 draws of this strategy (seeds 0..10 000, t = 0.01 and
        # 0.1, 0.2, ..., 3.0) the ratio peaked at 8.1. Under scipy's expm it
        # reached 908 (898 with scipy 1.17), and c = 1e4 was set 10x above that.
        M = seeded(seed).uniform(-2.0, 2.0, (3, 3))
        forward = rq.matrix_exponential(M, t)
        backward = rq.matrix_exponential(M, -t)
        scale = np.linalg.norm(forward, 2) * np.linalg.norm(backward, 2)
        tol = 1e4 * scale * np.finfo(float).eps
        np.testing.assert_allclose(forward @ backward, np.eye(3), rtol=0.0, atol=tol)

    @given(seed=st.integers(0, 10_000), t=st.floats(0.01, 3.0, allow_nan=False))
    def test_determinant_is_exp_trace(self, seed, t):
        M = seeded(seed).uniform(-2.0, 2.0, (3, 3))
        det = np.linalg.det(rq.matrix_exponential(M, t))
        expected = np.exp(np.trace(M) * t)
        assert det == pytest.approx(expected, rel=1e-8)

    def test_overflow_raises(self):
        with pytest.raises(rq.NumericalError):
            rq.matrix_exponential(np.array([[500.0]]), 10.0)

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 32])
    def test_matches_scipy_on_non_normal_matrices(self, d):
        # scipy's expm is an independent reference. Relative to ||exp(Mt)||_F
        # the worst difference is 4.2e-12 (d = 2), nearly all of it scipy's:
        # against 40-digit references this kernel is within 5.7e-14 on these
        # matrices for d <= 8, and scipy within 4.2e-12
        import scipy.linalg

        rng = seeded([5, d])
        for _ in range(10):
            M = rng.standard_normal((d, d)) + np.triu(rng.uniform(-3.0, 3.0, (d, d)), 1)
            for size in (0.01, 1.0, 5.0, 20.0, 50.0):
                for t in (size, -size) / np.linalg.norm(M):
                    expected = scipy.linalg.expm(M * t)
                    difference = np.linalg.norm(rq.matrix_exponential(M, t) - expected)
                    assert difference <= 1e-11 * np.linalg.norm(expected)

    @pytest.mark.parametrize("d", [2, 8, 32])
    @pytest.mark.parametrize("lam", [-1.0, 0.0, 0.5])
    def test_jordan_block(self, d, lam):
        # exp(J t) for J = lam I + N has entries e^(lam t) t^k / k! on the
        # k-th superdiagonal; the worst relative error is 5.1e-15
        J = lam * np.eye(d) + np.eye(d, k=1)
        k = np.arange(d) - np.arange(d)[:, None]  # j - i
        factorials = np.cumprod(np.r_[1.0, np.arange(1.0, d)])
        for size in (0.1, 1.0, 10.0, 50.0):
            for t in (size, -size) / np.linalg.norm(J):
                expected = np.where(
                    k >= 0, np.exp(lam * t) * t ** np.abs(k) / factorials[np.abs(k)], 0.0
                )
                difference = np.linalg.norm(rq.matrix_exponential(J, t) - expected)
                assert difference <= 1e-13 * np.linalg.norm(expected)


class TestLyapunov:
    def test_scalar(self):
        np.testing.assert_allclose(
            rq.solve_lyapunov(np.array([[-3.0]]), np.array([[1.0]])), [[1.0 / 6.0]], rtol=1e-14
        )

    def test_decoupled_diagonal(self):
        P = rq.solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        np.testing.assert_allclose(P, np.diag([0.5, 0.25]), rtol=1e-13)

    def test_not_hurwitz_raises(self):
        with pytest.raises(NotHurwitzError):
            rq.solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_asymmetric_q_raises(self):
        with pytest.raises(DomainError):
            rq.solve_lyapunov(-np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_matches_kronecker_oracle(self):
        rng = seeded(11)
        for _ in range(20):
            A_cl = random_hurwitz(rng, 5)
            W = rng.uniform(-1.0, 1.0, (5, 5))
            Q = W @ W.T + 0.1 * np.eye(5)
            P = rq.solve_lyapunov(A_cl, Q)
            np.testing.assert_allclose(P, lyapunov_reference(A_cl, Q), rtol=1e-8, atol=1e-10)

    def test_d32_residual_and_kronecker_oracle(self):
        rng = seeded(32)
        A_cl = random_hurwitz(rng, 32)
        W = rng.uniform(-1.0, 1.0, (32, 32))
        Q = W @ W.T + 0.1 * np.eye(32)
        P = rq.solve_lyapunov(A_cl, Q)
        residual = np.linalg.norm(A_cl @ P + P @ A_cl.T + Q, "fro")
        bound = 1e-10 * (
            1.0 + np.linalg.norm(Q, "fro") + np.linalg.norm(A_cl, "fro") * np.linalg.norm(P, "fro")
        )
        assert residual <= bound
        np.testing.assert_allclose(P, lyapunov_reference(A_cl, Q), rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 5, 16, 32])
    def test_matches_scipy_bartels_stewart(self, d):
        # scipy's Schur solver is an independent reference. The worst
        # difference, relative to max|P|, is 7.4e-14 on these 50 equations
        # (d = 32) and 9.2e-14 on the 200 margin-0.1 plants of
        # scripts/convergence_study.py; 400 more such plants reached 1.8e-13
        import scipy.linalg

        rng = seeded(d)
        for _ in range(10):
            A_cl = random_hurwitz(rng, d, margin=0.1)
            W = rng.standard_normal((d, d))
            Q = W @ W.T
            expected = scipy.linalg.solve_continuous_lyapunov(A_cl, -Q)
            difference = np.abs(rq.solve_lyapunov(A_cl, Q) - expected).max()
            assert difference <= 2e-13 * np.abs(expected).max()

    def test_near_marginal_non_normal_plant_needs_the_refinement_step(self):
        # abscissa -1.0e-6: one Smith sweep leaves a residual of 0.26 against
        # the bound 0.15; the sweep on its residual brings it to ~7e-8
        import scipy.linalg

        A_cl = np.array(
            [[-1.16028328130594, -1.8592429271083921], [0.7308894225311937, 1.16028128130594]]
        )
        Q = np.array(
            [[0.09376173017346814, -0.3932893421323493], [-0.3932893421323493, 6.5675321109213955]]
        )
        P = rq.solve_lyapunov(A_cl, Q)
        residual = np.linalg.norm(A_cl @ P + P @ A_cl.T + Q, "fro")
        bound = 1e-10 * (
            1.0 + np.linalg.norm(Q, "fro") + np.linalg.norm(A_cl, "fro") * np.linalg.norm(P, "fro")
        )
        assert residual <= bound
        expected = scipy.linalg.solve_continuous_lyapunov(A_cl, -Q)
        assert np.abs(P - expected).max() <= 1e-6 * np.abs(expected).max()

    @pytest.mark.parametrize(
        "A_cl",
        [
            [[0.0]],
            [[0.0, 1.0], [-1.0, 0.0]],
            [[0.0, 1.0], [0.0, 0.0]],
            [[1e-3, 2.0, 0.0], [-2.0, 1e-3, 0.0], [0.0, 0.0, -1.0]],
        ],
        ids=["zero", "rotation", "jordan_block_at_0", "abscissa_1e-3"],
    )
    def test_abscissa_rejects_non_hurwitz(self, A_cl):
        with pytest.raises(NotHurwitzError):
            rq.solve_lyapunov(np.array(A_cl), np.eye(len(A_cl)))

    @pytest.mark.parametrize(
        "A_cl, Q",
        [
            ([[-1.0]], [[np.nan]]),
            ([[-1.0]], [[np.inf]]),
            ([[-1.0, np.nan], [0.0, -1.0]], np.eye(2)),
        ],
        ids=["Q_nan", "Q_inf", "A_nan"],
    )
    def test_non_finite_input_raises_domain_error(self, A_cl, Q):
        with pytest.raises(DomainError, match="finite"):
            rq.solve_lyapunov(np.array(A_cl), np.array(Q))

    @pytest.mark.parametrize(
        "A_cl",
        [np.diag([-1e-17, -1.0]), np.array([[-1e-17, 1.0], [-1.0, -1e-17]])],
        ids=["real", "complex_pair"],
    )
    def test_near_singular_equation_raises(self, A_cl):
        # Hurwitz, but two eigenvalues sum to ~1e-17, below round-off of
        # ||A_cl||: no P computed in double precision has accurate digits
        with pytest.raises(rq.NumericalError, match="zero within round-off"):
            rq.solve_lyapunov(A_cl, np.eye(2))

    @pytest.mark.parametrize(
        "A_cl, match",
        [([[-1e-310]], "did not converge"), ([[-1.0, 1e300], [0.0, -2.0]], "round-off")],
        ids=["subnormal_shift", "overflowing_norm"],
    )
    def test_unrepresentable_equation_raises_numerical_error(self, A_cl, match):
        # a subnormal spectrum underflows the Smith shift to 0, so U = I never
        # decays; ||A_cl||_F overflows to inf, and no warning escapes either
        with pytest.raises(rq.NumericalError, match=match):
            rq.solve_lyapunov(np.array(A_cl), np.eye(len(A_cl)))

    @given(seed=st.integers(0, 10_000), d=st.integers(1, 6))
    @settings(max_examples=30)
    def test_solution_symmetric_pd_for_pd_q(self, seed, d):
        rng = seeded(seed)
        A_cl = random_hurwitz(rng, d)
        W = rng.uniform(-1.0, 1.0, (d, d))
        Q = W @ W.T + 0.5 * np.eye(d)
        P = rq.solve_lyapunov(A_cl, Q)
        np.testing.assert_array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() > 0.0


_SIGMA = rq.ConstantDiffusion([[1.0]])


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: rq.MultiChannelSystem([[1.0, 0.0]], [[[1.0]]], _SIGMA),
            DimensionError, "A must be square, got shape (1, 2)", id="system_A_not_square",
        ),
        pytest.param(
            lambda: rq.MultiChannelSystem([[1.0]], [], _SIGMA),
            DimensionError, "at least one input channel", id="system_no_channel",
        ),
        pytest.param(
            lambda: rq.MultiChannelSystem([[1.0]], [[[1.0]]], [[1.0]]),
            DomainError, "sigma must be a ConstantDiffusion", id="system_sigma",
        ),
        pytest.param(
            lambda: rq.MultiChannelSystem([[1.0]], [[[1.0]]], rq.ConstantDiffusion(np.eye(2))),
            DimensionError, "diffusion dimension 2 does not match state dimension 1",
            id="system_sigma_dim",
        ),
        pytest.param(lambda: rq.GainSet([]), DimensionError, "at least one gain", id="gains_empty"),
        pytest.param(
            lambda: rq.spectral_abscissa(np.ones(3)),
            DimensionError, "M must be square", id="abscissa_shape",
        ),
        pytest.param(
            lambda: rq.spectral_abscissa([[np.nan]]),
            DomainError, "M contains non-finite entries", id="abscissa_nan",
        ),
        pytest.param(
            lambda: rq.matrix_exponential(np.ones((2, 3)), 1.0),
            DimensionError, "M must be square", id="expm_shape",
        ),
        pytest.param(
            lambda: rq.matrix_exponential([[np.inf]], 1.0),
            DomainError, "inputs must be finite", id="expm_inf_M",
        ),
        pytest.param(
            lambda: rq.matrix_exponential([[-1.0]], np.nan),
            DomainError, "inputs must be finite", id="expm_nan_t",
        ),
        pytest.param(
            lambda: rq.solve_lyapunov(np.ones((1, 2)), np.eye(2)),
            DimensionError, "A_cl must be square", id="lyapunov_A_shape",
        ),
        pytest.param(
            lambda: rq.solve_lyapunov(-np.eye(2), np.eye(3)),
            DimensionError, "Q shape (3, 3) does not match A_cl", id="lyapunov_Q_shape",
        ),
        pytest.param(
            lambda: rq.solve_lyapunov(-np.eye(2), -np.eye(2)),
            DomainError, "Q must be positive semidefinite", id="lyapunov_Q_indefinite",
        ),
    ],
)
def test_typed_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
