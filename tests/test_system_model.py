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
    @example(seed=3675, t=3.0)  # residual 2.4e-10 with ||F|| ||B|| = 3.3e6
    @example(seed=2924, t=2.0)  # largest residual / (||F|| ||B|| u) seen, ~900
    def test_inverse_identity(self, seed, t):
        # Rounding in F = exp(Mt), B = exp(-Mt) and their product scales with
        # ||F|| ||B|| u, which a fixed atol ignores. Scaling and squaring is
        # not backward stable for nonnormal M, so the constant is measured:
        # over 310 031 draws of this strategy (seeds 0..10 000, 31 t each) the
        # ratio peaked at 908, and c = 1e4 keeps a 10x margin above it.
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
    def test_bit_identical_to_scipy_bartels_stewart(self, d):
        import scipy.linalg

        rng = seeded(d)
        for _ in range(10):
            A_cl = random_hurwitz(rng, d, margin=0.1)
            W = rng.standard_normal((d, d))
            Q = W @ W.T
            expected = scipy.linalg.solve_continuous_lyapunov(A_cl, -Q)
            np.testing.assert_array_equal(rq.solve_lyapunov(A_cl, Q), 0.5 * (expected + expected.T))

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
    def test_abscissa_from_schur_diagonal_rejects_non_hurwitz(self, A_cl):
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
        # Hurwitz, but two eigenvalues sum to ~1e-17: trsyl perturbs the
        # equation, and the perturbed P is not even positive definite
        with pytest.raises(rq.NumericalError, match="trsyl"):
            rq.solve_lyapunov(A_cl, np.eye(2))

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
