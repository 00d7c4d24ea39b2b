import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redunquant as rq
from redunquant.errors import NumericalError, SynthesisFailedError
from redunquant.reliable_gains import solve_care_newton

from .conftest import random_gains, random_system
from .oracles import brute_force_reliable, care_extended_pencil, care_newton_kleinman


def _riccati_cases():
    """(A, B, R, Q, reference solver) of the Riccati accuracy test."""
    rng = np.random.default_rng(5)
    for k in range(10):
        d = int(rng.integers(2, 5))
        A = rng.uniform(-1.0, 1.0, (d, d))
        B = rng.uniform(-1.0, 1.0, (d, 2))
        yield pytest.param(A, B, np.eye(2), np.eye(d), care_newton_kleinman, id=f"random{k}")
    # the closed_form benchmark's synthesis plants at both ends of the theta
    # ladder; the Newton-Kleinman start does not stabilize the d=32 plant
    for d in (4, 8, 16, 32):
        rng = np.random.default_rng([0, d])
        A = rng.uniform(-2.0, 2.0, (d, d))
        B = np.hstack([rng.uniform(-2.0, 2.0, (d, 1)) for _ in range(4)])
        for theta in (1.0, 1024.0):
            yield pytest.param(
                A, B, np.eye(4) / theta, np.eye(d), care_extended_pencil,
                id=f"synth-d{d}-theta{theta:g}",
            )


class TestVerify:
    def test_scalar_reliable(self, scalar_two_channel):
        system, gains = scalar_two_channel
        report = rq.verify_reliable(system, gains)
        np.testing.assert_allclose(report.abscissae, [-3.0, -1.0, -1.0], atol=1e-12)
        assert report.margin == pytest.approx(1.0)
        assert report.reliable

    def test_marginal_failure_mode(self, scalar_two_channel):
        system, _ = scalar_two_channel
        weak = rq.GainSet([[[-1.0]], [[-1.0]]])
        report = rq.verify_reliable(system, weak)
        np.testing.assert_allclose(report.abscissae, [-1.0, 0.0, 0.0], atol=1e-12)
        assert not report.reliable

    def test_open_loop_stable_zero_gains(self):
        system = rq.MultiChannelSystem(
            [[-1.0]], [[[1.0]], [[1.0]]], rq.ConstantDiffusion([[1.0]])
        )
        zero = rq.GainSet([[[0.0]], [[0.0]]])
        report = rq.verify_reliable(system, zero)
        np.testing.assert_allclose(report.abscissae, [-1.0, -1.0, -1.0], atol=1e-12)
        assert report.reliable

    def test_agrees_with_brute_force_oracle(self):
        rng = np.random.default_rng(2024)
        disagreements = 0
        for _ in range(300):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 4))
            system = random_system(rng, d, n)
            gains = random_gains(rng, system)
            report = rq.verify_reliable(system, gains)
            if report.reliable != brute_force_reliable(system, gains):
                disagreements += 1
        assert disagreements == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        system = random_system(rng, 3, 2)
        gains = random_gains(rng, system)
        T = rng.uniform(-1.0, 1.0, (3, 3)) + 2.0 * np.eye(3)
        T_inv = np.linalg.inv(T)
        transformed = rq.MultiChannelSystem(
            T @ system.A @ T_inv, [T @ Bi for Bi in system.B], system.sigma
        )
        gains_t = rq.GainSet([Ki @ T_inv for Ki in gains.K])
        a = rq.verify_reliable(system, gains).abscissae
        b = rq.verify_reliable(transformed, gains_t).abscissae
        np.testing.assert_allclose(a, b, atol=1e-8)


class TestRiccati:
    def test_scalar_closed_form(self):
        # A=1, B=[1 1], R=I/theta, Q=1 has P = (1 + sqrt(1+2 theta)) / (2 theta)
        for theta in (1.0, 4.0, 64.0):
            A = np.array([[1.0]])
            B = np.array([[1.0, 1.0]])
            R = np.eye(2) / theta
            expected = (1.0 + np.sqrt(1.0 + 2.0 * theta)) / (2.0 * theta)
            assert solve_care_newton(A, B, R, np.eye(1))[0, 0] == pytest.approx(
                expected, rel=1e-7
            )
            # the oracle stops at residual 1e-9, so its P carries ~1e-9
            assert care_newton_kleinman(A, B, R, np.eye(1))[0, 0] == pytest.approx(
                expected, rel=1e-7
            )

    @pytest.mark.parametrize("A, B, R, Q, reference", _riccati_cases())
    def test_matches_newton_kleinman_oracle(self, A, B, R, Q, reference):
        P = solve_care_newton(A, B, R, Q)
        np.testing.assert_allclose(P, reference(A, B, R, Q), rtol=1e-7, atol=1e-9)
        G = B @ np.linalg.solve(R, B.T)
        assert np.linalg.eigvals(A - G @ P).real.max() < 0.0

    @pytest.mark.parametrize(
        "A, B",
        [
            # Hamiltonian eigenvalues +-i: no stable subspace of dimension d
            pytest.param([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [0.0]], id="imaginary-axis"),
            pytest.param([[1.0, 0.0], [0.0, -1.0]], [[0.0], [1.0]], id="uncontrollable"),
        ],
    )
    @pytest.mark.parametrize("tol", [1e-9, np.inf], ids=["residual", "no-residual"])
    def test_no_stabilizing_solution_raises(self, A, B, tol):
        # with the residual bound off, the Schur split checks alone must fail
        with pytest.raises(NumericalError):
            solve_care_newton(np.array(A), np.array(B), np.eye(1), np.eye(2), tol=tol)


class TestSynthesis:
    def test_scalar_two_channel_succeeds(self):
        system = rq.MultiChannelSystem(
            [[1.0]], [[[1.0]], [[1.0]]], rq.ConstantDiffusion([[1.0]])
        )
        gains = rq.synthesize_gains(system)
        report = rq.verify_reliable(system, gains)
        assert report.reliable and report.margin >= 1e-6

    def test_zero_authority_channel_fails(self):
        system = rq.MultiChannelSystem(
            [[1.0]], [[[1.0]], [[0.0]]], rq.ConstantDiffusion([[1.0]])
        )
        with pytest.raises(SynthesisFailedError) as err:
            rq.synthesize_gains(system)
        assert err.value.best_report is not None
        assert "not a certificate" in str(err.value)

    @pytest.mark.parametrize(
        "A, B",
        [
            ([[1.0]], [[[0.0]], [[0.0]]]),
            ([[1.0, 0.0], [0.0, -1.0]], [[[0.0], [1.0]], [[0.0], [2.0]]]),
        ],
        ids=["no-authority", "uncontrollable-unstable-mode"],
    )
    def test_unstabilizable_plant_fails_before_ladder(self, A, B, monkeypatch):
        system = rq.MultiChannelSystem(A, B, rq.ConstantDiffusion(np.eye(len(A))))
        for name in ("solve_care_newton", "_care_schur"):
            monkeypatch.setattr(rq.reliable_gains, name, lambda *a, **k: pytest.fail("ladder ran"))
        with pytest.raises(SynthesisFailedError, match="not stabilizable") as err:
            rq.synthesize_gains(system)
        zero = rq.GainSet([np.zeros((1, len(A))) for _ in B])
        report = err.value.best_report
        np.testing.assert_array_equal(report.abscissae, rq.verify_reliable(system, zero).abscissae)
        assert report.abscissae[0] == pytest.approx(1.0)

    def test_each_rung_computes_its_nominal_spectrum_once(self, monkeypatch):
        # channel 2 has no authority, so the whole ladder (11 rungs) runs
        system = rq.MultiChannelSystem(
            [[1.0]], [[[1.0]], [[0.0]]], rq.ConstantDiffusion([[1.0]])
        )
        spectra, verdicts = [], []
        abscissa, verify = rq.reliable_gains.spectral_abscissa, rq.reliable_gains.verify_reliable

        def counting_abscissa(M):
            spectra.append(M)
            return abscissa(M)

        def counting_verify(sys, gains):
            verdicts.append(gains)
            return verify(sys, gains)

        monkeypatch.setattr(rq.reliable_gains, "spectral_abscissa", counting_abscissa)
        monkeypatch.setattr(rq.reliable_gains, "verify_reliable", counting_verify)
        with pytest.raises(SynthesisFailedError):
            rq.synthesize_gains(system)
        assert len(verdicts) == 11
        assert len(spectra) == 3 * len(verdicts)  # the N+1 modes of each verdict

    def test_non_stabilizing_rung_raises(self, monkeypatch):
        system = rq.MultiChannelSystem(
            [[1.0]], [[[1.0]], [[1.0]]], rq.ConstantDiffusion([[1.0]])
        )
        # a Riccati "solution" P = 0 leaves the nominal loop at A = 1
        monkeypatch.setattr(
            rq.reliable_gains, "_care_schur", lambda A, B, R, Q: (np.zeros_like(A), B @ B.T)
        )
        with pytest.raises(NumericalError, match="not stabilizing"):
            rq.synthesize_gains(system)

    def test_non_stabilizing_rung_message_prints_a_float(self, monkeypatch):
        system = rq.MultiChannelSystem(
            [[1.0]], [[[1.0]], [[1.0]]], rq.ConstantDiffusion([[1.0]])
        )
        unstable = rq.ReliabilityReport(abscissae=[0.5, -1.0, -1.0], margin=-0.5, reliable=False)
        monkeypatch.setattr(rq.reliable_gains, "verify_reliable", lambda sys, gains: unstable)
        with pytest.raises(NumericalError, match=r"nominal loop has abscissa 0\.5$"):
            rq.synthesize_gains(system)

    def test_public_riccati_solver_keeps_its_hurwitz_check(self, monkeypatch):
        monkeypatch.setattr(
            rq.reliable_gains, "_care_schur", lambda A, B, R, Q, tol: (np.zeros_like(A), B @ B.T)
        )
        with pytest.raises(NumericalError, match="not stabilizing"):
            solve_care_newton(np.array([[1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))

    def test_uncontrollable_stable_mode_is_stabilizable(self):
        system = rq.MultiChannelSystem(
            [[-1.0, 0.0], [0.0, 1.0]],
            [[[0.0], [1.0]], [[0.0], [1.0]]],
            rq.ConstantDiffusion(np.eye(2)),
        )
        assert rq.verify_reliable(system, rq.synthesize_gains(system)).reliable

    def test_open_loop_stable(self):
        rng = np.random.default_rng(3)
        system = rq.MultiChannelSystem(
            np.diag([-1.0, -2.0]),
            [rng.uniform(-1.0, 1.0, (2, 1)), rng.uniform(-1.0, 1.0, (2, 1))],
            rq.ConstantDiffusion(np.eye(2)),
        )
        gains = rq.synthesize_gains(system)
        assert rq.verify_reliable(system, gains).reliable

    def test_d32_single_input_plant(self):
        # the closed_form benchmark's d=32 synthesis plant; a Newton-Kleinman
        # CARE solver's pole-shifting start fails to stabilize it, which
        # surfaced as NumericalError (this test lets that propagate)
        rng = np.random.default_rng([0, 32])
        A = rng.uniform(-2.0, 2.0, (32, 32))
        B = [rng.uniform(-2.0, 2.0, (32, 1)) for _ in range(4)]
        S = rng.uniform(-1.0, 1.0, (32, 32)) + 1.5 * np.eye(32)
        system = rq.MultiChannelSystem(A, B, rq.ConstantDiffusion(S))
        try:
            gains = rq.synthesize_gains(system)
        except SynthesisFailedError as err:
            # the theta=1 Riccati gain stabilizes the nominal loop
            assert err.best_report.abscissae[0] < 0.0
        else:
            assert rq.verify_reliable(system, gains).reliable

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_soundness_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        system = random_system(rng, d, n)
        try:
            gains = rq.synthesize_gains(system)
        except (SynthesisFailedError, rq.NumericalError):
            return  # heuristic failure is allowed; success must verify
        assert rq.verify_reliable(system, gains).reliable
