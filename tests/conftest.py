import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import redunquant as rq

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

ROOT = Path(__file__).resolve().parents[1]


def child_env() -> dict:
    """Environment for a child interpreter that imports redunquant from src/.

    pyproject's ``pythonpath`` reaches only the pytest process itself.
    """
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.fixture
def scalar_two_channel():
    """d=1 plant with two redundant unit channels and unit constant noise."""
    system = rq.MultiChannelSystem([[1.0]], [[[1.0]], [[1.0]]], rq.ConstantDiffusion([[1.0]]))
    gains = rq.GainSet([[[-2.0]], [[-2.0]]])
    return system, gains


@pytest.fixture
def ou_system():
    """Stable scalar plant with a zero gain: the closed loop is dx = -x dt + eps dW."""
    system = rq.MultiChannelSystem([[-1.0]], [[[1.0]]], rq.ConstantDiffusion([[1.0]]))
    gains = rq.GainSet([[[0.0]]])
    return system, gains


def uniform_start(lo, hi) -> rq.GridDensity:
    """Uniform density on the box [lo, hi]: the one-cell grid density there."""
    d = len(lo)
    return rq.GridDensity.from_unnormalized(rq.Box(lo, hi, [1] * d), np.ones([1] * d))


def random_grid_start(seed: int, n) -> rq.GridDensity:
    """Grid density on [-1, 1]^d with n[k] cells on axis k and cell values
    drawn uniformly from [0.2, 1] by ``default_rng(seed)``, normalized."""
    d = len(n)
    values = np.random.default_rng(seed).uniform(0.2, 1.0, n)
    return rq.GridDensity.from_unnormalized(rq.Box(-np.ones(d), np.ones(d), n), values)


def random_system(rng: np.random.Generator, d: int, n_channels: int, input_dims=None):
    """Random plant with Uniform[-2,2] entries and a well-conditioned noise map."""
    input_dims = input_dims or [int(rng.integers(1, 3)) for _ in range(n_channels)]
    A = rng.uniform(-2.0, 2.0, (d, d))
    B = [rng.uniform(-2.0, 2.0, (d, r)) for r in input_dims]
    S = rng.uniform(-1.0, 1.0, (d, d)) + 1.5 * np.eye(d)
    return rq.MultiChannelSystem(A, B, rq.ConstantDiffusion(S))


def random_gains(rng: np.random.Generator, system: rq.MultiChannelSystem):
    return rq.GainSet(
        [rng.uniform(-3.0, 3.0, (r, system.d)) for r in system.input_dims]
    )


def random_hurwitz(rng: np.random.Generator, d: int, margin: float = 0.5) -> np.ndarray:
    """Random matrix shifted left until its spectral abscissa is <= -margin."""
    M = rng.uniform(-2.0, 2.0, (d, d))
    return M - (rq.spectral_abscissa(M) + margin) * np.eye(d)


def eccentric_plant(seed: int, diagonal: bool = True):
    """d=2 loop dx = A x dt + eps S dW with A = R diag(-1, -k) R^T, k in
    [5, 40], R a random rotation, and S (the diagonal of) chol(W W^T + 0.3 I)."""
    rng = np.random.default_rng(seed)
    k = rng.uniform(5.0, 40.0)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    W = rng.uniform(-1.0, 1.0, (2, 2))
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    S = np.linalg.cholesky(W @ W.T + 0.3 * np.eye(2))
    if diagonal:
        S = np.diag(np.diag(S))
    A = R @ np.diag([-1.0, -k]) @ R.T
    system = rq.MultiChannelSystem(A, [np.zeros((2, 1))], rq.ConstantDiffusion(S))
    return system, rq.GainSet([np.zeros((1, 2))])
