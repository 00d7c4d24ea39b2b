"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's own code paths:
entropies and divergences come from adaptive quadrature of the defining
integrals, reliability from characteristic-polynomial root finding,
Lyapunov solutions from the dense Kronecker-vectorized system (the library
uses Bartels-Stewart), stabilizing Riccati solutions from the
Newton-Kleinman iteration (the library uses the Schur method), null
vectors of the finite-volume stationary operator from shifted inverse
iteration (the library uses one pinned direct solve), and the Euler
endpoint covariance from a plain term-by-term sum (the library uses
binary doubling), and stepped Euler endpoints from a per-path, per-step
loop (the library steps blocks of paths over chunks of pre-drawn noise).
"""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.integrate import quad


def entropy_quad_bits(pdf, lo: float, hi: float) -> float:
    """-integral of rho log2 rho by adaptive quadrature."""

    def integrand(x):
        v = pdf(x)
        return 0.0 if v <= 0.0 else -v * np.log2(v)

    return quad(integrand, lo, hi, limit=800)[0]


def kl_quad_bits(q_pdf, p_pdf, lo: float, hi: float) -> float:
    """integral of q log2(q/p); bounds must keep p above underflow."""

    def integrand(x):
        qv = q_pdf(x)
        if qv <= 1e-300:
            return 0.0
        return qv * np.log2(qv / p_pdf(x))

    return quad(integrand, lo, hi, limit=800)[0]


def normal_pdf(mean: float, var: float):
    norm = 1.0 / np.sqrt(2.0 * np.pi * var)
    return lambda x: norm * np.exp(-0.5 * (x - mean) ** 2 / var)


def char_poly_abscissa(M) -> float:
    """Spectral abscissa via roots of the characteristic polynomial."""
    coeffs = np.poly(np.asarray(M, dtype=float))
    return float(np.roots(coeffs).real.max())


def brute_force_reliable(system, gains) -> bool:
    """Re-assemble every failure-mode loop from scratch and root its
    characteristic polynomial; no shared code with verify_reliable."""
    A = system.A
    N = system.n_channels
    for failed in range(N + 1):
        M = A.copy()
        for i in range(N):
            if i + 1 != failed:
                M = M + system.B[i] @ gains.K[i]
        if char_poly_abscissa(M) >= 0.0:
            return False
    return True


def lyapunov_reference(A_cl, Q):
    """Solution of A P + P A^T + Q = 0 from the Kronecker-vectorized system.

    (I (x) A + A (x) I) vec(P) = -vec(Q) is one dense d^2 x d^2 solve, O(d^6).
    """
    A_cl = np.asarray(A_cl, float)
    d = A_cl.shape[0]
    eye = np.eye(d)
    L = np.kron(eye, A_cl) + np.kron(A_cl, eye)
    vec_p = np.linalg.solve(L, -np.asarray(Q, float).flatten(order="F"))
    P = vec_p.reshape((d, d), order="F")
    return 0.5 * (P + P.T)


def care_newton_kleinman(A, B, R, Q):
    """Stabilizing solution of A^T P + P A - P B R^{-1} B^T P + Q = 0.

    Newton-Kleinman iteration (Kleinman, IEEE TAC 13:114-115, 1968): each
    step solves one Lyapunov equation for the current stabilizing gain L and
    sets L = R^{-1} B^T P. The start is the pole-shifting gain: with
    beta > ||A||_F, -(A + beta I) is Hurwitz, and the solution Z of
    (A + beta I) Z + Z (A + beta I)^T = 2 B B^T gives L = B^T Z^{-1}
    with A - B L Hurwitz. Stops when the Riccati residual is at most
    1e-9 times a backward-error scale.
    """
    A, B, R, Q = (np.asarray(M, float) for M in (A, B, R, Q))
    d = A.shape[0]
    G = B @ np.linalg.solve(R, B.T)
    if np.linalg.eigvals(A).real.max() < 0.0:
        L = np.zeros((B.shape[1], d))
    else:
        beta = 1.0 + np.linalg.norm(A, "fro")
        Z = lyapunov_reference(-(A + beta * np.eye(d)), 2.0 * B @ B.T)
        L = np.linalg.solve(Z, B).T
    for _ in range(100):
        A_cl = A - B @ L
        assert np.linalg.eigvals(A_cl).real.max() < 0.0, "lost stabilization"
        P = lyapunov_reference(A_cl.T, Q + L.T @ R @ L)
        L = np.linalg.solve(R, B.T @ P)
        residual = np.linalg.norm(A.T @ P + P @ A - P @ G @ P + Q, "fro")
        norm_p = np.linalg.norm(P, "fro")
        scale = (
            1.0
            + np.linalg.norm(Q, "fro")
            + 2.0 * np.linalg.norm(A, "fro") * norm_p
            + np.linalg.norm(G, "fro") * norm_p**2
        )
        if residual <= 1e-9 * scale:
            return P
    raise AssertionError(f"Newton-Kleinman did not converge (residual {residual!r})")


def null_vector_inverse_iteration(L, start):
    """Unit null vector of a sparse singular operator, positive sum.

    Inverse iteration on L - 1e-12 * scale * I from ``start`` until the
    relative residual ||L v|| / scale is at most 1e-12. A deflated second
    iteration (30 solves, orthogonal to v) then asserts that no second
    null vector exists.
    """
    n = L.shape[0]
    scale = float(np.abs(L.data).max())
    lu = scipy.sparse.linalg.splu(
        (L - 1e-12 * scale * scipy.sparse.identity(n, format="csc")).tocsc()
    )
    v = np.asarray(start, float) / np.linalg.norm(start)
    for _ in range(200):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
        res = float(np.linalg.norm(L @ v)) / scale
        if res <= 1e-12:
            break
    assert res <= 1e-9, f"inverse iteration stalled at relative residual {res!r}"
    if v.sum() < 0.0:
        v = -v
    w = np.linspace(-1.0, 1.0, n)
    w -= (v @ w) * v
    for _ in range(30):
        w /= np.linalg.norm(w)
        w = lu.solve(w)
        w -= (v @ w) * v
    w /= np.linalg.norm(w)
    assert float(np.linalg.norm(L @ w)) / scale > 1e-10, "second null vector"
    return v


def euler_endpoint_cov_reference(M, Q, n):
    """(M^n, sum_{j<n} M^j Q M^j^T) accumulated one term at a time."""
    M = np.asarray(M, float)
    power = np.eye(M.shape[0])
    cov = np.zeros_like(power)
    for _ in range(n):
        cov += power @ Q @ power.T
        power = M @ power
    return power, cov


def euler_stepped_reference(system, A_cl, eps, dt, n_steps, n_paths, seed, x0=None):
    """Euler-Maruyama endpoints stepped one path and one step at a time.

    Path i draws m normals per step from its own SFC64 stream keyed by
    ``SeedSequence(seed, spawn_key=(i,))`` and applies
    ``x <- x + dt A_cl x + eps sqrt(dt) sigma(x) xi``, with no chunking,
    batching or threads.
    """
    A_cl = np.asarray(A_cl, float)
    d = A_cl.shape[0]
    sigma = system.sigma
    amp = eps * np.sqrt(dt)
    out = np.empty((n_paths, d))
    for i in range(n_paths):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.SFC64(ss))
        x = np.zeros(d) if x0 is None else np.array(x0, float)
        for _ in range(n_steps):
            xi = rng.standard_normal(sigma.m)
            if hasattr(sigma, "matrix"):
                kick = sigma.matrix @ xi
            else:
                kick = (sigma.base + sigma.slope * np.abs(x)) * xi
            x = x + dt * (A_cl @ x) + amp * kick
        out[i] = x
    return out
