"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's own code paths:
entropies and divergences come from adaptive quadrature of the defining
integrals, reliability from characteristic-polynomial root finding,
Lyapunov solutions from the dense Kronecker-vectorized system (the library
uses Bartels-Stewart), stabilizing Riccati solutions from the
Newton-Kleinman iteration and from scipy's extended-pencil QZ solver (the
library uses the Schur form of the Hamiltonian), null vectors of the
finite-volume stationary operator from shifted inverse iteration (the
library uses one pinned direct solve), that operator itself from COO
triplets (the library adds to dense bands), and the Euler
endpoint covariance from a plain term-by-term sum (the library uses
binary doubling), stepped Euler endpoints from a per-path, per-step
loop (the library steps blocks of paths over chunks of pre-drawn noise),
and the flow KL of a grid start under a diagonal map from per-axis
interval overlaps (the library uses midpoint quadrature). The one
exception is ``integrate_density``: it is a trapezoidal quadrature of the
library's own ``transported_pdf``, the mass check of that function.
"""

import itertools

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.integrate import quad

import redunquant as rq


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


def care_extended_pencil(A, B, R, Q):
    """Stabilizing Riccati solution from scipy.linalg.solve_continuous_are:
    balancing and QZ of the order-(2d+m) extended Hamiltonian pencil. It
    needs no stabilizing start, unlike ``care_newton_kleinman``."""
    return scipy.linalg.solve_continuous_are(A, B, Q, R)


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


def fv_operator_coo_reference(system, A_cl, eps, box):
    """The finite-volume stationary operator assembled from (row, column,
    value) triplets, one per term of each face flux, summed by the COO to
    CSC conversion (the library adds each term to a dense band in place).
    Same fluxes and per-entry arithmetic: Scharfetter-Gummel fitted fluxes
    on every face, plus central cross-diffusion terms, one-sided at the
    walls, for the off-diagonal part of a constant S S^T."""
    d = box.dim
    shape = tuple(int(v) for v in box.n)
    h = box.cell_widths
    half_eps2 = 0.5 * eps**2
    flat = np.arange(int(np.prod(shape))).reshape(shape)
    x = box.center_points().reshape(*shape, d)

    def diffusion(points):  # diagonal of sigma sigma^T, and its constant rest
        if isinstance(system.sigma, rq.ConstantDiffusion):
            D = system.sigma.diffusion_matrix()
            return np.broadcast_to(np.diag(D), points.shape), D - np.diag(np.diag(D))
        return system.sigma.diag_at(points) ** 2, np.zeros((d, d))

    def bernoulli(z):
        safe = np.where(z == 0.0, 1.0, z)
        with np.errstate(over="ignore"):
            return np.where(z == 0.0, 1.0, safe / np.expm1(safe))

    diag, cross = diffusion(x)
    rows, cols, vals = [], [], []
    for k in range(d):
        lower = tuple(slice(None, -1) if l == k else slice(None) for l in range(d))
        upper = tuple(slice(1, None) if l == k else slice(None) for l in range(d))
        face = x[lower].copy()
        face[..., k] += 0.5 * h[k]
        pe = (face @ A_cl[k]) * h[k] / (half_eps2 * diffusion(face)[0][..., k])
        pieces = [
            (flat[lower], half_eps2 / h[k] * diag[lower][..., k] * bernoulli(-pe)),
            (flat[upper], -half_eps2 / h[k] * diag[upper][..., k] * bernoulli(pe)),
        ]
        for l in range(d):
            if cross[k, l] == 0.0:
                continue
            p_up = np.minimum(np.arange(shape[l]) + 1, shape[l] - 1)
            p_dn = np.maximum(np.arange(shape[l]) - 1, 0)
            w = np.where(p_up > p_dn, 1.0 / (np.maximum(p_up - p_dn, 1) * h[l]), 0.0)
            w = 0.5 * half_eps2 * cross[k, l] * w.reshape([-1 if a == l else 1 for a in range(d)])
            w = np.broadcast_to(w, shape)
            for side in (lower, upper):
                pieces.append((np.take(flat, p_up, axis=l)[side], -w[side]))
                pieces.append((np.take(flat, p_dn, axis=l)[side], w[side]))
        for cells, coeff in pieces:
            for balance, sign in ((flat[lower], 1.0), (flat[upper], -1.0)):
                rows.append(balance.ravel())
                cols.append(cells.ravel())
                vals.append((sign / h[k] * coeff).ravel())
    n = flat.size
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsc()


def euler_endpoint_cov_reference(M, Q, n):
    """(M^n, sum_{j<n} M^j Q M^j^T) accumulated one term at a time."""
    M = np.asarray(M, float)
    power = np.eye(M.shape[0])
    cov = np.zeros_like(power)
    for _ in range(n):
        cov += power @ Q @ power.T
        power = M @ power
    return power, cov


def euler_stepped_reference(
    system, A_cl, eps, dt, n_steps, n_paths, seed, x0=None, increments="two_point"
):
    """Weak Euler endpoints stepped one path and one step at a time.

    Each step applies ``x <- x + dt A_cl x + eps sqrt(dt) sigma(x) xi``,
    with no chunking, batching or threads. Path i reads the SFC64 stream
    keyed by ``SeedSequence(seed, spawn_key=(i // 64,))``, which its block
    of 64 paths shares, and each step draws its m increments from it:

    * ``"two_point"`` (the library's sampler): one uint64 word per noise
      channel, whose bit ``i % 64`` (counted from the least significant)
      gives ``xi = 1 - 2 bit``;
    * ``"gaussian"`` (Euler-Maruyama, a reference for law comparisons
      only): an (m, 64) array of standard normals, column ``i % 64``.
    """
    A_cl = np.asarray(A_cl, float)
    d = A_cl.shape[0]
    sigma = system.sigma
    amp = eps * np.sqrt(dt)
    out = np.empty((n_paths, d))
    for i in range(n_paths):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i // 64,))
        rng = np.random.Generator(np.random.SFC64(ss))
        x = np.zeros(d) if x0 is None else np.array(x0, float)
        for _ in range(n_steps):
            if increments == "two_point":
                words = rng.integers(0, 2**64, sigma.m, dtype=np.uint64)
                xi = np.array([1.0 - 2.0 * ((int(w) >> (i % 64)) & 1) for w in words])
            else:
                xi = rng.standard_normal((sigma.m, 64))[:, i % 64]
            if hasattr(sigma, "matrix"):
                kick = sigma.matrix @ xi
            else:
                kick = (sigma.base + sigma.slope * np.abs(x)) * xi
            x = x + dt * (A_cl @ x) + amp * kick
        out[i] = x
    return out


def diagonal_pullback_kl_bits(rho0, m) -> float:
    """KL(M # rho0 || rho0) in bits for M = diag(m), 0 < m <= 1, exactly.

    rho0 is a grid density with no empty cell. In nats KL = -H(rho0) -
    sum(log m) - E_rho0[log rho0(M x)], and the cross term is a sum over
    pairs (c, c') of cells of v_c log v_c' times the volume of the part of
    c that M maps into c'. That part is a box whose side on axis k is the
    overlap of c's interval with m_k^{-1} times c''s.
    """
    box, v = rho0.box, rho0.values
    m = np.asarray(m, float)
    assert np.all(v > 0.0) and np.all((m > 0.0) & (m <= 1.0))
    assert np.all(box.lo <= 0.0) and np.all(box.hi >= 0.0), "M must map the box into itself"
    overlaps = []
    for k in range(box.dim):
        nodes = np.linspace(box.lo[k], box.hi[k], box.n[k] + 1)
        lo = np.maximum(nodes[:-1, None], nodes[None, :-1] / m[k])
        hi = np.minimum(nodes[1:, None], nodes[None, 1:] / m[k])
        overlaps.append(np.clip(hi - lo, 0.0, None))
    source = "abcdefgh"[: box.dim]
    target = source.upper()
    pairs = ",".join(s + t for s, t in zip(source, target))
    cross = np.einsum(f"{source},{pairs},{target}->", v, *overlaps, np.log(v))
    entropy = -float(np.sum(v * np.log(v))) * np.prod((box.hi - box.lo) / box.n)
    return (-entropy - float(np.sum(np.log(m))) - cross) / np.log(2.0)


def default_transport_box(sys, gains, mode, rho0, t, n=400):
    """Box covering the transported support: 8 sigma of the pushforward for
    a Gaussian rho0; for a grid density, the axis-aligned hull of its mapped
    box corners, padded by 5 % of its width."""
    if isinstance(rho0, rq.GaussianDensity):
        g_t = rq.pushforward_gaussian(sys, gains, mode, rho0, t)
        spread = 8.0 * np.sqrt(np.diag(g_t.cov))
        return rq.Box(g_t.mean - spread, g_t.mean + spread, np.full(sys.d, n))
    Phi = scipy.linalg.expm(rq.closed_loop_matrix(sys, gains, mode) * t)
    corners = np.array(list(itertools.product(*zip(rho0.box.lo, rho0.box.hi)))) @ Phi.T
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pad = 0.05 * (hi - lo) + 1e-12
    return rq.Box(lo - pad, hi + pad, np.full(sys.d, n))


def integrate_density(sys, gains, mode, rho0, t, box=None) -> float:
    """Trapezoidal mass of the library's ``transported_pdf`` on the nodes of
    a box (``default_transport_box`` when None). A box that misses mass
    shows up as a value far from 1."""
    if box is None:
        box = default_transport_box(sys, gains, mode, rho0, t)
    mesh = np.meshgrid(*[box.nodes(k) for k in range(box.dim)], indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    field = rq.transported_pdf(sys, gains, mode, rho0, t, nodes).reshape(tuple(box.n + 1))
    for axis in range(box.dim - 1, -1, -1):
        field = np.trapezoid(field, dx=box.cell_widths[axis], axis=axis)
    return float(field)
