"""Density carriers and grid geometry.

These types are shared by the transport, sampling and information-measure
modules: Gaussian densities carry the closed-form paths, grid densities
carry every numerical path (a uniform density on a box is the one-cell
grid density on it), and ``Box`` fixes the uniform-grid geometry used by
histograms, quadrature and the stationary solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, GridMismatchError

_SYM_TOL = 1e-12


def _frozen_array(value, dtype=float, ndim: int | None = None, name: str = "array") -> np.ndarray:
    out = np.array(value, dtype=dtype)
    if ndim is not None and out.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{name} contains non-finite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box carrying a uniform grid with ``n[k]`` cells on axis k."""

    lo: np.ndarray
    hi: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        lo = _frozen_array(self.lo, ndim=1, name="lo")
        hi = _frozen_array(self.hi, ndim=1, name="hi")
        n = _frozen_array(self.n, dtype=int, ndim=1, name="n")
        if not (lo.shape == hi.shape == n.shape):
            raise DimensionError("lo, hi and n must have equal lengths")
        if np.any(hi <= lo):
            raise DomainError("box must satisfy hi > lo on every axis")
        if np.any(n < 1):
            raise DomainError("every axis needs at least one cell")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n", n)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def cell_widths(self) -> np.ndarray:
        return self.widths / self.n

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_widths))

    def centers(self, axis: int) -> np.ndarray:
        h = self.cell_widths[axis]
        return self.lo[axis] + (np.arange(self.n[axis]) + 0.5) * h

    def nodes(self, axis: int) -> np.ndarray:
        return np.linspace(self.lo[axis], self.hi[axis], self.n[axis] + 1)

    def center_points(self) -> np.ndarray:
        """All cell centers, shape ``(prod(n), dim)``, C-order over axes."""
        axes = [self.centers(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def same_grid(self, other: "Box") -> bool:
        return (
            np.array_equal(self.n, other.n)
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce a point or batch of points to shape (n, dim)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.size != dim:
            raise DimensionError(f"point has dimension {arr.size}, expected {dim}")
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr, False
    raise DimensionError(f"points must have shape (n, {dim}), got {arr.shape}")


@dataclass(frozen=True, eq=False)
class GaussianDensity:
    """Multivariate normal density given by mean vector and SPD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _frozen_array(self.mean, ndim=1, name="mean")
        cov = np.array(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DimensionError(f"cov must be square, got shape {cov.shape}")
        if cov.shape[0] != mean.size:
            raise DimensionError("mean and cov dimensions disagree")
        if not np.all(np.isfinite(cov)):
            raise DomainError("cov contains non-finite entries")
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > _SYM_TOL * scale:
            raise DomainError("cov is not symmetric within 1e-12")
        cov = 0.5 * (cov + cov.T)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise DomainError("cov is not positive definite") from None
        cov.setflags(write=False)
        chol.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)  # lower L with L L^T = cov

    @property
    def dim(self) -> int:
        return self.mean.size

    def logpdf(self, x) -> np.ndarray | float:
        pts, single = _as_points(x, self.dim)
        z = np.linalg.solve(self._chol, (pts - self.mean).T)
        logdet = 2.0 * np.sum(np.log(np.diag(self._chol)))
        out = -0.5 * (self.dim * np.log(2.0 * np.pi) + logdet + np.sum(z * z, axis=0))
        return float(out[0]) if single else out

    def pdf(self, x) -> np.ndarray | float:
        out = np.exp(self.logpdf(x))
        return float(out) if np.isscalar(out) or out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Piecewise-constant density on the cells of a :class:`Box`.

    Values live at cell centers and must be nonnegative with
    ``sum(values) * cell_volume == 1`` within 1e-8.
    """

    box: Box
    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values, name="grid values")
        if values.shape != tuple(self.box.n):
            raise DimensionError(
                f"values shape {values.shape} does not match grid {tuple(self.box.n.tolist())}"
            )
        if values.min() < 0.0:
            raise DomainError("grid values must be nonnegative")
        mass = values.sum() * self.box.cell_volume
        if abs(mass - 1.0) > 1e-8:
            raise DomainError(f"grid density mass is {float(mass)!r}, not 1 within 1e-8")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_unnormalized(cls, box: Box, raw) -> "GridDensity":
        raw = np.asarray(raw, dtype=float)
        total = raw.sum() * box.cell_volume
        if not np.isfinite(total) or total <= 0.0:
            raise DomainError("cannot normalize: total mass is not positive")
        return cls(box, raw / total)

    @property
    def dim(self) -> int:
        return self.box.dim

    def mass(self) -> float:
        return float(self.values.sum() * self.box.cell_volume)

    def pdf(self, x) -> np.ndarray | float:
        pts, single = _as_points(x, self.dim)
        inside = np.all((pts >= self.box.lo) & (pts <= self.box.hi), axis=1)
        # index only the points inside: a far or NaN point's cell index
        # does not fit an int
        idx = np.floor((pts[inside] - self.box.lo) / self.box.cell_widths).astype(int)
        # points exactly on the upper face belong to the last cell
        idx = np.minimum(idx, self.box.n - 1)
        out = np.zeros(pts.shape[0])
        out[inside] = self.values[tuple(idx.T)]
        return float(out[0]) if single else out


def require_same_grid(a: GridDensity, b: GridDensity) -> None:
    if not a.box.same_grid(b.box):
        raise GridMismatchError("grid densities do not share the same grid")
