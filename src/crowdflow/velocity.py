"""Nonlocal interaction velocity fields.

The field evaluated against a measure mu is

    v[mu](x) = v_d(x) + N * sum_l w_l * F(x_l - x) * sigma_{U_x}(x_l),

with a pairwise kernel F, a bounded interaction neighborhood U_x (ball, or a
sector rotated to face the agent's heading in 2D), and a smooth cutoff sigma
that vanishes on the neighborhood boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import AtomicMeasure, GridMeasure

_EVAL_CHUNK = 4_000_000  # max entries of the pairwise difference tensor
# Memory ceiling on the padded box of the lattice correlation: at 2^22 cells a
# real array takes 32 MB, and the correlation peaks at about 150 MB, no more
# than one chunk of the pair sum's difference tensor and its temporaries in 2D.
_LATTICE_MAX_CELLS = 1 << 22


# ---------------------------------------------------------------------------
# kernels

@dataclass(frozen=True)
class CaseStudyRepulsion:
    """F(z) = -a z / max^2(|z|, eps): inverse-distance repulsion, mollified
    near the origin. Bounded by a/eps, Lipschitz with constant a/eps^2."""

    a: float
    eps: float

    def __post_init__(self):
        if not (self.a > 0 and self.eps > 0):
            raise ValueError("repulsion needs a > 0 and eps > 0")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        r = np.linalg.norm(z, axis=-1, keepdims=True)
        m = np.maximum(r, self.eps)
        return -self.a * z / (m * m)

    @property
    def fmax(self) -> float:
        return self.a / self.eps

    @property
    def lip(self) -> float:
        return self.a / self.eps ** 2


@dataclass(frozen=True)
class PrototypeAttraction:
    """F(z) = |z| * z/|z| = z: linear attraction, bounded by the cap radius
    on the ball where it is ever evaluated."""

    cap_radius: float

    def __post_init__(self):
        if not (self.cap_radius > 0):
            raise ValueError("cap_radius must be positive")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return np.array(z, dtype=float)

    @property
    def fmax(self) -> float:
        return self.cap_radius

    @property
    def lip(self) -> float:
        return 1.0


@dataclass(frozen=True)
class CustomKernel:
    """Caller-supplied F with its bound and Lipschitz constant on the
    interaction ball. ``func`` maps a single d-vector to a d-vector."""

    func: Callable[[np.ndarray], np.ndarray]
    fmax: float
    lip: float

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        flat = z.reshape(-1, z.shape[-1])
        out = np.stack([np.asarray(self.func(p), dtype=float) for p in flat])
        return out.reshape(z.shape)


# ---------------------------------------------------------------------------
# neighborhoods and cutoffs

def _radial_bump(s2: np.ndarray, radius: float, b: float) -> np.ndarray:
    """exp(-b s^2 / (R^2 - s^2)) inside the ball, 0 outside (s2 = |z|^2)."""
    r2 = radius * radius
    inside = s2 < r2
    out = np.zeros_like(s2, dtype=float)
    s2_in = s2[inside]
    out[inside] = np.exp(-b * s2_in / (r2 - s2_in))
    return out


@dataclass(frozen=True)
class Ball:
    """Isotropic neighborhood B_R(0) with radial bump cutoff."""

    radius: float
    cutoff_b: float

    def __post_init__(self):
        if not (self.radius > 0 and self.cutoff_b > 0):
            raise ValueError("Ball needs radius > 0 and cutoff_b > 0")

    def cutoff(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        s2 = np.sum(z * z, axis=-1)
        return _radial_bump(s2, self.radius, self.cutoff_b)

    def cutoff_lipschitz(self) -> float:
        """Numerically maximized |d/ds| of the radial bump on [0, R)."""
        from scipy.optimize import minimize_scalar

        R, b = self.radius, self.cutoff_b

        def neg_slope(s):
            u = s * s / (R * R - s * s)
            return -(2.0 * b * R * R * s / (R * R - s * s) ** 2) * math.exp(-b * u)

        grid = np.linspace(0.0, R * (1 - 1e-9), 4001)
        vals = np.array([neg_slope(s) for s in grid])
        j = int(np.argmin(vals))
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, grid.size - 1)]
        res = minimize_scalar(neg_slope, bounds=(lo, hi), method="bounded",
                              options={"xatol": R * 1e-14})
        return float(-min(res.fun, vals[j]))


@dataclass(frozen=True)
class Sector:
    """Circular sector of angular width alpha about the +x reference axis,
    with a radial bump times an angular bump vanishing at the sector edge."""

    radius: float
    alpha: float
    cutoff_b: float

    def __post_init__(self):
        if not (self.radius > 0 and self.cutoff_b > 0):
            raise ValueError("Sector needs radius > 0 and cutoff_b > 0")
        if not (0 < self.alpha <= 2 * math.pi):
            raise ValueError(f"alpha must lie in (0, 2*pi], got {self.alpha!r}")

    def cutoff(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        s2 = np.sum(z * z, axis=-1)
        radial = _radial_bump(s2, self.radius, self.cutoff_b)
        s = np.sqrt(s2)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosphi = np.where(s > 0, z[..., 0] / np.where(s > 0, s, 1.0), 1.0)
        phi = np.arccos(np.clip(cosphi, -1.0, 1.0))
        half = self.alpha / 2.0
        angular = np.zeros_like(phi)
        ins = phi < half
        angular[ins] = np.exp(-self.cutoff_b * phi[ins] ** 2 / (half * half - phi[ins] ** 2))
        angular = np.where(s == 0, 1.0, angular)
        return radial * angular


# ---------------------------------------------------------------------------
# desired velocities and headings

@dataclass(frozen=True)
class ZeroDesired:
    vmax: float = 0.0
    lip: float = 0.0

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(X, dtype=float))


@dataclass(frozen=True)
class ConstantDesired:
    c: tuple

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(np.asarray(self.c, dtype=float), X.shape).copy()

    @property
    def vmax(self) -> float:
        return float(np.linalg.norm(self.c))

    lip: float = field(default=0.0, init=False)


@dataclass(frozen=True)
class CustomDesired:
    """Caller-supplied v_d with its stated sup bound and Lipschitz constant.
    ``func`` maps a single d-vector to a d-vector."""

    func: Callable[[np.ndarray], np.ndarray]
    vmax: float
    lip: float

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        flat = X.reshape(-1, X.shape[-1])
        out = np.stack([np.asarray(self.func(p), dtype=float) for p in flat])
        return out.reshape(X.shape)


class VanishingHeadingError(ValueError):
    """The desired velocity vanishes where a sector needs its heading."""


@dataclass(frozen=True)
class FromDesired:
    """Heading taken from the normalized desired velocity."""


@dataclass(frozen=True)
class FixedAxis:
    """Heading fixed to a constant unit vector."""

    axis: tuple

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=float)
        if abs(float(np.linalg.norm(a)) - 1.0) > 1e-9:
            raise ValueError("FixedAxis axis must be a unit vector")


@dataclass(frozen=True)
class Rotation2:
    """2D rotation given by its cosine/sine entries."""

    cos_t: float
    sin_t: float

    def __post_init__(self):
        if abs(self.cos_t ** 2 + self.sin_t ** 2 - 1.0) > 1e-12:
            raise ValueError("cos_t^2 + sin_t^2 must equal 1")

    def apply(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        x, y = z[..., 0], z[..., 1]
        return np.stack([self.cos_t * x - self.sin_t * y,
                         self.sin_t * x + self.cos_t * y], axis=-1)

    def inverse_apply(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        x, y = z[..., 0], z[..., 1]
        return np.stack([self.cos_t * x + self.sin_t * y,
                         -self.sin_t * x + self.cos_t * y], axis=-1)


# ---------------------------------------------------------------------------
# the velocity model

@dataclass(frozen=True)
class VelocityModel:
    dim: int
    n_agents: int
    desired: object
    kernel: object
    neighborhood: object
    heading: object = FromDesired()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if isinstance(self.neighborhood, Sector):
            if self.dim != 2:
                raise ValueError("sector neighborhoods are supported in 2D only")
            if isinstance(self.heading, FromDesired) and (
                    isinstance(self.desired, ZeroDesired)
                    or (isinstance(self.desired, ConstantDesired)
                        and np.linalg.norm(self.desired.c) == 0)):
                raise ValueError(
                    "sector orientation is undefined with a vanishing desired "
                    "velocity; use a FixedAxis heading instead")
        if isinstance(self.kernel, CustomKernel):
            z0 = np.zeros(self.dim)
            if np.linalg.norm(self.kernel(z0)) > 0:
                warnings.warn("custom kernel has F(0) != 0: a lone agent "
                              "exerts a force on itself", stacklevel=2)


def kernel_F(kernel, z) -> np.ndarray:
    """Pairwise interaction F(z); z may carry leading batch axes."""
    return kernel(np.asarray(z, dtype=float))


def cutoff(neigh, z) -> np.ndarray:
    """Reference-frame cutoff sigma_{U_0}(z) in [0, 1]."""
    return neigh.cutoff(np.asarray(z, dtype=float))


def _headings(model: VelocityModel, X: np.ndarray) -> np.ndarray:
    """Unit heading vectors at each row of X; errors on vanishing heading."""
    if isinstance(model.heading, FixedAxis):
        axis = np.asarray(model.heading.axis, dtype=float)
        return np.broadcast_to(axis, X.shape).copy()
    vd = model.desired(X)
    norms = np.linalg.norm(vd, axis=-1, keepdims=True)
    if np.any(norms < 1e-12):
        raise VanishingHeadingError("desired velocity vanishes: heading undefined")
    return vd / norms


def rotation_at(model: VelocityModel, x) -> Rotation2:
    """Rotation aligning the +x reference axis with the heading at x (2D)."""
    if model.dim != 2:
        raise ValueError("rotations are defined for dim == 2 only")
    u = _headings(model, np.asarray(x, dtype=float)[None, :])[0]
    return Rotation2(float(u[0]), float(u[1]))


def cutoff_at(model: VelocityModel, x, y) -> float:
    """sigma_{U_x}(y): the reference cutoff pulled back through the isometry."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if isinstance(model.neighborhood, Ball):
        return float(cutoff(model.neighborhood, y - x))
    rot = rotation_at(model, x)
    return float(cutoff(model.neighborhood, rot.inverse_apply(y - x)))


def _interaction_sum(model: VelocityModel, Y: np.ndarray, w: np.ndarray,
                     X: np.ndarray) -> np.ndarray:
    """N * sum_j w_j F(y_j - x) sigma_{U_x}(y_j) for each row x of X."""
    q, d = X.shape
    out = np.empty((q, d))
    m = max(Y.shape[0], 1)
    block = max(1, _EVAL_CHUNK // m)
    sector = isinstance(model.neighborhood, Sector)
    for lo in range(0, q, block):
        Xb = X[lo:lo + block]
        Z = Y[None, :, :] - Xb[:, None, :]
        if sector:
            u = _headings(model, Xb)
            c, s = u[:, 0:1], u[:, 1:2]
            zx, zy = Z[..., 0], Z[..., 1]
            Zr = np.stack([c * zx + s * zy, -s * zx + c * zy], axis=-1)
            sig = model.neighborhood.cutoff(Zr)
        else:
            sig = model.neighborhood.cutoff(Z)
        F = kernel_F(model.kernel, Z)
        out[lo:lo + block] = np.einsum("j,bj,bjd->bd", w, sig, F)
    return model.n_agents * out


def _fft_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n. numpy's FFT is several times slower on
    lengths with a large prime factor."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _lattice_interaction(model: VelocityModel, lam: GridMeasure, X: np.ndarray):
    """The interaction term at the rows of X as a lattice correlation.

    For a translation-invariant model and query points on the lattice,
    N * sum_c m_c F((c - i) h) sigma((c - i) h) is the correlation of the
    dense bounding-box mass with the stencil K[o] = N F(o h) sigma(o h),
    |o|_inf <= r = ceil(R / h). It is computed by FFT, zero-padded to
    box + 2r so nothing wraps. Returns None where the pair sum must or
    should run instead: position-dependent headings, query points off the
    lattice, or a padded box larger than the pair count (or the memory
    ceiling). The result agrees with the pair sum to rounding.
    """
    # a sector whose heading follows a varying desired velocity is the one
    # model whose interaction depends on more than the offset
    if lam.occupied == 0 or (isinstance(model.neighborhood, Sector)
                             and not isinstance(model.heading, FixedAxis)
                             and not isinstance(model.desired, ConstantDesired)):
        return None
    h, d = lam.spec.cell_width, lam.spec.dim
    qi = np.rint(X / h)
    if not np.array_equal(qi * h, X):
        return None
    r = math.ceil(model.neighborhood.radius / h)
    lo = lam.indices.min(axis=0)
    full = lam.indices.max(axis=0) - lo + 1 + 2 * r  # extent of the correlation
    shape = tuple(_fft_len(int(n)) for n in full)
    if math.prod(shape) > min(_LATTICE_MAX_CELLS, lam.occupied * X.shape[0]):
        return None

    # stencil flipped for a convolution: G[b] = K[r - b], computed by the
    # pair sum itself on a unit atom at 0 seen from the points (b - r) h
    b = np.indices((2 * r + 1,) * d).reshape(d, -1).T
    G = _interaction_sum(model, np.zeros((1, d)), np.ones(1), (b - r) * h)
    G = G.reshape((2 * r + 1,) * d + (d,))
    axes = tuple(range(d))
    cells = tuple((lam.indices - lo).T)
    # query i sits at n = i - lo + r of the full convolution
    n = qi.astype(np.int64) - lo + r
    inside = np.all((n >= 0) & (n < full), axis=1)
    at = tuple(n[inside].T)

    def spectrum_of(values):
        dense = np.zeros(shape)
        dense[cells] = values
        return np.fft.rfftn(dense)

    def correlate(spectrum, stencil):
        f = np.fft.rfftn(stencil, shape, axes)
        f *= spectrum
        return np.fft.irfftn(f, shape, axes)[at]

    # FFT rounding never gives an exact 0, but the pair sum does wherever
    # every term of a component is 0 (no cell in range, or all on the query's
    # row in 2D), and a rounding-level velocity there would leak mass into a
    # neighbor cell. So count the occupied cells each query sees through the
    # component's nonzero stencil entries (exact after rint) and keep 0 where
    # it sees none.
    occupied = spectrum_of(1.0)
    sees = [np.rint(correlate(occupied, (G[..., l] != 0).astype(float))) > 0
            for l in range(d)]
    del occupied
    masses = spectrum_of(lam.cell_masses())
    out = np.zeros(X.shape)
    for l in range(d):
        out[inside, l] = np.where(sees[l], correlate(masses, G[..., l]), 0.0)
    return out


def eval_atomic(model: VelocityModel, mu: AtomicMeasure, x) -> np.ndarray:
    """v[mu](x) for an atomic measure."""
    return eval_atomic_many(model, mu, np.asarray(x, dtype=float)[None, :])[0]


def eval_grid(model: VelocityModel, lam: GridMeasure, x) -> np.ndarray:
    """v[lambda](x) by cell-center quadrature over occupied cells."""
    return eval_grid_many(model, lam, np.asarray(x, dtype=float)[None, :])[0]


def eval_grid_many(model: VelocityModel, lam: GridMeasure, X: np.ndarray) -> np.ndarray:
    """Vectorized :func:`eval_grid` over the rows of X: a lattice correlation
    where :func:`_lattice_interaction` applies, else the pair sum."""
    X = np.asarray(X, dtype=float)
    inter = _lattice_interaction(model, lam, X)
    if inter is None:
        inter = _interaction_sum(model, lam.centers(), lam.cell_masses(), X)
    return model.desired(X) + inter


def eval_atomic_many(model: VelocityModel, mu: AtomicMeasure, X: np.ndarray) -> np.ndarray:
    """Vectorized :func:`eval_atomic` over the rows of X."""
    X = np.asarray(X, dtype=float)
    return model.desired(X) + _interaction_sum(model, mu.positions, mu.weights, X)


def velocity_bound(model: VelocityModel) -> float:
    """V = sup|v_d| + N * F_max; bounds |v[mu](x)| for every mu, x."""
    return model.desired.vmax + model.n_agents * model.kernel.fmax


def lipschitz_constants(model: VelocityModel) -> dict:
    """Analytic Lipschitz constants for ball neighborhoods.

    Returns {'space': Lip_x, 'measure': Lip_mu} with
    Lip(F sigma) <= F_max Lip(sigma) + Lip(F).
    """
    if not isinstance(model.neighborhood, Ball):
        raise NotImplementedError("analytic constants implemented for Ball only")
    lip_fs = (model.kernel.fmax * model.neighborhood.cutoff_lipschitz()
              + model.kernel.lip)
    return {"space": model.desired.lip + model.n_agents * lip_fs,
            "measure": model.n_agents * lip_fs}
