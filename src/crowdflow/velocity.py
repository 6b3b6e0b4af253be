"""Nonlocal interaction velocity fields.

The field evaluated against a measure mu is

    v[mu](x) = v_d(x) + N * sum_l w_l * F(x_l - x) * sigma_{U_x}(x_l),

with a pairwise kernel F, a bounded interaction neighborhood U_x (ball, or a
sector turned to face the agent's heading in 2D), and a smooth cutoff sigma
that vanishes on the neighborhood boundary.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.fft import next_fast_len

from .grids import AtomicMeasure, GridMeasure, NumericalInvariantError, sq_norm

# Max (query, atom) pairs evaluated in one block of the pair sum, sized to the
# cache: each of a block's dozen temporaries takes at most 128 KB, which stays
# in cache and which the allocator reuses from block to block. Much larger
# blocks take fresh memory for every temporary and spend much of their time
# faulting it in (at 4e6, a 1000-agent 1D oracle step of 68k pairs was one
# block of 0.5 MB temporaries and ran 1.5x slower). Scanned over 2^12 to 2^16
# on the 1D oracle and on 2D pair sums, 2^14 was fastest or tied (2-CPU x86 VM,
# numpy 2.4, one thread). A query is never split across blocks.
_EVAL_CHUNK = 1 << 14
# The pair sum takes its dense block form while (q - 1)(m - 1) < _DENSE_MAX_PAIRS
# for q queries and m atoms. The windowed form sorts all m atoms and searches
# for all q queries whatever the window holds, so a side of one point (one
# query, or a lattice stencil's one atom) gains it nothing: with 512-16384
# points on the other side, spread over 10 R, the dense form ran 1.7-4.3x
# faster in 1D (in 2D from 1.45x faster to 1.3x slower). n x n inputs switch
# at n = 64, as before; the 1D crossover lies between n = 48 and 64, the 2D
# one below 32 (2-CPU x86 VM, numpy 2.4, one thread).
_DENSE_MAX_PAIRS = 63 * 63
# Memory ceiling on the padded box of the lattice correlation: at 2^22 cells a
# real array takes 32 MB, and the correlation peaks at about 150 MB. Past it
# the pair sum runs instead, in blocks of _EVAL_CHUNK pairs.
_LATTICE_MAX_CELLS = 1 << 22


def _call_vectorised(func, X) -> np.ndarray:
    """func(X) for a caller-supplied callable, checked to keep X's shape."""
    X = np.asarray(X, dtype=float)
    out = np.asarray(func(X), dtype=float)
    if out.shape != X.shape:
        raise ValueError(
            f"custom callables must map an (..., d) array of points to an "
            f"(..., d) array, one d-vector per point; got {X.shape} -> {out.shape}")
    return out


# ---------------------------------------------------------------------------
# kernels

@dataclass(frozen=True)
class CaseStudyRepulsion:
    """F(z) = -a z / max^2(|z|, eps): inverse-distance repulsion, mollified
    near the origin. Bounded by a/eps, Lipschitz with constant a/eps^2."""

    a: float
    eps: float

    def __post_init__(self):
        # the field divides by max^2(|z|, eps), which must neither overflow nor vanish
        if not (0 < self.a < math.inf and self.eps > 0 and 0 < self.eps * self.eps < math.inf):
            raise ValueError("repulsion needs finite a > 0, and eps > 0 with finite eps^2 > 0")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        r = np.sqrt(sq_norm(z))[..., None]
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
    interaction ball. ``func`` is vectorised: it maps an (..., d) array of
    offsets to the (..., d) array of their kernel values."""

    func: Callable[[np.ndarray], np.ndarray]
    fmax: float
    lip: float

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return _call_vectorised(self.func, z)


# ---------------------------------------------------------------------------
# neighborhoods and cutoffs

def _bump(s2: np.ndarray, edge: float, b: float) -> np.ndarray:
    """exp(-b s^2 / (e^2 - s^2)) where s^2 < e^2, else 0 (s2 = s^2): the radial
    bump at s = |z|, e = R and the angular one at s = phi, e = alpha/2."""
    e2 = edge * edge
    with np.errstate(all="ignore"):  # the exponent outside the edge is never used
        expo = -b * s2 / (e2 - s2)
    return np.exp(expo, out=np.zeros_like(expo), where=s2 < e2)


@dataclass(frozen=True)
class Ball:
    """Isotropic neighborhood B_R(0) with radial bump cutoff."""

    radius: float
    cutoff_b: float

    def __post_init__(self):
        if not (0 < self.radius < math.inf and 0 < self.cutoff_b < math.inf):
            raise ValueError("Ball needs finite radius > 0 and cutoff_b > 0")

    def cutoff(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        s2 = sq_norm(z)
        return _bump(s2, self.radius, self.cutoff_b)

    def cutoff_lipschitz(self) -> float:
        """max |d/ds| of the radial bump on [0, R), in closed form. With
        v = (s/R)^2 the slope is (2b/R) sqrt(v) / (1 - v)^2 exp(-b v / (1 - v)),
        steepest at the root v* of 3v^2 - 2(1 - b)v - 1 = 0; 1 - v* is taken
        in its rationalised form, free of cancellation as b -> 0."""
        R, b = self.radius, self.cutoff_b
        u = 2.0 * b / ((2.0 + b) + math.sqrt((1.0 - b) ** 2 + 3.0))  # 1 - v*
        v = 1.0 - u
        return 2.0 * b / R * math.sqrt(v) / (u * u) * math.exp(-b * v / u)


@dataclass(frozen=True)
class Sector:
    """Circular sector of angular width alpha about a unit heading (by default
    +x), with a radial bump times an angular bump vanishing at the sector edge."""

    radius: float
    alpha: float
    cutoff_b: float

    def __post_init__(self):
        if not (0 < self.radius < math.inf and 0 < self.cutoff_b < math.inf):
            raise ValueError("Sector needs finite radius > 0 and cutoff_b > 0")
        if not (0 < self.alpha <= 2 * math.pi):
            raise ValueError(f"alpha must lie in (0, 2*pi], got {self.alpha!r}")

    def cutoff(self, z: np.ndarray, heading=(1.0, 0.0)) -> np.ndarray:
        """Cutoff at the offsets z (..., 2) of the sector facing the unit headings
        u, which broadcast against z: at the angle phi to u, cos(phi) = u.z / |z|."""
        z = np.asarray(z, dtype=float)
        u = np.asarray(heading, dtype=float)
        s2 = sq_norm(z)
        radial = _bump(s2, self.radius, self.cutoff_b)
        s = np.sqrt(s2)
        dot = u[..., 0] * z[..., 0] + u[..., 1] * z[..., 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            cosphi = np.where(s > 0, dot / np.where(s > 0, s, 1.0), 1.0)
        phi = np.arccos(np.clip(cosphi, -1.0, 1.0))
        angular = np.where(s == 0, 1.0, _bump(phi ** 2, self.alpha / 2.0, self.cutoff_b))
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

    def __post_init__(self):  # a tuple of floats, so the model hashes by value
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        if not all(map(math.isfinite, self.c)):
            raise ValueError(f"desired velocity must be finite, got {self.c}")

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(np.asarray(self.c, dtype=float), X.shape).copy()

    @property
    def vmax(self) -> float:
        return math.hypot(*self.c)  # |c| does not overflow where |c|^2 would

    lip: float = field(default=0.0, init=False)


@dataclass(frozen=True)
class CustomDesired:
    """Caller-supplied v_d with its stated sup bound and Lipschitz constant.
    ``func`` is vectorised: it maps an (..., d) array of points to the
    (..., d) array of their desired velocities."""

    func: Callable[[np.ndarray], np.ndarray]
    vmax: float
    lip: float

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return _call_vectorised(self.func, X)


def _check_unit(sq, what: str) -> None:
    """The one unit-vector rule: each squared length in sq is within 1e-12 of 1."""
    if not np.all(np.abs(sq - 1.0) <= 1e-12):  # NaN fails too
        raise ValueError(f"{what} must be a unit vector, |a|^2 within 1e-12 of 1")


class VanishingHeadingError(NumericalInvariantError, ValueError):
    """The desired velocity vanishes where a sector needs its heading."""


def _vanishes(v: np.ndarray) -> np.ndarray:
    """The one vanishing-heading rule: a desired velocity v (..., d) with
    |v| below 1e-12 gives a sector no heading; |v| has sq_norm's bits (inf on overflow)."""
    with np.errstate(over="ignore"):
        return np.sqrt(sq_norm(v)) < 1e-12


@dataclass(frozen=True)
class FromDesired:
    """Heading taken from the normalized desired velocity."""


@dataclass(frozen=True)
class FixedAxis:
    """Heading fixed to a constant unit vector."""

    axis: tuple

    def __post_init__(self):
        object.__setattr__(self, "axis", tuple(float(v) for v in self.axis))
        _check_unit(sum(v * v for v in self.axis), "FixedAxis axis")  # no numpy overflow


@dataclass(frozen=True)
class Rotation2:
    """2D rotations given by their cosine/sine entries. The entries may be
    arrays, one rotation each, that broadcast against ``z[..., 0]``."""

    cos_t: np.ndarray | float
    sin_t: np.ndarray | float

    def __post_init__(self):
        _check_unit(self.cos_t * self.cos_t + self.sin_t * self.sin_t, "(cos_t, sin_t)")

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
        if isinstance(self.desired, ConstantDesired) and len(self.desired.c) != self.dim:
            raise ValueError(f"desired velocity {self.desired.c} has "
                             f"{len(self.desired.c)} components, expected dim = {self.dim}")
        if isinstance(self.neighborhood, Sector):
            if self.dim != 2:
                raise ValueError("sector neighborhoods are supported in 2D only")
            if isinstance(self.heading, FixedAxis) and len(self.heading.axis) != 2:
                raise ValueError(f"heading axis {self.heading.axis} must have 2 components")
            if isinstance(self.heading, FromDesired) and (
                    isinstance(self.desired, ZeroDesired)
                    or (isinstance(self.desired, ConstantDesired)
                        and _vanishes(np.asarray(self.desired.c)))):
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


def _headings(model: VelocityModel, X: np.ndarray) -> np.ndarray:
    """Unit heading vectors at each row of X; errors on vanishing heading."""
    if isinstance(model.heading, FixedAxis):
        axis = np.asarray(model.heading.axis, dtype=float)
        return np.broadcast_to(axis, X.shape).copy()
    vd = model.desired(X)
    if np.any(_vanishes(vd)):
        raise VanishingHeadingError("desired velocity vanishes: heading undefined")
    return vd / np.sqrt(sq_norm(vd))[..., None]


def rotation_at(model: VelocityModel, X) -> Rotation2:
    """Rotations aligning the +x reference axis with the heading at each
    point x of X (..., 2); the entries have the shape X.shape[:-1]."""
    if model.dim != 2:
        raise ValueError("rotations are defined for dim == 2 only")
    u = _headings(model, np.asarray(X, dtype=float))
    return Rotation2(u[..., 0], u[..., 1])


def _frame_cutoff(model: VelocityModel, X: np.ndarray, Z: np.ndarray,
                  rows=None) -> np.ndarray:
    """sigma_{U_x}(x + z) for the offsets Z (..., d) seen from the points X,
    which broadcast against Z, or seen from X[rows] when ``rows`` is given:
    a sector faces the heading at each point of X, computed once per point."""
    if not isinstance(model.neighborhood, Sector):
        return model.neighborhood.cutoff(Z)
    u = _headings(model, X)
    return model.neighborhood.cutoff(Z, u if rows is None else u[rows])


def cutoff_at(model: VelocityModel, X, Y) -> np.ndarray:
    """sigma_{U_x}(y) for the points x of X and y of Y, which broadcast: the
    reference cutoff pulled back through the isometry at x, rotation_at."""
    X = np.asarray(X, dtype=float)
    return _frame_cutoff(model, X, np.asarray(Y, dtype=float) - X)


def _interaction_sum(model: VelocityModel, Y: np.ndarray, w: np.ndarray,
                     X: np.ndarray) -> np.ndarray:
    """N * sum_j w_j F(y_j - x) sigma_{U_x}(y_j) for each row x of X.

    U_x lies inside B_R(x), so only the atoms whose first coordinate lies
    within R of x's can contribute (rounding is monotone, so a computed
    |y - x|^2 below R^2 implies |y_0 - x_0| < R exactly). Below
    _DENSE_MAX_PAIRS pairs (counted without one query row and one atom
    column) every pair is evaluated in dense blocks. Above it the atoms are
    sorted by first coordinate and each query sees only its window of them;
    each query's terms are summed in that sorted order by ``bincount``. In
    either form a row gets the same bits whether alone or in a batch.
    """
    q, d = X.shape
    m = Y.shape[0]
    if (q - 1) * (m - 1) < _DENSE_MAX_PAIRS:
        out = np.empty((q, d))
        block = max(1, _EVAL_CHUNK // max(m, 1))
        for lo in range(0, q, block):
            Xb = X[lo:lo + block, None, :]
            Z = Y[None, :, :] - Xb
            sig = _frame_cutoff(model, Xb, Z)
            F = kernel_F(model.kernel, Z)
            out[lo:lo + block] = np.einsum("j,bj,bjd->bd", w, sig, F)
        return model.n_agents * out

    order = np.argsort(Y[:, 0], kind="stable")
    Y, w = Y[order], w[order]
    R = model.neighborhood.radius
    first = np.searchsorted(Y[:, 0], X[:, 0] - R, "left")
    count = np.searchsorted(Y[:, 0], X[:, 0] + R, "right") - first
    ends = np.cumsum(count)  # the pairs of query i are ends[i] - count[i] ... ends[i] - 1
    out = np.empty((q, d))
    lo = 0
    while lo < q:
        # the queries lo..hi-1 hold at most _EVAL_CHUNK pairs (or lo alone)
        base = ends[lo] - count[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + _EVAL_CHUNK, "right")))
        n = count[lo:hi]
        start = ends[lo:hi] - n - base  # each query's first pair in the block
        row = np.repeat(np.arange(hi - lo), n)
        col = np.arange(ends[hi - 1] - base) + np.repeat(first[lo:hi] - start, n)
        # take gathers rows several times faster than fancy indexing
        Z = Y.take(col, axis=0) - X[lo:hi].take(row, axis=0)
        sig = _frame_cutoff(model, X[lo:hi], Z, row)
        F = kernel_F(model.kernel, Z)
        terms = (w.take(col) * sig)[:, None] * F
        for l in range(d):
            out[lo:hi, l] = np.bincount(row, terms[:, l], hi - lo)
        lo = hi
    return model.n_agents * out


@functools.lru_cache(maxsize=16)
def _lattice_stencil(model: VelocityModel, h: float) -> np.ndarray:
    """The lattice correlation's stencil, flipped for a convolution:
    G[b] = K[r - b] for b in [0, 2r]^d, shaped (2r + 1,) * d + (d,). It is
    computed by the pair sum itself on a unit atom at 0 seen from the points
    (b - r) h, once per (model, h): every step of a level reuses it, so it is
    returned read-only. Models built from a config hash by value."""
    d, r = model.dim, math.ceil(model.neighborhood.radius / h)
    b = np.indices((2 * r + 1,) * d).reshape(d, -1).T
    G = _interaction_sum(model, np.zeros((1, d)), np.ones(1), (b - r) * h)
    G = G.reshape((2 * r + 1,) * d + (d,))
    G.setflags(write=False)
    return G


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
    # the smallest 2^a 3^b 5^c >= n per axis: numpy's FFT is several times
    # slower on lengths with a large prime factor
    shape = tuple(next_fast_len(int(n), real=True) for n in full)
    if math.prod(shape) > min(_LATTICE_MAX_CELLS, lam.occupied * X.shape[0]):
        return None

    G = _lattice_stencil(model, h)
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


def eval_grid_many(model: VelocityModel, lam: GridMeasure, X: np.ndarray) -> np.ndarray:
    """v[lambda](x) at each row x of X by cell-center quadrature over the
    occupied cells: a lattice correlation where :func:`_lattice_interaction`
    applies, else the pair sum."""
    X = np.asarray(X, dtype=float)
    inter = _lattice_interaction(model, lam, X)
    if inter is None:
        inter = _interaction_sum(model, lam.centers(), lam.cell_masses(), X)
    return model.desired(X) + inter


def eval_atomic_many(model: VelocityModel, mu: AtomicMeasure, X: np.ndarray) -> np.ndarray:
    """v[mu](x) at each row x of X for an atomic measure mu."""
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
