"""Nonlocal interaction velocity fields.

The field evaluated against a measure mu is

    v[mu](x) = v_d(x) + N * sum_l w_l * F(x_l - x) * sigma_{U_x}(x_l),

with a pairwise kernel F, a bounded interaction neighborhood U_x (ball, or a
sector turned to face the agent's heading in 2D), and a smooth cutoff sigma
that vanishes on the neighborhood boundary.

On the grid, a translation-invariant model's interaction at the cell centers
is one FFT correlation over the padded bounding box (numpy's FFT); each axis
pads to the smallest 2^a 3^b 5^c length, computed here by
:func:`next_fast_len`, so the module needs nothing from scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfftn, rfftn

from .grids import PAIR_BLOCK, AtomicMeasure, GridMeasure, NumericalInvariantError, sq_norm

# The pair sum at the atoms takes its at-atoms form from _DENSE_MAX_ATOMS + 1
# = 64 atoms on, and its dense form below. On n uniform atoms in [0, 1]^d with
# R = 0.1, the dense form was faster at n = 48 in 1D and the at-atoms form at
# n = 64; in 2D, ball or sector, the at-atoms form was faster from n = 48
# (2-CPU x86 VM, numpy 2.4, one thread).
_DENSE_MAX_ATOMS = 63
# Memory ceiling on the padded box of the lattice correlation times d, the
# stencil components being transformed at once: a 2^22-cell real array takes
# 32 MB. One call at the ceiling raised the peak RSS by 192 MB in 1D at 2^22
# cells and by 176 MB in 2D at 2^21 cells a component, and left the spectra of
# the stencil and of its nonzero mask, 64 MB, held in their cache (numpy 2.4).
# Past it the pair sum runs, in PAIR_BLOCK blocks.
_LATTICE_MAX_CELLS = 1 << 22
# The spectra pairs the lattice path holds between steps, one per (model, h,
# padded shape): at most 128 MB at the ceiling, two shapes, enough for a
# level whose box steps between two padded lengths.
_SPECTRA_HELD = 2


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
    vmax: float = field(default=0.0, init=False)
    lip: float = field(default=0.0, init=False)

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
    """The field v[mu](x) = v_d(x) + N sum_l w_l F(x_l - x) sigma_{U_x}(x_l).

    ``desired`` (v_d) and ``kernel`` (F) may be any objects that map an
    (..., d) array to an (..., d) array, one d-vector per point, and carry
    their bounds: ``vmax`` and ``lip`` for v_d, ``fmax`` and ``lip`` for F.
    The kernel must be odd, F(-z) = -F(z), as CaseStudyRepulsion and
    PrototypeAttraction are: the pair sum at the atoms evaluates each pair
    once and gives its two rows opposite terms, and F(0) = 0, so a lone agent
    exerts no force on itself.
    """

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
        # |F(z)| = |z| reaches almost R on the neighborhood, so fmax bounds it
        # only when the cap is at least R
        if (isinstance(self.kernel, PrototypeAttraction)
                and self.kernel.cap_radius < self.neighborhood.radius):
            raise ValueError(f"attraction R = {self.kernel.cap_radius!r} is below the "
                             f"neighborhood's R = {self.neighborhood.radius!r}, so "
                             "F_max would not bound |F|")
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


def _frame_cutoff(model: VelocityModel, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """sigma_{U_x}(x + z) for the offsets Z (..., d) seen from the points X,
    which broadcast against Z: a sector faces the heading at each point of X."""
    if not isinstance(model.neighborhood, Sector):
        return model.neighborhood.cutoff(Z)
    return model.neighborhood.cutoff(Z, _headings(model, X))


def cutoff_at(model: VelocityModel, X, Y) -> np.ndarray:
    """sigma_{U_x}(y) for the points x of X and y of Y, which broadcast: the
    reference cutoff pulled back through the isometry at x, rotation_at."""
    X = np.asarray(X, dtype=float)
    return _frame_cutoff(model, X, np.asarray(Y, dtype=float) - X)


def _window_blocks(count: np.ndarray):
    """The pairs of the at-atoms sum in blocks: sorted atom i pairs with the
    count[i] atoms after it. Yields (row, col), each pair's two atom indices,
    for the rows lo..hi-1, which hold at most PAIR_BLOCK pairs (or row lo
    alone); rows are never split, and pairs come row by row, atoms in order."""
    ends = np.cumsum(count)  # the pairs of row i are ends[i] - count[i] ... ends[i] - 1
    lo = 0
    while lo < len(count):
        base = ends[lo] - count[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + PAIR_BLOCK, "right")))
        n = count[lo:hi]
        # pair p, counted over all rows, pairs row i with atom p + i + 1 - (ends[i] - n[i])
        shift = np.arange(lo + 1, hi + 1) - ends[lo:hi] + n
        yield np.repeat(np.arange(lo, hi), n), np.arange(base, ends[hi - 1]) + np.repeat(shift, n)
        lo = hi


def _interaction_sum(model: VelocityModel, Y: np.ndarray, w: np.ndarray,
                     X: np.ndarray) -> np.ndarray:
    """N * sum_j w_j F(y_j - x) sigma_{U_x}(y_j) for each row x of X: the
    dense field at any points, the reference of every faster form. Every
    (query, atom) pair is evaluated, in blocks of at most PAIR_BLOCK pairs,
    and a row gets the same bits whether alone or in a batch."""
    q, d = X.shape
    out = np.empty((q, d))
    block = max(1, PAIR_BLOCK // max(Y.shape[0], 1))
    for lo in range(0, q, block):
        Xb = X[lo:lo + block, None, :]
        Z = Y[None, :, :] - Xb
        sig = _frame_cutoff(model, Xb, Z)
        F = kernel_F(model.kernel, Z)
        out[lo:lo + block] = np.einsum("j,bj,bjd->bd", w, sig, F)
    return model.n_agents * out


def _interaction_sum_at_atoms(model: VelocityModel, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The pair sum at the atoms themselves for an odd kernel: the dense form
    up to _DENSE_MAX_ATOMS atoms, and above, each pair of atoms evaluated once.

    U_x lies inside B_R(x), so with the atoms sorted by first coordinate,
    atom i pairs only with the atoms after it, up to y_0 + R (rounding is
    monotone, so a computed |z|^2 below R^2 implies |z_0| < R). A pair
    (i, j), i < j, z = y_j - y_i, evaluates F(z) once and gives
    w_j F(z) sigma_i(z) to row i and -w_i F(z) sigma_j(-z) to row j, where
    sigma_i is the cutoff seen from atom i: a ball's reads only |z|^2, so
    the two rows share it, and a sector faces each atom's heading, computed
    once per call. ``np.add.at`` adds in order, a block's terms to the rows
    j first, then those to the rows i, and a row is never split across
    blocks. So each row sums its terms in sorted atom order, and the block
    size moves no bits.
    """
    m, d = Y.shape
    if m <= _DENSE_MAX_ATOMS:
        return _interaction_sum(model, Y, w, Y)
    order = np.argsort(Y[:, 0], kind="stable")
    Y, w = Y[order], w[order]
    after = np.searchsorted(Y[:, 0], Y[:, 0] + model.neighborhood.radius, "right")
    count = after - np.arange(1, m + 1)  # atom i pairs with the atoms i + 1 ... after[i] - 1
    u = _headings(model, Y) if isinstance(model.neighborhood, Sector) else None
    out = np.zeros((d, m))
    for row, col in _window_blocks(count):
        # take gathers rows several times faster than fancy indexing
        Z = Y.take(col, axis=0) - Y.take(row, axis=0)
        F = kernel_F(model.kernel, Z)
        if u is None:
            sig_i = sig_j = model.neighborhood.cutoff(Z)
        else:
            sig_i = model.neighborhood.cutoff(Z, u.take(row, axis=0))
            sig_j = model.neighborhood.cutoff(-Z, u.take(col, axis=0))
        to_j = -(w.take(row) * sig_j)[:, None] * F
        to_i = (w.take(col) * sig_i)[:, None] * F
        for l in range(d):
            np.add.at(out[l], col, to_j[:, l])
            np.add.at(out[l], row, to_i[:, l])
    unsorted = np.empty((m, d))
    unsorted[order] = out.T
    return model.n_agents * unsorted


def _lattice_stencil(model: VelocityModel, h: float) -> np.ndarray:
    """The lattice correlation's stencil, flipped for a convolution:
    G[b] = K[r - b] = N sigma(z) F(z) at z = (r - b) h for b in [0, 2r]^d,
    shaped (2r + 1,) * d + (d,): the term of a unit atom at 0 seen from the
    point -z, whose heading is the model's constant one. Built anew on each
    call; only its spectra are cached (:func:`_stencil_spectra`)."""
    d, r = model.dim, math.ceil(model.neighborhood.radius / h)
    Z = (r - np.indices((2 * r + 1,) * d).reshape(d, -1).T) * h
    G = model.n_agents * (_frame_cutoff(model, -Z, Z)[:, None] * kernel_F(model.kernel, Z))
    return G.reshape((2 * r + 1,) * d + (d,))


def next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1), the length each lattice axis
    pads to: numpy's FFT is several times slower on lengths with a large
    prime factor. It is the length ``scipy.fft.next_fast_len(n, real=True)``
    gives, so the padded shape, and with it every output bit, is scipy's."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < n:
            # p35 times the smallest power of 2 that reaches n
            m = p35 << ((n - 1) // p35).bit_length()
            if m < best:
                best = m
            p35 *= 3
        if p35 < best:
            best = p35
        p5 *= 5
    return best


@functools.lru_cache(maxsize=_SPECTRA_HELD)
def _stencil_spectra(model: VelocityModel, h: float, shape: tuple) -> tuple:
    """The rfftn of the stencil and of its nonzero mask (G != 0), zero-padded
    to ``shape`` over the lattice axes: fixed for (model, h, shape), so
    computed once and returned read-only; a miss builds the stencil anew.
    Models built from a config hash by value."""
    G, axes = _lattice_stencil(model, h), tuple(range(model.dim))
    spectra = rfftn(G, shape, axes), rfftn((G != 0).astype(float), shape, axes)
    for f in spectra:
        f.setflags(write=False)
    return spectra


def _correlate(spectrum: np.ndarray, shape: tuple, cells: np.ndarray, values, r: int) -> np.ndarray:
    """(m, d): the correlation of ``values`` at the (m, d) ``cells`` with each
    stencil component whose transform is ``spectrum``, read at the cells: one
    forward transform of the dense box and one inverse."""
    # f holds the dense box, then the product of the transforms: rebinding it
    # frees the box before the inverse transform (32 MB at the ceiling)
    f = np.zeros(shape)
    f[tuple(cells.T)] = values
    f = spectrum * rfftn(f)[..., None]
    # cell i sits at i - lo + r of the full convolution
    return irfftn(f, shape, tuple(range(len(shape))))[tuple((cells + r).T)]


def _lattice_interaction(model: VelocityModel, lam: GridMeasure):
    """The interaction term at lam's own cell centers as a lattice correlation.

    For a translation-invariant model, N * sum_c m_c F((c - i) h) sigma((c - i) h)
    at cell i is the correlation of the dense bounding-box mass with the
    stencil K[o] = N F(o h) sigma(o h), |o|_inf <= r = ceil(R / h). It is
    computed by FFT, zero-padded to box + 2r so nothing wraps: a forward
    transform and an inverse a step for the mass, and the same for the
    occupancy, the spectra of the stencil and of its nonzero mask coming from
    a cache per (model, h, padded shape). Returns None where the pair sum must
    or should run instead: position-dependent headings, or a padded box larger
    than the pair count (or the memory ceiling). The result agrees with the
    pair sum to rounding.
    """
    # a sector whose heading follows a varying desired velocity is the one
    # model whose interaction depends on more than the offset
    if lam.occupied == 0 or (isinstance(model.neighborhood, Sector)
                             and not isinstance(model.heading, FixedAxis)
                             and not isinstance(model.desired, ConstantDesired)):
        return None
    h, d = lam.spec.cell_width, lam.spec.dim
    r = math.ceil(model.neighborhood.radius / h)
    lo = lam.indices.min(axis=0)
    full = lam.indices.max(axis=0) - lo + 1 + 2 * r  # extent of the correlation
    shape = tuple(next_fast_len(int(n)) for n in full)
    if math.prod(shape) > min(_LATTICE_MAX_CELLS // d, lam.occupied ** 2):
        return None

    cells = lam.indices - lo
    stencil, mask = _stencil_spectra(model, h, shape)
    inter = _correlate(stencil, shape, cells, lam.cell_masses(), r)
    # FFT rounding never gives an exact 0, but the pair sum does where every
    # term of a component is 0 (no cell in range, or all on the cell's row in
    # 2D), and a rounding-level velocity there would leak mass into a neighbor
    # cell. So keep 0 where a cell sees no occupied cell through the
    # component's nonzero stencil entries: the correlation of the occupancy a
    # (m ones) with the mask b (q ones) counts them. To first order its
    # rounding error is at most 24 u log2(N) (|a|_1 |b|_2 + |a|_2 |b|_1), N
    # the padded cells and u = 2^-53 (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., 24.1, taken through pocketfft's radix
    # 2-5 passes and half spectra); with m, q <= N <= _LATTICE_MAX_CELLS that
    # is below 1.1e-3, so a count of 0 stays below 1/2 and one of 1 above it.
    return np.where(_correlate(mask, shape, cells, 1.0, r) > 0.5, inter, 0.0)


def eval_grid_many(model: VelocityModel, lam: GridMeasure, X: np.ndarray) -> np.ndarray:
    """v[lambda](x) at each row x of X by cell-center quadrature over the
    occupied cells. Where X equals ``lam.centers()`` (by value), the
    lattice correlation runs where :func:`_lattice_interaction` applies,
    else the pair sum at the atoms; other points take the dense sum."""
    X = np.asarray(X, dtype=float)
    C = lam.centers()
    if np.array_equal(X, C):
        inter = _lattice_interaction(model, lam)
        if inter is None:
            inter = _interaction_sum_at_atoms(model, C, lam.cell_masses())
    else:
        inter = _interaction_sum(model, C, lam.cell_masses(), X)
    return model.desired(X) + inter


def eval_atomic_many(model: VelocityModel, mu: AtomicMeasure, X) -> np.ndarray:
    """v[mu](x) at each row x of the points X: the pair sum at the atoms
    where X equals ``mu.positions`` (by value), else the dense sum."""
    X = np.asarray(X, dtype=float)
    Y, w = mu.positions, mu.weights
    if X is Y or np.array_equal(X, Y):  # the oracle's step passes mu.positions itself
        return model.desired(X) + _interaction_sum_at_atoms(model, Y, w)
    return model.desired(X) + _interaction_sum(model, Y, w, X)


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
