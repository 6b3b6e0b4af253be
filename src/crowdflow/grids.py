"""Sparse piecewise-constant measures on a hypercube lattice and atomic measures.

A grid cell with integer index i = (i_1, ..., i_d) is the half-open box
prod_l [(i_l - 1/2) h, (i_l + 1/2) h); the cells partition R^d. Occupied
cells are kept lexicographically sorted so every reduction has a fixed,
reproducible summation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# the one tolerance of "sums to one", for grid and atomic measures alike
MASS_TOL = 1e-10


class NumericalInvariantError(RuntimeError):
    """A runtime invariant of the scheme was violated (mass, support, ...)."""


class MassError(NumericalInvariantError, ValueError):
    """A measure's total mass differs from 1 by more than MASS_TOL: a
    configuration error at load, a numerical invariant violation in a run."""


def check_mass(total: float, what: str) -> None:
    """The one mass rule of a probability measure: |total - 1| <= MASS_TOL."""
    if not abs(total - 1.0) <= MASS_TOL:  # NaN fails too
        raise MassError(f"the mass {total!r} of {what} differs from 1 by more than {MASS_TOL}")


def _positive_part(rows: np.ndarray, values: np.ndarray, what: str):
    """``(rows, values)`` without the rows whose value is 0, both returned as
    given when none is; the values must be finite and nonnegative."""
    lightest = values.min(initial=math.inf)
    if not (lightest >= 0 and values.max(initial=0.0) < math.inf):  # NaN fails both
        raise ValueError(f"{what} must be finite and nonnegative")
    if lightest > 0:
        return rows, values
    keep = values > 0
    return rows[keep], values[keep]


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice of half-open hypercube cells of edge ``cell_width``."""

    dim: int
    cell_width: float

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not (self.cell_width > 0 and math.isfinite(self.cell_width)):
            raise ValueError(f"cell_width must be positive, got {self.cell_width!r}")
        try:
            volume = self.cell_volume
        except OverflowError:  # a float power raises where it would pass the largest float
            volume = math.inf
        if not (0 < volume < math.inf):
            raise ValueError(f"cell volume h^d = {self.cell_width!r}^{self.dim} "
                             f"is not a positive finite float")

    @property
    def cell_volume(self) -> float:
        return self.cell_width ** self.dim


def cell_indices(spec: GridSpec, X: np.ndarray) -> np.ndarray:
    """Indices floor(x/h + 1/2) of the cells containing the points x of X
    (..., d), as int64; a point on a cell boundary lies in the cell above.
    Points must lie within 2^53 cells of 0, where int64 and float agree."""
    if X.shape[-1:] != (spec.dim,):
        raise ValueError(f"points of shape {X.shape} do not lie in {spec.dim}D")
    q = X / spec.cell_width
    if not np.all(np.abs(q) < 2.0 ** 53):  # NaN fails too
        raise ValueError(f"a point lies 2^53 or more cells of width "
                         f"{spec.cell_width!r} from the origin")
    return np.floor(q + 0.5).astype(np.int64)


# Max point pairs in one block of any pairwise scan, the velocity pair sums'
# and W1's cost blocks; a row is never split. Sized to the cache: each of a
# block's temporaries takes at most 128 KB, which the allocator reuses from
# block to block; at 4e6 a 1000-agent 1D oracle step (68k pairs, 0.5 MB
# temporaries) faulted fresh memory in and ran 1.5x slower. Over 2^12-2^16,
# 2^14 was fastest or tied on the 1D oracle and 2D pair sums, and no slower
# than 2^18 on the 2D W1 rows (2-CPU x86 VM, numpy 2.4, one thread).
PAIR_BLOCK = 1 << 14


def sq_norm(z: np.ndarray) -> np.ndarray:
    """|z|^2 over the last axis, summed one component at a time from the first:
    the same bits as ``np.sum(z * z, axis=-1)``, whose square root is
    ``np.linalg.norm(z, axis=-1)``, without their reduction over a short axis
    (several times slower on many short rows)."""
    s = z[..., 0] * z[..., 0]
    for l in range(1, z.shape[-1]):
        s += z[..., l] * z[..., l]
    return s


def merge_duplicates(keys: np.ndarray, values: np.ndarray):
    """Rows of ``keys`` (n, d) in lexicographic order, with the ``values`` of
    equal rows summed in their input order."""
    order = np.lexsort(keys.T[::-1])
    keys, values = keys[order], values[order]
    distinct = np.any(keys[1:] != keys[:-1], axis=1)
    if not np.all(distinct):
        values = np.bincount(np.concatenate(([0], np.cumsum(distinct))), weights=values)
        keys = keys[np.concatenate(([True], distinct))]
    return keys, values


class GridMeasure:
    """Finitely supported piecewise-constant density on a :class:`GridSpec`.

    ``indices`` is an (m, d) int array of occupied cells, lexicographically
    sorted; ``rho`` the matching densities (mass per cell is rho * h^d).
    Absent cells have density zero.
    """

    __slots__ = ("spec", "indices", "rho")

    def __init__(self, spec: GridSpec, indices, rho):
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, spec.dim)
        rho = np.asarray(rho, dtype=float).reshape(-1)
        if indices.shape[0] != rho.shape[0]:
            raise ValueError("indices and rho must have the same length")
        indices, rho = merge_duplicates(*_positive_part(indices, rho, "densities"))
        self.spec = spec
        self.indices = indices
        self.rho = rho
        self.indices.setflags(write=False)
        self.rho.setflags(write=False)

    @property
    def occupied(self) -> int:
        return int(self.indices.shape[0])

    def centers(self) -> np.ndarray:
        """Center i*h of each occupied cell i."""
        return self.indices * self.spec.cell_width

    def cell_masses(self) -> np.ndarray:
        return self.rho * self.spec.cell_volume


class AtomicMeasure:
    """Weighted sum of Dirac masses; weights are positive and sum to one."""

    __slots__ = ("positions", "weights")

    def __init__(self, positions, weights=None):
        """Atoms at ``positions`` of ``weights`` (uniform if None), both
        copied and frozen: :meth:`moved` is the one path that shares them."""
        positions = np.array(positions, dtype=float)
        if positions.ndim == 1:
            positions = positions[:, None]
        if positions.ndim != 2 or positions.shape[0] == 0:
            raise ValueError("positions must be a nonempty (n, d) array")
        if not np.isfinite(positions).all():
            raise ValueError("positions must be finite")
        n = positions.shape[0]
        weights = (np.full(n, 1.0 / n) if weights is None
                   else np.array(weights, dtype=float).reshape(-1))
        if weights.shape[0] != n:
            raise ValueError("positions and weights must have the same length")
        self.positions, self.weights = _positive_part(positions, weights, "weights")
        check_mass(float(self.weights.sum()), "the weights")
        self.positions.setflags(write=False)
        self.weights.setflags(write=False)

    def moved(self, positions) -> AtomicMeasure:
        """The same atoms at new ``positions`` of this measure's shape: the
        positions are copied, checked finite and frozen, and the weights,
        validated once and never changed, are shared."""
        positions = np.array(positions, dtype=float)
        if positions.shape != self.positions.shape:
            raise ValueError(f"positions of shape {positions.shape} do not move "
                             f"atoms of shape {self.positions.shape}")
        if not np.isfinite(positions).all():
            raise ValueError("positions must be finite")
        positions.setflags(write=False)
        out = object.__new__(type(self))
        out.positions, out.weights = positions, self.weights
        return out

    @property
    def dim(self) -> int:
        return int(self.positions.shape[1])

    @property
    def n_atoms(self) -> int:
        return int(self.positions.shape[0])

    def to_json(self) -> str:
        atoms = [{"x": [float(v) for v in p], "w": float(w)}
                 for p, w in zip(self.positions, self.weights)]
        return json.dumps(atoms)


def project_atomic(mu_bar: AtomicMeasure, spec: GridSpec) -> GridMeasure:
    """Cell-average projection: rho_i = (atomic mass of cell i) / h^d."""
    return GridMeasure(spec, cell_indices(spec, mu_bar.positions),
                       mu_bar.weights / spec.cell_volume)


def total_mass(lam: GridMeasure) -> float:
    """h^d * sum of densities, summed in sorted-index order."""
    return float(np.sum(lam.cell_masses()))


def moment(measure, p: int) -> float:
    """p-th absolute moment; cell-center quadrature for grid measures."""
    if p not in (1, 2):
        raise ValueError(f"unsupported moment order {p!r}")
    if isinstance(measure, AtomicMeasure):
        r = np.sqrt(sq_norm(measure.positions))
        return float(np.dot(measure.weights, r ** p))
    if isinstance(measure, GridMeasure):
        r = np.sqrt(sq_norm(measure.centers()))
        return float(np.dot(measure.cell_masses(), r ** p))
    raise TypeError(f"unsupported measure type {type(measure)!r}")


def atomize(lam: GridMeasure) -> AtomicMeasure:
    """One atom per occupied cell, at the cell center, weight h^d * rho."""
    return AtomicMeasure(lam.centers(), lam.cell_masses())


def csv_text(rows) -> str:
    """The text ``csv.writer`` writes for ``rows`` of preformatted fields that
    are nonempty and need no quoting, such as ints and ``repr``'d floats."""
    text = "\r\n".join(map(",".join, rows))
    return text + "\r\n" if text else text


def write_density_csv(lam: GridMeasure, path) -> None:
    """Snapshot CSV: index_*, center_*, rho; one row per occupied cell."""
    check_mass(total_mass(lam), "the grid measure")
    d = lam.spec.dim
    header = [f"index_{l}" for l in range(d)] + [f"center_{l}" for l in range(d)] + ["rho"]
    columns = ([map(str, c) for c in lam.indices.T.tolist()]
               + [map(repr, c) for c in lam.centers().T.tolist()]
               + [map(repr, lam.rho.tolist())])
    with open(path, "w", newline="") as fh:
        fh.write(csv_text([header]))
        fh.write(csv_text(zip(*columns)))
