"""Explicit push-forward scheme for grid measures.

One step freezes the velocity per occupied cell (evaluated at the cell center
against the current grid measure), translates each cell by v*dt, and
redistributes its mass to the overlapped target cells by exact box-overlap
fractions. Mass is conserved up to rounding and densities stay nonnegative.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grids import (GridMeasure, GridSpec, NumericalInvariantError, check_mass,
                    sq_norm, total_mass)
from .velocity import VelocityModel, eval_grid_many, velocity_bound

DEFAULT_MAX_OCCUPIED = 10 ** 7
DEFAULT_MAX_STEPS = 10 ** 7
# the run's slack on its per-step checks: a cell moves at most V*dt*(1 + it),
# and each cell's overlap fractions sum to 1 within it
STEP_TOL = 1e-12


def mesh_schedule(v_ref: float, delta: float, ks) -> tuple:
    """Refinement levels ((k, h_k, dt_k), ...) with h_k = 1/k and
    dt_k = (h_k / v_ref)^delta, 0 < delta < 1; increasing ks make h decrease."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie strictly in (0, 1), got {delta!r}")
    if not (v_ref > 0):
        raise ValueError("v_ref must be positive")
    ks = list(ks)
    if not ks or any(k <= 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be positive and strictly increasing")
    return tuple((k, 1.0 / k, (1.0 / (k * v_ref)) ** delta) for k in ks)


@dataclass(frozen=True)
class StepReport:
    mass: float
    max_displacement: float
    cfl_alpha: float
    occupied_cells: int
    partition_error: float  # max over cells of |sum of its fractions - 1|

    @property
    def mass_error(self) -> float:
        return abs(self.mass - 1.0)


def cfl_ratio(model: VelocityModel, dt: float, h: float) -> float:
    """alpha = V dt / h, the per-step displacement in cell units."""
    if not (dt > 0 and h > 0):
        raise ValueError("dt and h must be positive")
    return velocity_bound(model) * dt / h


@functools.lru_cache(maxsize=None)
def _corners(d: int) -> np.ndarray:
    """The 2^d corner offsets in {0, 1}^d, last axis fastest, shaped (2^d, 1, d)."""
    return np.array(list(itertools.product((0, 1), repeat=d)), dtype=np.int64)[:, None, :]


def overlap_fractions(spec: GridSpec, J, W):
    """Target cells and volume fractions of the cells J (m, d) translated by W.

    Each translated box overlaps at most 2 cells per axis, so the result is
    ``targets`` (2^d m, d) and ``fractions`` (2^d m,), corner-major: rows
    c*m .. (c+1)*m - 1 are corner c of every cell. A cell's fractions are
    nonnegative and sum to 1 up to rounding; some may be zero.
    """
    d = spec.dim
    corners = _corners(d)
    s = np.add(J, np.divide(W, spec.cell_width)).reshape(-1, d)
    base = np.floor(s)
    frac = s - base
    fractions = np.multiply.reduce(np.where(corners, frac, 1.0 - frac), axis=-1)
    targets = base.astype(np.int64) + corners
    return targets.reshape(-1, d), fractions.reshape(-1)


def step(lam: GridMeasure, model: VelocityModel, dt: float):
    """One push-forward step; returns the new measure and a StepReport."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    spec = lam.spec

    disp = eval_grid_many(model, lam, lam.centers()) * dt
    targets, fractions = overlap_fractions(spec, lam.indices, disp)
    new = GridMeasure(spec, targets, np.tile(lam.rho, 2 ** spec.dim) * fractions)

    report = StepReport(
        mass=total_mass(new),
        max_displacement=float(np.max(np.sqrt(sq_norm(disp)))) if lam.occupied else 0.0,
        cfl_alpha=cfl_ratio(model, dt, spec.cell_width),
        occupied_cells=new.occupied,
        partition_error=float(np.abs(fractions.reshape(2 ** spec.dim, -1).sum(axis=0) - 1.0)
                              .max(initial=0.0)),
    )
    return new, report


def step_count(T: float, dt: float) -> int:
    """Number of steps a run of horizon T takes: round(T/dt), at least one.
    More than DEFAULT_MAX_STEPS are refused."""
    if not (0 < T < math.inf and 0 < dt < math.inf):
        raise ValueError(f"T and dt must be positive and finite, got T={T!r}, dt={dt!r}")
    if not (T / dt <= DEFAULT_MAX_STEPS):
        raise ValueError(f"T/dt = {T / dt:.3g} steps exceed the cap {DEFAULT_MAX_STEPS} "
                         f"(T={T!r}, dt={dt!r})")
    return max(1, round(T / dt))


def run(lam0: GridMeasure, model: VelocityModel, T: float, dt: float):
    """Iterate the scheme for step_count(T, dt) steps from lam0, yielding
    ``(lam, report)`` after each step; no frame is kept. A step breaks the
    run if a cell moves farther than V*dt or its overlap fractions do not
    sum to 1 (each within STEP_TOL), if it loses mass, or if more cells than
    DEFAULT_MAX_OCCUPIED are occupied."""
    lam = lam0
    reach = velocity_bound(model) * dt
    for n in range(step_count(T, dt)):
        lam, rep = step(lam, model, dt)
        if not rep.max_displacement <= reach * (1.0 + STEP_TOL):  # NaN fails too
            raise NumericalInvariantError(
                f"a cell moved {rep.max_displacement!r} at step {n + 1}, "
                f"farther than V*dt = {reach!r}")
        if not rep.partition_error <= STEP_TOL:
            raise NumericalInvariantError(
                f"a cell's overlap fractions sum to 1 only within {rep.partition_error:.3g} "
                f"at step {n + 1}, over {STEP_TOL}")
        check_mass(rep.mass, f"the grid after step {n + 1}")
        if rep.occupied_cells > DEFAULT_MAX_OCCUPIED:
            raise NumericalInvariantError(
                f"support blow-up: {rep.occupied_cells} occupied cells at "
                f"step {n + 1} exceed the cap {DEFAULT_MAX_OCCUPIED}")
        yield lam, rep


def sample_at(before: GridMeasure, after: GridMeasure, theta: float) -> GridMeasure:
    """(1 - theta) before + theta after, of two frames on one grid; a frame of
    weight 0 adds no cell, and a theta outside [0, 1], or NaN, is refused."""
    if before.spec != after.spec:
        raise ValueError("the frames live on different grids")
    return GridMeasure(before.spec, np.concatenate([before.indices, after.indices]),
                       np.concatenate([(1.0 - theta) * before.rho, theta * after.rho]))
