"""Explicit push-forward scheme for grid measures.

One step freezes the velocity per occupied cell (evaluated at the cell center
against the current grid measure), translates each cell by v*dt, and
redistributes its mass to the overlapped target cells by exact box-overlap
fractions. Mass is conserved up to rounding and densities stay nonnegative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grids import GridMeasure, GridSpec, GridTrajectory, interpolate, total_mass
from .velocity import (VanishingHeadingError, VelocityModel, eval_grid_many,
                       velocity_bound)

DEFAULT_MAX_OCCUPIED = 10 ** 7


class NumericalInvariantError(RuntimeError):
    """A runtime invariant of the scheme was violated (mass, support, ...)."""


@dataclass(frozen=True)
class MeshSchedule:
    """Refinement levels (k, h, dt) with dt = (h / v_ref)^delta, 0 < delta < 1."""

    levels: tuple
    delta: float
    v_ref: float

    def __post_init__(self):
        hs = [h for _, h, _ in self.levels]
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("cell widths must be strictly decreasing across levels")


def mesh_schedule(v_ref: float, delta: float, ks) -> MeshSchedule:
    """Levels h_k = 1/k, dt_k = (h_k / v_ref)^delta for each k in ks."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie strictly in (0, 1), got {delta!r}")
    if not (v_ref > 0):
        raise ValueError("v_ref must be positive")
    ks = list(ks)
    if not ks or any(k <= 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be positive and strictly increasing")
    levels = tuple((k, 1.0 / k, (1.0 / (k * v_ref)) ** delta) for k in ks)
    return MeshSchedule(levels, delta, v_ref)


@dataclass(frozen=True)
class StepReport:
    mass_error: float
    max_displacement: float
    cfl_alpha: float
    occupied_cells: int


def cfl_ratio(model: VelocityModel, dt: float, h: float) -> float:
    """alpha = V dt / h, the per-step displacement in cell units."""
    if not (dt > 0 and h > 0):
        raise ValueError("dt and h must be positive")
    return velocity_bound(model) * dt / h


def box_overlap_fractions(spec: GridSpec, j, w):
    """Volume fractions of cell j translated by w against the target cells.

    The translated box overlaps at most 2 cells per axis; fractions are
    nonnegative and sum to 1 up to rounding.
    """
    h = spec.cell_width
    per_axis = []
    for l in range(spec.dim):
        s = j[l] + w[l] / h
        base = math.floor(s)
        frac = s - base
        if frac == 0.0:
            per_axis.append(((int(base), 1.0),))
        else:
            per_axis.append(((int(base), 1.0 - frac), (int(base) + 1, frac)))
    out = []
    for combo in itertools.product(*per_axis):
        f = 1.0
        for _, fl in combo:
            f *= fl
        out.append((tuple(c[0] for c in combo), f))
    return out


def step(lam: GridMeasure, model: VelocityModel, dt: float):
    """One push-forward step; returns the new measure and a StepReport."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    spec = lam.spec
    h = spec.cell_width
    d = spec.dim

    try:
        V = eval_grid_many(model, lam, lam.centers())
    except VanishingHeadingError as exc:
        raise NumericalInvariantError(str(exc)) from exc
    disp = V * dt
    s = lam.indices + disp / h
    base = np.floor(s).astype(np.int64)
    frac = s - base

    targets = []
    contribs = []
    for corner in itertools.product((0, 1), repeat=d):
        f = np.ones(lam.occupied)
        for l, c in enumerate(corner):
            f = f * (frac[:, l] if c else 1.0 - frac[:, l])
        targets.append(base + np.asarray(corner, dtype=np.int64))
        contribs.append(lam.rho * f)
    targets = np.concatenate(targets)
    contribs = np.concatenate(contribs)

    uniq, inv = np.unique(targets, axis=0, return_inverse=True)
    rho_new = np.zeros(uniq.shape[0])
    np.add.at(rho_new, inv.ravel(), contribs)
    new = GridMeasure(spec, uniq, rho_new)

    report = StepReport(
        mass_error=abs(total_mass(new) - 1.0),
        max_displacement=float(np.max(np.linalg.norm(disp, axis=1))) if lam.occupied else 0.0,
        cfl_alpha=cfl_ratio(model, dt, h),
        occupied_cells=new.occupied,
    )
    return new, report


def run(lam0: GridMeasure, model: VelocityModel, T: float, dt: float,
        max_occupied: int = DEFAULT_MAX_OCCUPIED) -> GridTrajectory:
    """Iterate the scheme for round(T/dt) steps from lam0."""
    if not (T > 0 and dt > 0):
        raise ValueError("T and dt must be positive")
    n_steps = max(1, round(T / dt))
    frames = [lam0]
    reports = []
    lam = lam0
    for n in range(n_steps):
        lam, rep = step(lam, model, dt)
        if rep.mass_error > 1e-10:
            raise NumericalInvariantError(
                f"mass error {rep.mass_error:.3e} at step {n + 1} exceeds 1e-10")
        if rep.occupied_cells > max_occupied:
            raise NumericalInvariantError(
                f"support blow-up: {rep.occupied_cells} occupied cells at "
                f"step {n + 1} exceed the cap {max_occupied}")
        frames.append(lam)
        reports.append(rep)
    return GridTrajectory(lam0.spec, dt, frames, reports)


def sample_at(traj: GridTrajectory, t: float) -> GridMeasure:
    """Linear-in-time interpolant of the trajectory at time t."""
    T = traj.duration
    if t < -1e-12 or t > T + 1e-12:
        raise ValueError(f"t={t!r} outside [0, {T!r}]")
    t = min(max(t, 0.0), T)
    if len(traj.frames) == 1:
        return traj.frames[0]
    n = min(int(t / traj.dt), len(traj.frames) - 2)
    theta = (t - n * traj.dt) / traj.dt
    return interpolate(traj.frames[n], traj.frames[n + 1], min(max(theta, 0.0), 1.0))
