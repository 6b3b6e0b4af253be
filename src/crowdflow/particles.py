"""Exact characteristics solver for atomic initial data.

Explicit Euler on the coupled ODE system of agent positions. On Dirac sums
this coincides, atom by atom, with pushing the measure forward through the
one-step flow map x -> x + v[mu] dt, so it serves as the convergence oracle
for the grid scheme.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grids import AtomicMeasure, csv_text
from .scheme import step_count
from .velocity import VelocityModel, eval_atomic_many


@dataclass(frozen=True)
class ParticleState:
    positions: np.ndarray  # (N, d)
    t: float

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1:
            raise ValueError("positions must be a nonempty (N, d) array")
        if not np.isfinite(p).all():
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", p)


def to_measure(state: ParticleState, return_inverse: bool = False):
    """Uniform Dirac sum over the particle positions; exact duplicates stack.

    Stacked atoms keep the order and the position of their first occurrence,
    and each stacked weight is summed in input order. With ``return_inverse``
    the result is ``(mu, atom)``: particle i sits on atom ``atom[i]`` of mu.
    """
    pos = state.positions
    n = pos.shape[0]
    order = np.lexsort(pos.T[::-1])  # stable: equal rows keep input order
    starts = np.concatenate(([True], (pos[order[1:]] != pos[order[:-1]]).any(axis=1)))
    if starts.all():
        mu, atom = AtomicMeasure(pos, np.full(n, 1.0 / n)), np.arange(n)
    else:
        group = np.empty(n, dtype=np.int64)
        group[order] = np.cumsum(starts) - 1  # distinct rows numbered in sorted order
        # label every row by its group's first occurrence, then number those in input order
        first, atom = np.unique(order[starts][group], return_inverse=True)
        mu = AtomicMeasure(pos[first], np.bincount(atom, np.full(n, 1.0 / n)))
    return (mu, atom) if return_inverse else mu


def push_forward_atoms(mu: AtomicMeasure, model: VelocityModel, dt: float) -> AtomicMeasure:
    """Push mu forward through the one-step flow map x + v[mu](x) dt."""
    moved = mu.positions + dt * eval_atomic_many(model, mu, mu.positions)
    return AtomicMeasure(moved, mu.weights)


def euler_step(state: ParticleState, model: VelocityModel, dt: float) -> ParticleState:
    """Synchronous Euler update of every particle against the pre-step state.

    The velocity is evaluated once per distinct position, at the atoms of the
    stacked measure, and each particle moves with its atom's velocity.
    """
    mu, atom = to_measure(state, return_inverse=True)
    vel = eval_atomic_many(model, mu, mu.positions)
    return ParticleState(state.positions + dt * vel.take(atom, axis=0), state.t + dt)


def run_particles(x0, model: VelocityModel, T: float, dt: float) -> tuple:
    """The states at t_n = n*dt of step_count(T, dt) Euler steps from the
    initial positions x0, the initial state first."""
    state = ParticleState(np.asarray(x0, dtype=float), 0.0)
    states = [state]
    for _ in range(step_count(T, dt)):
        state = euler_step(state, model, dt)
        states.append(state)
    return tuple(states)


def write_trajectory_csv(states, path) -> None:
    """CSV with one row ``t, particle, x_0, ...`` per (t, particle), sorted by
    time then particle; each state's rows are written at once."""
    n, d = states[0].positions.shape
    header = ["t", "particle"] + [f"x_{l}" for l in range(d)]
    particles = [str(l) for l in range(n)]
    with open(path, "w", newline="") as fh:
        fh.write(csv_text([header]))
        for s in states:
            columns = [map(repr, c) for c in s.positions.T.tolist()]
            fh.write(csv_text(zip(itertools.repeat(repr(float(s.t))), particles, *columns)))
