"""Exact characteristics solver for atomic initial data.

Explicit Euler on the coupled ODE system of agent positions, each agent an
atom of the initial measure that keeps its weight. Each step pushes the
measure of the agents forward through the one-step flow map
x -> x + v[mu] dt, so the solver serves as the convergence oracle for the
grid scheme.
"""

from __future__ import annotations

import itertools

import numpy as np

from .grids import AtomicMeasure, csv_text
from .scheme import step_count
from .velocity import VelocityModel, eval_atomic_many


def to_measure(agents: AtomicMeasure, return_inverse: bool = False):
    """The agents' measure with coincident agents stacked.

    Stacked atoms keep the order and the position of their first agent, and
    each stacked weight is the sum of its agents' weights in input order; when
    no agents coincide the result is ``agents`` itself. With ``return_inverse``
    the result is ``(mu, atom)``: agent i sits on atom ``atom[i]`` of mu.
    """
    pos = agents.positions
    n = pos.shape[0]
    order = np.lexsort(pos.T[::-1])  # stable: equal rows keep input order
    starts = np.concatenate(([True], (pos[order[1:]] != pos[order[:-1]]).any(axis=1)))
    if starts.all():
        mu, atom = agents, np.arange(n)
    else:
        group = np.empty(n, dtype=np.int64)
        group[order] = np.cumsum(starts) - 1  # distinct rows numbered in sorted order
        # label every row by its group's first occurrence, then number those in input order
        first, atom = np.unique(order[starts][group], return_inverse=True)
        mu = AtomicMeasure(pos[first], np.bincount(atom, agents.weights))
    return (mu, atom) if return_inverse else mu


def push_forward_atoms(mu: AtomicMeasure, model: VelocityModel, dt: float) -> AtomicMeasure:
    """Push mu forward through the one-step flow map x + v[mu](x) dt; the
    result shares mu's weights (:meth:`AtomicMeasure.moved`)."""
    return mu.moved(mu.positions + dt * eval_atomic_many(model, mu, mu.positions))


def euler_step(agents: AtomicMeasure, model: VelocityModel, dt: float) -> AtomicMeasure:
    """Synchronous Euler update of every agent against the pre-step measure:
    :func:`push_forward_atoms` of the stacked measure, each agent taking its
    atom's new position, so the velocity is evaluated once per atom. Agents
    coincide only where two share a first coordinate, so with no tie among
    the sorted first coordinates the agents are the stacked measure, as
    :func:`to_measure` would return them. The next state shares the agents'
    weights.
    """
    first = np.sort(agents.positions[:, 0])
    if not (first[1:] == first[:-1]).any():  # 0.0 and -0.0 tie, as they stack
        return push_forward_atoms(agents, model, dt)
    mu, atom = to_measure(agents, return_inverse=True)
    pushed = push_forward_atoms(mu, model, dt)
    return agents.moved(pushed.positions.take(atom, axis=0))


def run_particles(mu0: AtomicMeasure, model: VelocityModel, T: float, dt: float) -> tuple:
    """The agents' measures at t_n = n*dt over step_count(T, dt) Euler steps
    from the initial measure mu0, mu0 first."""
    agents = [mu0]
    for _ in range(step_count(T, dt)):
        agents.append(euler_step(agents[-1], model, dt))
    return tuple(agents)


def write_trajectory_csv(states, dt: float, path) -> None:
    """CSV with one row ``t, particle, x_0, ...`` per (t, particle), sorted by
    time then particle; state n is at t_n, the running sum of n steps dt from
    0.0, and each state's rows are written at once."""
    n, d = states[0].positions.shape
    header = ["t", "particle"] + [f"x_{l}" for l in range(d)]
    particles = [str(l) for l in range(n)]
    t = 0.0
    with open(path, "w", newline="") as fh:
        fh.write(csv_text([header]))
        for s in states:
            columns = [map(repr, c) for c in s.positions.T.tolist()]
            fh.write(csv_text(zip(itertools.repeat(repr(t)), particles, *columns)))
            t += float(dt)
