"""Exact characteristics solver for atomic initial data.

Explicit Euler on the coupled ODE system of agent positions, each agent an
atom of the initial measure that keeps its weight. Each step pushes the
measure of the agents, coincident agents stacked, forward through the
one-step flow map x -> x + v[mu] dt, so the solver serves as the
convergence oracle for the grid scheme. Once some agents have met, a state
is the pushed atoms and the map of the agents onto them (:class:`Agents`),
and agents that have met move as one atom from then on.
"""

from __future__ import annotations

import itertools

import numpy as np

from .grids import AtomicMeasure, csv_text
from .scheme import step_count
from .velocity import VelocityModel, eval_atomic_many


class Agents:
    """Agents on atoms: agent i, of weight ``weights[i]``, sits on atom
    ``atom[i]``, at ``atom_positions[atom[i]]``. The atoms are ordered by
    their first agent, and may coincide where agents have just met:
    :func:`to_measure` stacks them. An oracle state is an Agents, or, before
    any agents have met, an AtomicMeasure whose atoms are the agents."""

    __slots__ = ("atom_positions", "atom", "weights")

    def __init__(self, atom_positions: np.ndarray, atom: np.ndarray, weights: np.ndarray):
        self.atom_positions, self.atom, self.weights = atom_positions, atom, weights

    @property
    def measure(self) -> AtomicMeasure:
        """The atoms, each weighing the sum of its agents' weights in agent
        order. Built on each call, so a kept state holds no weights but the
        agents', which every state shares."""
        return AtomicMeasure(self.atom_positions, np.bincount(self.atom, self.weights))

    @property
    def positions(self) -> np.ndarray:
        """Each agent's position, its atom's."""
        return self.atom_positions.take(self.atom, axis=0)


def _parts(agents) -> tuple:
    """``(atom positions, atom, agent weights)`` of a state, ``atom`` None
    where the state is an AtomicMeasure, each atom its own agent."""
    if isinstance(agents, Agents):
        return agents.atom_positions, agents.atom, agents.weights
    return agents.positions, None, agents.weights


def to_measure(agents, return_inverse: bool = False):
    """The agents' measure with coincident agents stacked, of an
    :class:`Agents` or of an AtomicMeasure whose atoms are the agents.

    Stacked atoms keep the order and the position of their first agent, and
    each stacked weight is the sum of its agents' weights in agent order;
    when no atoms coincide the result is the agents' measure itself
    (:attr:`Agents.measure`). With ``return_inverse`` the result is
    ``(mu, atom)``: agent i sits on atom ``atom[i]`` of mu.
    """
    pos, atom, weights = _parts(agents)
    m = pos.shape[0]
    order = np.lexsort(pos.T[::-1])  # stable: equal rows keep atom order
    starts = np.concatenate(([True], (pos[order[1:]] != pos[order[:-1]]).any(axis=1)))
    if starts.all():
        mu = agents if atom is None else agents.measure
        if atom is None:
            atom = np.arange(m)
    else:
        group = np.empty(m, dtype=np.int64)
        group[order] = np.cumsum(starts) - 1  # distinct rows numbered in sorted order
        # label every atom by its group's first, then number those in atom
        # order: the atoms are ordered by their first agent, so the groups are
        first, merged = np.unique(order[starts][group], return_inverse=True)
        atom = merged if atom is None else merged.take(atom)
        mu = AtomicMeasure(pos[first], np.bincount(atom, weights))
    return (mu, atom) if return_inverse else mu


def push_forward_atoms(mu: AtomicMeasure, model: VelocityModel, dt: float) -> AtomicMeasure:
    """Push mu forward through the one-step flow map x + v[mu](x) dt; the
    result shares mu's weights (:meth:`AtomicMeasure.moved`)."""
    return mu.moved(mu.positions + dt * eval_atomic_many(model, mu, mu.positions))


def euler_step(agents, model: VelocityModel, dt: float):
    """Synchronous Euler update of every agent against the pre-step measure:
    :func:`push_forward_atoms` of the stacked measure, each agent staying on
    its atom, so the velocity is evaluated once per atom. ``agents`` is an
    :class:`Agents` or an AtomicMeasure whose atoms are the agents, and so is
    the next state, an Agents once some agents have met. Atoms coincide only
    where two share a first coordinate, so with no tie among their sorted
    first coordinates the measure is already stacked, as :func:`to_measure`
    would return it, and the agents keep their atoms.
    """
    pos, atom, weights = _parts(agents)
    first = np.sort(pos[:, 0])
    if (first[1:] == first[:-1]).any():  # 0.0 and -0.0 tie, as they stack
        mu, merged = to_measure(agents, return_inverse=True)
        if mu.n_atoms < pos.shape[0]:  # atoms met: the agents move onto the stacked atoms
            # kept in the smallest unsigned type that numbers the atoms
            atom = merged.astype(np.min_scalar_type(mu.n_atoms - 1))
    else:
        mu = agents if atom is None else agents.measure
    pushed = push_forward_atoms(mu, model, dt)
    return pushed if atom is None else Agents(pushed.positions, atom, weights)


def run_particles(mu0: AtomicMeasure, model: VelocityModel, T: float, dt: float) -> tuple:
    """The states at t_n = n*dt over step_count(T, dt) Euler steps from the
    initial measure mu0, whose atoms are the agents, mu0 first: each an
    AtomicMeasure until some agents meet, an :class:`Agents` from then on."""
    states = [mu0]
    for _ in range(step_count(T, dt)):
        states.append(euler_step(states[-1], model, dt))
    return tuple(states)


def write_trajectory_csv(states, dt: float, path) -> None:
    """CSV with one row ``t, particle, x_0, ...`` per (t, particle), sorted by
    time then particle; state n (an :class:`Agents` or an AtomicMeasure whose
    atoms are the agents) is at t_n, the running sum of n steps dt from 0.0.
    Each atom's coordinates are formatted once, and each state's rows are
    written at once."""
    n, d = states[0].positions.shape
    header = ["t", "particle"] + [f"x_{l}" for l in range(d)]
    particles = [str(l) for l in range(n)]
    t = 0.0
    with open(path, "w", newline="") as fh:
        fh.write(csv_text([header]))
        for s in states:
            pos, atom, _ = _parts(s)
            columns = [map(repr, c) for c in pos.T.tolist()]
            if atom is not None:  # one field per agent: its atom's coordinates
                atoms = list(map(",".join, zip(*columns)))
                columns = [map(atoms.__getitem__, atom.tolist())]
            fh.write(csv_text(zip(itertools.repeat(repr(t)), particles, *columns)))
            t += float(dt)
