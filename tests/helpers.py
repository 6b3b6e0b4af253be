"""Test-side fields and measure helpers.

``CustomKernel`` and ``CustomDesired`` wrap a plain vectorised function as a
kernel F or a desired velocity v_d, with the bounds a ``VelocityModel`` reads
from them: the model takes any such object. The tests use them for fields no
config builds, such as position-dependent desired velocities; a kernel that
is not odd may run only through the dense pair sum.

``density`` and ``translated`` read a grid measure as a dict and shift an
atomic measure. ``fft_seen_counts`` is the lattice path's FFT count of the
cells each cell sees, the reference of its integer count, and
``lattice_calls`` records whether each call of the lattice path ran.
``write_trajectory_csv_agents`` is the oracle's CSV formatted agent by agent,
the reference of the writer that formats each atom once. ``load_bench``
imports a module of ``bench/`` by path.
"""

import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from crowdflow import AtomicMeasure, GridMeasure, VelocityModel, velocity
from crowdflow.grids import csv_text

BENCH = Path(__file__).resolve().parents[1] / "bench"


@dataclass(frozen=True)
class CustomKernel:
    """F(z) = func(z), with its bound and Lipschitz constant on the
    interaction ball; func maps (..., d) offsets to (..., d) values."""

    func: Callable[[np.ndarray], np.ndarray]
    fmax: float
    lip: float

    def __call__(self, z):
        return np.asarray(self.func(np.asarray(z, dtype=float)), dtype=float)


@dataclass(frozen=True)
class CustomDesired:
    """v_d(x) = func(x), with its sup bound and Lipschitz constant; func maps
    (..., d) points to (..., d) velocities."""

    func: Callable[[np.ndarray], np.ndarray]
    vmax: float
    lip: float

    def __call__(self, X):
        return np.asarray(self.func(np.asarray(X, dtype=float)), dtype=float)


def density(lam: GridMeasure) -> dict:
    """{cell index tuple: rho} over the occupied cells of lam."""
    return {tuple(int(v) for v in i): float(r) for i, r in zip(lam.indices, lam.rho)}


def translated(mu: AtomicMeasure, shift) -> AtomicMeasure:
    """mu with every atom moved by shift."""
    return AtomicMeasure(mu.positions + np.asarray(shift, dtype=float), mu.weights)


def fft_seen_counts(model: VelocityModel, lam: GridMeasure) -> np.ndarray:
    """(m, d): for each occupied cell and stencil component, the occupied
    cells the cell sees through the component's nonzero stencil entries, as
    one FFT correlation of the occupancy with the stencil's nonzero mask,
    rounded to the nearest integer: the count the lattice path took before
    ``velocity._seen_counts`` counted in integers."""
    h, d = lam.spec.cell_width, lam.spec.dim
    r = math.ceil(model.neighborhood.radius / h)
    lo = lam.indices.min(axis=0)
    full = lam.indices.max(axis=0) - lo + 1 + 2 * r
    shape = tuple(velocity.next_fast_len(int(n)) for n in full)
    axes = tuple(range(d))
    dense = np.zeros(shape)
    dense[tuple((lam.indices - lo).T)] = 1.0
    f = np.fft.rfftn((velocity._lattice_stencil(model, h) != 0).astype(float), shape, axes)
    f *= np.fft.rfftn(dense)[..., None]
    return np.rint(np.fft.irfftn(f, shape, axes)[tuple((lam.indices - lo + r).T)])


def lattice_calls(monkeypatch):
    """Patch velocity._lattice_interaction to record, per call, whether it
    ran."""
    ran = []
    lattice = velocity._lattice_interaction

    def recording(model, lam):
        got = lattice(model, lam)
        ran.append(got is not None)
        return got

    monkeypatch.setattr(velocity, "_lattice_interaction", recording)
    return ran


def write_trajectory_csv_agents(states, dt: float, path) -> None:
    """``particles.csv`` of the agents' measures ``states``, every agent's
    coordinates formatted: the writer ``write_trajectory_csv`` replaced when
    the oracle's states became its stacked measures, kept as its reference."""
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


def load_bench(filename: str):
    """The module ``bench/<filename>``, loaded anew as ``bench_<stem>``."""
    name = "bench_" + Path(filename).stem
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
