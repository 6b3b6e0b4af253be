"""Test-side fields and measure helpers.

``CustomKernel`` and ``CustomDesired`` wrap a plain vectorised function as a
kernel F or a desired velocity v_d, with the bounds a ``VelocityModel`` reads
from them: the model takes any such object. The tests use them for fields no
config builds, such as position-dependent desired velocities; a kernel that
is not odd may run only through the dense pair sum.

``density`` and ``translated`` read a grid measure as a dict and shift an
atomic measure. ``load_bench`` imports a module of ``bench/`` by path.
"""

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from crowdflow import AtomicMeasure, GridMeasure

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


def load_bench(filename: str):
    """The module ``bench/<filename>``, loaded anew as ``bench_<stem>``."""
    name = "bench_" + Path(filename).stem
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
