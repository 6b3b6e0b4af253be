"""Exact Wasserstein-1 distances between finitely supported measures.

Two independent exact routes are provided: a 1D cumulative-distribution sweep
and a general transportation LP with Euclidean costs. They must agree on 1D
instances, which the test suite exercises as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .grids import AtomicMeasure, GridMeasure, atomize, merge_duplicates

DEFAULT_MAX_ATOMS = 4096


class AtomCapError(ValueError):
    """The transport LP was asked for more atoms per side than its cap."""


@dataclass(frozen=True)
class W1Result:
    """Distance between an atomized grid measure and an atomic measure.

    The true grid-vs-atomic distance lies in
    [max(0, distance - atomization_bound), distance + atomization_bound].
    """

    distance: float
    atomization_bound: float


def w1_1d(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Exact W1 on the line: integral of |F_mu - F_nu| between atom positions."""
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("w1_1d requires one-dimensional measures")
    x = np.concatenate([mu.positions[:, 0], nu.positions[:, 0]])
    w = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(x, kind="stable")
    x, w = x[order], w[order]
    cdf_gap = np.abs(np.cumsum(w)[:-1])
    return float(np.dot(cdf_gap, np.diff(x)))


def w1_exact(mu: AtomicMeasure, nu: AtomicMeasure,
             max_atoms: int = DEFAULT_MAX_ATOMS) -> float:
    """Kantorovich W1 via the transportation LP on the bipartite atom graph.

    Result is independent of atom input order (atoms are canonicalized first).
    Raises :class:`AtomCapError` when either side exceeds ``max_atoms``;
    callers may then subsample or fall back to :func:`w1_1d`.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.n_atoms > max_atoms or nu.n_atoms > max_atoms:
        raise AtomCapError(
            f"atom counts ({mu.n_atoms}, {nu.n_atoms}) exceed max_atoms={max_atoms}")
    xs, a = merge_duplicates(mu.positions, mu.weights)
    ys, b = merge_duplicates(nu.positions, nu.weights)
    m, n = xs.shape[0], ys.shape[0]
    cost = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
    if m == 1 or n == 1:
        # plan is forced
        return float(a @ cost @ b)

    # equality constraints: row sums = a, column sums = b (last one redundant)
    row_idx = np.repeat(np.arange(m), n)
    col_idx = m + np.tile(np.arange(n), m)
    var_idx = np.arange(m * n)
    A = sparse.csr_matrix(
        (np.ones(2 * m * n), (np.concatenate([row_idx, col_idx]),
                              np.concatenate([var_idx, var_idx]))),
        shape=(m + n, m * n))
    rhs = np.concatenate([a, b])
    res = linprog(cost.ravel(), A_eq=A[:-1], b_eq=rhs[:-1],
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def w1_grid_atomic(lam: GridMeasure, mu: AtomicMeasure,
                   max_atoms: int = DEFAULT_MAX_ATOMS) -> W1Result:
    """Distance between a grid measure (atomized at cell centers) and mu:
    the exact CDF sweep in 1D, the transport LP (capped at ``max_atoms`` per
    side) otherwise."""
    d = lam.spec.dim
    bound = math.sqrt(d) * lam.spec.cell_width / 2.0
    if d == 1:
        return W1Result(w1_1d(atomize(lam), mu), bound)
    return W1Result(w1_exact(atomize(lam), mu, max_atoms=max_atoms), bound)
