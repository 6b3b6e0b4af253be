"""Exact Wasserstein-1 distances between finitely supported measures.

In 1D, W1 is the cumulative-distribution sweep :func:`w1_1d`. In any
dimension, :func:`w1_exact` solves the transportation LP with Euclidean costs
by column generation: HiGHS solves the LP restricted to a sparse set of
candidate atom pairs, the reduced cost of every pair is priced against its
duals, and the pairs that price negative join the set for another solve until
none does. Atoms lighter than the LP's 1e-10 tolerance, which HiGHS cannot
resolve, first move onto their nearest heavier atom on the same side; the
cost of those moves widens the certified interval. Each restricted LP goes to
HiGHS through scipy's own binding, ``scipy.optimize._highspy._core``, the one
part of scipy this module uses: the compiled core is loaded alone, without
the rest of ``scipy.optimize``. HiGHS runs once per restricted LP, on its
default dual simplex method, with presolve off and primal and dual
feasibility tolerances of 1e-10: without presolve the outputs of the 2D runs
measured stayed byte-identical and their LP time fell by about a quarter.
The cost blocks are built one coordinate at a time, with ``sq_norm``'s bits.
The :class:`W1Result` carries a certified interval around the exact optimum:
a lower bound from the duals made exactly feasible by a c-transform, and an
upper bound from the plan rounded onto the exact marginals, each widened by
the cost of the light atoms' moves. The dense LP is the same restricted solve
over all m * n pairs, which the tests use as the reference.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .grids import (PAIR_BLOCK, AtomicMeasure, GridMeasure, NumericalInvariantError, atomize,
                    merge_duplicates, sq_norm)


def _highs_core():
    """scipy's HiGHS binding, ``scipy.optimize._highspy._core``, loaded on its
    own: importing it by name first runs ``scipy/optimize/__init__.py``, which
    imports some 300 scipy modules (scipy.sparse, scipy.linalg, ...). It is
    registered under its real name, so an ``import scipy.optimize`` before or
    after shares this module and the extension is loaded once; after, scipy
    reaches it through ``sys.modules``, and ``scipy.optimize._highspy`` has no
    ``_core`` attribute."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("crowdflow needs scipy >= 1.15 for HiGHS; scipy is not installed")
    where = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"crowdflow needs scipy >= 1.15 for HiGHS: no compiled "
                          f"core {name} in {where}")
    core = sys.modules[name] = module_from_spec(spec)
    spec.loader.exec_module(core)
    return core


_core = _highs_core()
HighsModelStatus, MatrixFormat, ObjSense, _Highs = (
    _core.HighsModelStatus, _core.MatrixFormat, _core.ObjSense, _core._Highs)

# cap on the atom pairs priced per solve (m * n); pricing memory stays bounded
# by PAIR_BLOCK whatever the cap
DEFAULT_MAX_PAIRS = 2 ** 24
# HiGHS primal and dual feasibility tolerance; a pair joins the candidate set
# when its reduced cost is below -_LP_TOL, the slack HiGHS allows the pairs it
# already holds, and an atom lighter than it, which HiGHS cannot resolve,
# moves onto a heavier one before the LP
_LP_TOL = 1e-10
# no output, presolve off and both feasibility tolerances at _LP_TOL; the
# simplex strategy stays HiGHS's default, the dual simplex. Turning presolve
# off left the outputs of sector_2d seeds 1-60 byte-identical, and their 265
# LPs took 3.1 s in place of 4.1-4.3 s (one CPU of a 2-CPU VM, scipy 1.17.1)
_HIGHS_OPTIONS = (("output_flag", False), ("presolve", "off"),
                  ("primal_feasibility_tolerance", _LP_TOL),
                  ("dual_feasibility_tolerance", _LP_TOL))
# nearest atoms on the other side that seed each atom's candidate pairs
_NEAREST = 4


class AtomCapError(ValueError):
    """The transport LP was asked to price more atom pairs than its cap."""


@dataclass(frozen=True)
class W1Result:
    """A computed W1 distance between two atomic measures, with
    ``lower <= W1 <= upper`` certified for its exact value up to the rounding
    of the two sums that give the bounds, so ``upper - lower`` can read a few
    ulps below 0 (all three are equal in 1D). In 2D and up, ``distance`` is
    the LP optimum once the atoms lighter
    than the LP's tolerance have moved onto heavier ones, and the interval
    widens the LP's bounds by the cost of those moves on each side.
    ``atomization_bound`` is 0 between atomic measures; when one side is a grid
    measure atomized at its cell centers, it is sqrt(d) * h / 2, and the true
    distance lies in [max(0, lower - atomization_bound), upper + atomization_bound].
    ``lp_solves`` counts the restricted LPs solved for it (0 from the 1D sweep).
    """

    distance: float
    lower: float
    upper: float
    atomization_bound: float = 0.0
    lp_solves: int = 0


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


def w1_exact(mu: AtomicMeasure, nu: AtomicMeasure) -> W1Result:
    """Kantorovich W1 via the transportation LP on the bipartite atom graph,
    solved by column generation and returned with its certified interval.

    Result is independent of atom input order (atoms are canonicalized first).
    Each atom lighter than _LP_TOL moves onto its nearest heavier atom on its
    side, and the LP runs on what remains; by the triangle inequality, the
    cost eps of the moves gives the original pair's W1 in
    [lower - eps, upper + eps] from the reduced pair's bounds.
    The heaviest atom of ``nu`` (the last of equal ones) takes the mass the
    others leave, so no weight turns negative, and the bounds hold for those
    marginals; the LP leaves out the last column constraint as redundant.
    Raises :class:`AtomCapError` when the m * n atom pairs exceed
    DEFAULT_MAX_PAIRS; ``converge`` then exits 2, naming the level, the
    sample time and both atom counts.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.n_atoms * nu.n_atoms > DEFAULT_MAX_PAIRS:
        raise AtomCapError(
            f"atom counts ({mu.n_atoms}, {nu.n_atoms}) give "
            f"{mu.n_atoms * nu.n_atoms} pairs, over the cap {DEFAULT_MAX_PAIRS}")
    xs, a, eps_a = _move_light(*merge_duplicates(mu.positions, mu.weights))
    ys, b, eps_b = _move_light(*merge_duplicates(nu.positions, nu.weights))
    # the marginals the LP enforces, with equal totals, as the bounds need
    j = len(b) - 1 - np.argmax(b[::-1])
    b[j] = a.sum() - np.delete(b, j).sum()
    n = len(b)

    rows, cols = _nearest(xs, ys)
    near_cols, near_rows = _nearest(ys, xs)
    pairs = _unique(np.concatenate([rows * n + cols, near_rows * n + near_cols,
                                    _north_west_pairs(a, b)]))
    # each round adds at least one of the m * n pairs, so the loop ends
    solves = 0
    while True:
        value, plan, cost, f, g = _restricted_lp(xs, a, ys, b, pairs)
        solves += 1
        negative, g_c = _price(xs, ys, f, g)
        new = np.setdiff1d(negative, pairs, assume_unique=True)
        if new.size == 0:
            break
        pairs = np.sort(np.concatenate([pairs, new]))
    # (f, g_c) is feasible for every pair, so its dual objective bounds W1
    # below; the moves of the light atoms widen both bounds by their cost
    eps = eps_a + eps_b
    lower = float(a @ f + b @ g_c) - eps
    upper = _rounded_cost(xs, a, ys, b, pairs, cost, plan) + eps
    return W1Result(value, lower, upper, lp_solves=solves)


def _move_light(xs: np.ndarray, w: np.ndarray):
    """The atoms (xs, w) with each atom lighter than _LP_TOL moved onto its
    nearest atom of weight at least _LP_TOL: their positions and weights, and
    the W1 cost of the moves, the sum of weight * distance moved."""
    light = w < _LP_TOL
    heavy_xs, heavy_w = xs[~light], w[~light]
    light_w = w[light]
    onto, dist = np.empty(len(light_w), dtype=np.intp), np.empty(len(light_w))
    for i, C in _cost_blocks(xs[light], heavy_xs):
        onto[i:i + len(C)], dist[i:i + len(C)] = C.argmin(axis=1), C.min(axis=1)
    return (heavy_xs, heavy_w + np.bincount(onto, light_w, minlength=len(heavy_w)),
            float(light_w @ dist))


def _unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct keys: np.unique's, without its import of numpy.ma."""
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


def _cost_blocks(xs: np.ndarray, ys: np.ndarray):
    """Yield (first row, Euclidean cost block) over row blocks of the m x n
    cost between xs and ys, at most PAIR_BLOCK entries each (or one row)."""
    step = max(1, PAIR_BLOCK // len(ys))
    # coordinate-major: each block sums the squared offsets of one coordinate
    # at a time from the first, as sq_norm does, so the bits are sq_norm's
    xt, yt = np.ascontiguousarray(xs.T), np.ascontiguousarray(ys.T)
    for i in range(0, len(xs), step):
        C = np.subtract.outer(xt[0, i:i + step], yt[0])
        C *= C
        for x, y in zip(xt[1:, i:i + step], yt[1:]):
            D = np.subtract.outer(x, y)
            D *= D
            C += D
        yield i, np.sqrt(C, out=C)


def _nearest(xs: np.ndarray, ys: np.ndarray):
    """Row and column indices of the pairs (i, j) where ys[j] is one of the
    _NEAREST nearest ys of xs[i]."""
    k = min(_NEAREST, len(ys))
    rows, cols = [], []
    for i, C in _cost_blocks(xs, ys):
        near = np.argpartition(C, k - 1, axis=1)[:, :k]
        rows.append(np.repeat(np.arange(i, i + len(C)), k))
        cols.append(near.ravel())
    return np.concatenate(rows), np.concatenate(cols)


def _north_west_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat keys i * n + j, some repeated, of the north-west-corner plan's
    support: pair (i, j) carries the overlap of row i's and column j's
    intervals of cumulative mass."""
    ca, cb = np.cumsum(a), np.cumsum(b)
    starts = np.concatenate([[0.0], ca[:-1], cb[:-1]])
    i = np.minimum(np.searchsorted(ca, starts, side="right"), len(a) - 1)
    j = np.minimum(np.searchsorted(cb, starts, side="right"), len(b) - 1)
    return i * len(b) + j


def _restricted_lp(xs, a, ys, b, pairs):
    """Transport LP over the pairs with flat keys ``pairs``: optimal
    value, plan and cost on those pairs, and the duals (f, g), with g = 0 on
    the last column, whose constraint is left out as redundant.

    HiGHS runs once, with presolve off; any status but optimal raises."""
    m, n = len(a), len(b)
    i, j = np.divmod(pairs, n)
    cost = np.sqrt(sq_norm(xs[i] - ys[j]))
    # column p holds a 1 in rows i[p] and m + j[p], unless that is the last
    # column's row, left out
    rows = np.stack([i, m + j], axis=1).astype(np.int32)
    kept = rows < m + n - 1
    start = np.concatenate([[0], np.cumsum(kept.sum(axis=1))]).astype(np.int32)
    rhs = np.concatenate([a, b[:-1]])
    highs = _Highs()
    for name, value in _HIGHS_OPTIONS:
        highs.setOptionValue(name, value)
    highs.passModel(len(pairs), m + n - 1, start[-1], MatrixFormat.kColwise,
                    ObjSense.kMinimize, 0.0, cost, np.zeros(len(pairs)),
                    np.full(len(pairs), np.inf), rhs, rhs, start, rows[kept],
                    np.ones(start[-1]), np.zeros(len(pairs), dtype=np.int32))
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise NumericalInvariantError(
            f"transport LP failed: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    duals = np.array(solution.row_dual)
    return (highs.getInfo().objective_function_value, np.array(solution.col_value), cost,
            duals[:m], np.append(duals[m:], 0.0))


def _price(xs, ys, f, g):
    """Flat keys (sorted) of the pairs whose reduced cost c_ij - f_i - g_j is
    below -_LP_TOL, and the c-transform g_c[j] = min_i (c_ij - f_i)."""
    n = len(ys)
    negative, g_c = [], np.full(n, np.inf)
    for i, C in _cost_blocks(xs, ys):
        C -= f[i:i + len(C), None]
        np.minimum(g_c, C.min(axis=0), out=g_c)
        C -= g
        r, c = np.nonzero(C < -_LP_TOL)
        negative.append((i + r) * n + c)
    return np.concatenate(negative), g_c


def _rounded_cost(xs, a, ys, b, pairs, cost, plan) -> float:
    """Cost of the sparse plan after rounding it onto the marginals (a, b)
    (Altschuler, Weed & Rigollet 2017, Alg. 2): scale down the rows, then the
    columns, that carry too much mass, and add the rank-1 plan
    err_a err_b^T / |err_a|_1 of the mass still missing, without forming it."""
    m, n = len(a), len(b)
    i, j = np.divmod(pairs, n)
    plan = np.maximum(plan, 0.0)
    over = np.bincount(i, plan, minlength=m)
    plan = plan * np.divide(a, over, out=np.ones(m), where=over > a)[i]
    over = np.bincount(j, plan, minlength=n)
    plan = plan * np.divide(b, over, out=np.ones(n), where=over > b)[j]
    err_a = np.maximum(a - np.bincount(i, plan, minlength=m), 0.0)
    err_b = np.maximum(b - np.bincount(j, plan, minlength=n), 0.0)
    upper = float(cost @ plan)
    ia, jb = np.flatnonzero(err_a), np.flatnonzero(err_b)
    if ia.size and jb.size:
        ea, eb = err_a[ia], err_b[jb]
        upper += sum(float(ea[r:r + len(C)] @ C @ eb)
                     for r, C in _cost_blocks(xs[ia], ys[jb])) / ea.sum()
    return float(upper)


def w1_grid_atomic(lam: GridMeasure, mu: AtomicMeasure) -> W1Result:
    """Distance between a grid measure (atomized at cell centers) and mu:
    the exact CDF sweep in 1D, the certified transport LP (capped at
    DEFAULT_MAX_PAIRS atom pairs) otherwise."""
    d = lam.spec.dim
    bound = math.sqrt(d) * lam.spec.cell_width / 2.0
    if d == 1:
        dist = w1_1d(atomize(lam), mu)
        return W1Result(dist, dist, dist, bound)
    return replace(w1_exact(atomize(lam), mu), atomization_bound=bound)
