import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from crowdflow import (AtomicMeasure, GridMeasure, GridSpec, NumericalInvariantError, W1Result,
                       atomize, project_atomic, w1_1d, w1_exact, w1_grid_atomic, wasserstein)
from crowdflow.grids import (PAIR_BLOCK, MassError, check_mass, merge_duplicates, sq_norm,
                            total_mass)
from crowdflow.cli import main
from helpers import load_bench, translated


def _random_1d_pair(rng, n_max=12):
    def one():
        n = rng.integers(1, n_max + 1)
        w = rng.random(n) + 0.1
        return AtomicMeasure(rng.uniform(-2, 2, size=(n, 1)), w / w.sum())
    return one(), one()


class TestW1OneD:
    def test_identical_measures(self):
        mu = AtomicMeasure([[0.0], [1.0]], [0.3, 0.7])
        assert w1_1d(mu, mu) == 0.0

    def test_split_dirac(self):
        # delta_0 against (delta_-1 + delta_1)/2: each half travels distance 1
        mu = AtomicMeasure([[0.0]])
        nu = AtomicMeasure([[-1.0], [1.0]], [0.5, 0.5])
        assert w1_1d(mu, nu) == pytest.approx(1.0, abs=1e-15)

    def test_translation_distance(self):
        rng = np.random.default_rng(5)
        mu, _ = _random_1d_pair(rng)
        shifted = translated(mu, np.array([0.37]))
        assert w1_1d(mu, shifted) == pytest.approx(0.37, abs=1e-12)

    def test_requires_dim_one(self):
        mu = AtomicMeasure([[0.0, 0.0]])
        with pytest.raises(ValueError):
            w1_1d(mu, mu)


class TestW1Exact:
    def test_matches_1d_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu, nu = _random_1d_pair(rng)
            assert w1_exact(mu, nu).distance == pytest.approx(w1_1d(mu, nu), abs=1e-10)

    def test_2x2_grid_matching(self):
        # unit-square corners, mass swapped along one edge: optimal cost 1
        mu = AtomicMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        nu = AtomicMeasure([[0.0, 1.0], [1.0, 1.0]], [0.5, 0.5])
        assert w1_exact(mu, nu).distance == pytest.approx(1.0, abs=1e-12)

    def test_forced_plan_single_target(self):
        mu = AtomicMeasure([[-1.0], [1.0]], [0.5, 0.5])
        nu = AtomicMeasure([[0.0]])
        assert w1_exact(mu, nu).distance == pytest.approx(1.0, abs=1e-15)

    def test_atom_order_invariance(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(size=(8, 2))
        w = np.full(8, 0.125)
        nu = AtomicMeasure(rng.normal(size=(5, 2)), np.full(5, 0.2))
        perm = rng.permutation(8)
        a = w1_exact(AtomicMeasure(pos, w), nu).distance
        b = w1_exact(AtomicMeasure(pos[perm], w[perm]), nu).distance
        assert a == pytest.approx(b, abs=1e-12)

    def test_duplicate_atoms_merged(self):
        mu = AtomicMeasure([[0.0], [0.0], [2.0]], [0.25, 0.25, 0.5])
        nu = AtomicMeasure([[1.0]])
        assert w1_exact(mu, nu).distance == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            w1_exact(AtomicMeasure([[0.0]]), AtomicMeasure([[0.0, 0.0]]))

    def test_max_atoms_guard(self, monkeypatch):
        mu = AtomicMeasure(np.arange(10, dtype=float)[:, None], np.full(10, 0.1))
        monkeypatch.setattr(wasserstein, "DEFAULT_MAX_PAIRS", 99)
        with pytest.raises(ValueError):
            w1_exact(mu, mu)
        monkeypatch.setattr(wasserstein, "DEFAULT_MAX_PAIRS", 100)
        assert w1_exact(mu, mu).distance <= 1e-12

    def test_result_fields_are_python_floats(self):
        # the plan misses its marginals here, so the upper bound takes the
        # rank-1 correction, a numpy scalar unless converted; numpy 2 prints
        # those as np.float64(...), which would change the outputs' bytes
        rng = np.random.default_rng(8)
        mu = AtomicMeasure(rng.random((40, 2)), np.full(40, 1 / 40))
        nu = AtomicMeasure(rng.random((30, 2)) * [1.0, 0.3], np.full(30, 1 / 30))
        res = w1_exact(mu, nu)
        assert [type(getattr(res, f.name)) for f in fields(res)] == [float] * 4 + [int]
        assert res.atomization_bound == 0.0
        assert res.lp_solves >= 1


def dense_w1(mu, nu) -> W1Result:
    """The full transport LP on every atom: the column-generation helper over
    all m * n pairs, with the totals balanced as w1_exact balances them,
    certified on those marginals: the c-transform of its duals below, its plan
    rounded onto those marginals above."""
    xs, a = merge_duplicates(mu.positions, mu.weights)
    ys, b = merge_duplicates(nu.positions, nu.weights)
    j = len(b) - 1 - np.argmax(b[::-1])
    b[j] = a.sum() - np.delete(b, j).sum()
    pairs = np.arange(len(a) * len(b))
    value, plan, cost, f, g = wasserstein._restricted_lp(xs, a, ys, b, pairs)
    lower = float(a @ f + b @ wasserstein._price(xs, ys, f, g)[1])
    return W1Result(value, lower, wasserstein._rounded_cost(xs, a, ys, b, pairs, cost, plan))


def meet(res, dense) -> bool:
    """Whether two certified intervals meet, as two intervals that hold the
    same optimum must, up to the 1e-12 their sums may round by."""
    return res.lower <= dense.upper + 1e-12 and dense.lower <= res.upper + 1e-12


def assert_certified(res, dense):
    assert abs(res.distance - dense.distance) <= 1e-9
    assert meet(res, dense)
    assert res.lower <= res.distance + 1e-12 and res.distance <= res.upper + 1e-12


@st.composite
def measures(draw, dim, weight=st.integers(1, 9)):
    """A small measure whose atoms often coincide, within it or with another,
    with weights in proportion to draws of ``weight``."""
    coord = st.one_of(st.integers(-2, 2).map(float), st.floats(-2, 2))
    atoms = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=12))
    weights = np.array(draw(st.lists(weight, min_size=len(atoms),
                                     max_size=len(atoms))), dtype=float)
    return AtomicMeasure(atoms, weights / weights.sum())


class TestColumnGeneration:
    @given(st.data(), st.sampled_from([2, 3]), st.sampled_from([1, 4]))
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_lp(self, data, dim, nearest):
        mu, nu = data.draw(measures(dim)), data.draw(measures(dim))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wasserstein, "_NEAREST", nearest)
            res = w1_exact(mu, nu)
        assert_certified(res, dense_w1(mu, nu))

    @given(st.data(), st.sampled_from([2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_certificate_holds_when_pricing_stops_early(self, data, dim):
        # ending after the first restricted solve leaves duals that some pairs
        # violate: only the c-transform keeps the lower bound valid
        mu, nu = data.draw(measures(dim)), data.draw(measures(dim))
        dense = dense_w1(mu, nu)
        price = wasserstein._price
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wasserstein, "_NEAREST", 1)
            mp.setattr(wasserstein, "_price",
                       lambda *args: (np.empty(0, dtype=np.int64), price(*args)[1]))
            res = w1_exact(mu, nu)
        assert meet(res, dense)

    def test_dense_value_above_the_certified_interval(self, monkeypatch):
        # W1 = 1/3 exactly; HiGHS reports the dense optimum 1.5e-12 above the
        # upper bound w1_exact certifies, so only the intervals can be compared
        mu = AtomicMeasure([[0, 0]] * 9 + [[1e-10, 0], [1, -1]], np.full(11, 1 / 11))
        nu = AtomicMeasure([[0, 0]] * 4 + [[0, 1], [0, -1]], np.full(6, 1 / 6))
        monkeypatch.setattr(wasserstein, "_NEAREST", 1)
        res, dense = w1_exact(mu, nu), dense_w1(mu, nu)
        exact = W1Result(1 / 3, 1 / 3, 1 / 3)
        assert meet(res, exact) and meet(dense, exact)
        assert_certified(res, dense)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rounding_matches_dense_rounding(self, m, n, seed):
        # a plan off its marginals, rounded on its sparse support, against
        # Altschuler et al.'s Alg. 2 on the dense matrix
        rng = np.random.default_rng(seed)
        xs, ys = rng.normal(size=(m, 2)), rng.normal(size=(n, 2))
        a, b = rng.random(m) + 0.1, rng.random(n) + 0.1
        a, b = a / a.sum(), b / b.sum()
        pairs = np.flatnonzero(rng.random(m * n) < 0.6)
        i, j = np.divmod(pairs, n)
        cost = np.linalg.norm(xs[i] - ys[j], axis=1)
        plan = rng.random(len(pairs)) / len(pairs)
        upper = wasserstein._rounded_cost(xs, a, ys, b, pairs, cost, plan)

        P = np.zeros((m, n))
        P[i, j] = plan
        P *= np.minimum(1.0, a / np.maximum(P.sum(1), 1e-300))[:, None]
        P *= np.minimum(1.0, b / np.maximum(P.sum(0), 1e-300))[None, :]
        err_a, err_b = a - P.sum(1), b - P.sum(0)
        F = P + np.outer(err_a, err_b) / err_a.sum()
        np.testing.assert_allclose(F.sum(1), a, atol=1e-15)
        np.testing.assert_allclose(F.sum(0), b, atol=1e-15)
        C = np.linalg.norm(xs[:, None] - ys[None], axis=2)
        assert upper == pytest.approx(np.sum(C * F), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("m, n", [(1, 7), (7, 1), (1, 1)])
    def test_single_atom_side(self, m, n):
        rng = np.random.default_rng(m + 10 * n)
        mu = AtomicMeasure(rng.normal(size=(m, 2)), np.full(m, 1.0 / m))
        nu = AtomicMeasure(rng.normal(size=(n, 2)), np.full(n, 1.0 / n))
        res = w1_exact(mu, nu)
        assert_certified(res, dense_w1(mu, nu))
        assert res.upper - res.lower <= 1e-15

    def test_duplicate_and_coincident_atoms(self):
        # duplicates merge; the shared positions give zero-cost pairs
        mu = AtomicMeasure([[0, 0], [1, 0], [0, 0], [2, 1]], [0.25, 0.25, 0.25, 0.25])
        nu = AtomicMeasure([[0, 0], [2, 1], [2, 1], [0, 3]], [0.3, 0.2, 0.2, 0.3])
        res = w1_exact(mu, nu)
        assert_certified(res, dense_w1(mu, nu))
        # 0.3 stays at the origin and 0.25 at (2, 1); then (1, 0) sends 0.15 to
        # (2, 1) and 0.1 to (0, 3), and the origin sends 0.2 to (0, 3)
        assert res.distance == pytest.approx(
            0.15 * np.sqrt(2) + 0.1 * np.sqrt(10) + 0.2 * 3, abs=1e-9)
        assert w1_exact(nu, nu).distance <= 1e-12

    @pytest.mark.parametrize("light_last", [True, False])
    def test_light_oracle_atom_takes_no_rounding(self, light_last):
        # the totals differ by 6e-11, more than the light atom weighs: it
        # must not absorb the difference, or its weight turns negative and
        # the rounded plan's upper bound comes out NaN
        mu = AtomicMeasure([[0, 0], [1, 0]], [0.5, 0.5 - 5e-11])
        w = [1 - 1e-11, 1e-11] if light_last else [1e-11, 1 - 1e-11]
        nu = AtomicMeasure([[0, 0.2], [1, 1]], w)
        res = w1_exact(mu, nu)  # RuntimeWarnings are errors here
        assert np.isfinite(res.lower) and np.isfinite(res.upper)
        assert res.lower <= res.distance <= res.upper
        assert_certified(res, dense_w1(mu, nu))

    def test_pricing_adds_pairs_over_rounds(self, monkeypatch):
        rng = np.random.default_rng(8)
        mu = AtomicMeasure(rng.random((40, 2)), np.full(40, 1 / 40))
        nu = AtomicMeasure(rng.random((30, 2)) * [1.0, 0.3], np.full(30, 1 / 30))
        solves = []
        restricted = wasserstein._restricted_lp

        def counted(xs, a, ys, b, pairs):
            solves.append(len(pairs))
            return restricted(xs, a, ys, b, pairs)

        monkeypatch.setattr(wasserstein, "_restricted_lp", counted)
        monkeypatch.setattr(wasserstein, "_NEAREST", 1)
        res = w1_exact(mu, nu)
        assert len(solves) >= 2 and solves == sorted(solves) and solves[-1] < 40 * 30
        assert_certified(res, dense_w1(mu, nu))

    @given(st.data(), st.sampled_from([2, 3]))
    @settings(max_examples=50, deadline=None)
    def test_light_atoms_match_dense_lp(self, data, dim):
        # atoms lighter than the LP's tolerance move onto heavier ones before
        # the LP; the dense LP keeps them, and the intervals must still meet
        weight = st.integers(1, 9) | st.sampled_from([1e-19, 1e-12, 1e-11])
        mu, nu = (data.draw(measures(dim, weight)) for _ in range(2))
        assert_certified(w1_exact(mu, nu), dense_w1(mu, nu))

    def test_light_atom_widens_the_interval_by_its_move(self):
        # the atom of weight 1e-11 at (3, 4) moves onto the origin, distance 5:
        # the LP sees one atom of weight 1, and its interval widens by 5e-11
        heavy = 1 - 1e-11
        mu = AtomicMeasure([[0, 0], [3, 4]], [heavy, 1e-11])
        nu = AtomicMeasure([[1, 0], [0, 2], [-1, -1]], [0.5, 0.25, 0.25])
        res = w1_exact(mu, nu)
        moved = w1_exact(AtomicMeasure([[0, 0]], [heavy + 1e-11]), nu)
        assert res.distance == moved.distance
        assert res.lower == moved.lower - 1e-11 * 5
        assert res.upper == moved.upper + 1e-11 * 5
        assert_certified(res, dense_w1(mu, nu))

    @pytest.mark.parametrize("mu, nu", [
        # an assignment: the optimal plan is a matching, whose support splits
        # into five components, so the optimal duals are far from unique
        (AtomicMeasure([[5, 1], [3, 2], [0, 2], [4, 3], [0, 1]], np.full(5, 0.2)),
         AtomicMeasure([[0, 2], [3, 5], [0, 0], [0, 4], [1, 5]], np.full(5, 0.2))),
        # cell centres against cell corners: tied distances
        (AtomicMeasure(0.1 * np.array([[0, 2], [0, 1], [0, 2], [3, 2], [3, 0], [1, 1],
                                       [0, 0]]), np.full(7, 1 / 7)),
         AtomicMeasure(0.1 * np.array([[1, 1], [3, 3], [2, 1], [1, 0], [2, 1], [1, 2],
                                       [0, 0]]) + 0.05, np.full(7, 1 / 7))),
    ], ids=["assignment", "lattice"])
    def test_degenerate_optimum_is_certified(self, mu, nu):
        res = w1_exact(mu, nu)
        assert_certified(res, dense_w1(mu, nu))
        assert res.upper - res.lower <= 1e-9

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=40))
    def test_unique_keys_match_numpy(self, keys):
        keys = np.array(keys, dtype=np.int64)
        assert wasserstein._unique(keys).tobytes() == np.unique(keys).tobytes()

    def test_above_old_per_side_cap(self):
        # 5000 lattice atoms (more than the former 4096-atom cap per side)
        # against 50 atoms, as a grid measure against the particle oracle
        rng = np.random.default_rng(0)
        y = rng.random((50, 2)) * [1.0, 0.5]
        idx = np.arange(5000)
        x = np.stack([idx % 100, idx // 100], axis=1) * 0.01 + 0.005
        w = np.exp(-((x[:, None] - y[None]) ** 2).sum(-1) / (2 * 0.03 ** 2)).sum(1) + 1e-3
        res = w1_exact(AtomicMeasure(x, w / w.sum()), AtomicMeasure(y))
        assert res.upper - res.lower <= 1e-8
        assert res.lower <= res.distance + 1e-12 and res.distance <= res.upper + 1e-12


    def test_pinned_sector_2d_rows_take_one_solve(self, tmp_path):
        # the benchmark's 2D instance: 598-1924 grid cells against 100 agents
        w = load_bench("workloads.py").WORKLOADS["sector_2d"]
        w.write_config(w.pinned_seed, tmp_path / "cfg.json")
        assert main(["converge", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        solves = [v for row in summary["w1_lp_solves"].values() for v in row.values()]
        gaps = [v for row in summary["w1_gap"].values() for v in row.values()]
        assert solves == [1, 1, 1, 1]
        assert len(gaps) == 4 and max(gaps) <= 1e-9


def count_solves(monkeypatch):
    """Wrap the restricted LP; the list it returns gets each solve's
    arguments."""
    solves = []
    restricted = wasserstein._restricted_lp

    def counted(*args):
        solves.append(args)
        return restricted(*args)

    monkeypatch.setattr(wasserstein, "_restricted_lp", counted)
    return solves


def w1_at_budget(mu, nu, budget):
    """w1_exact with the cost scanned in blocks of at most ``budget`` pairs
    (or one row), and the number of blocks of each scan, in call order."""
    blocks = []
    cost_blocks = wasserstein._cost_blocks

    def counted(xs, ys):
        blocks.append(0)
        for block in cost_blocks(xs, ys):
            blocks[-1] += 1
            yield block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wasserstein, "PAIR_BLOCK", budget)
        mp.setattr(wasserstein, "_cost_blocks", counted)
        return w1_exact(mu, nu), blocks


def price_three_array_form(xs, ys, f, g):
    """_price with each block's C, D = C - f and D - g held at once: the
    reference for the bits of its in-place form."""
    n = len(ys)
    negative, g_c = [], np.full(n, np.inf)
    for i, C in wasserstein._cost_blocks(xs, ys):
        D = C - f[i:i + len(C), None]
        np.minimum(g_c, D.min(axis=0), out=g_c)
        r, c = np.nonzero(D - g < -wasserstein._LP_TOL)
        negative.append((i + r) * n + c)
    return np.concatenate(negative), g_c


class TestPairBlocks:
    """The W1 scans take the shared PAIR_BLOCK budget; a budget of 7 pairs
    splits every scan of more than a few atoms into blocks of a row or two."""

    @given(st.data(), st.sampled_from([2, 3]))
    @settings(max_examples=50, deadline=None)
    def test_budget_leaves_the_result(self, data, dim):
        weight = st.integers(1, 9) | st.sampled_from([1e-19, 1e-12, 1e-11])
        mu, nu = (data.draw(measures(dim, weight)) for _ in range(2))
        dense = dense_w1(mu, nu)
        res, _ = w1_at_budget(mu, nu, PAIR_BLOCK)
        small, _ = w1_at_budget(mu, nu, 7)
        assert ([small.distance.hex(), small.lower.hex(), small.lp_solves]
                == [res.distance.hex(), res.lower.hex(), res.lp_solves])
        for r in (res, small):
            assert_certified(r, dense)

    def test_rank_one_rounding_in_several_blocks(self):
        # 5 rows and 5 columns miss mass after the plan is scaled onto the
        # marginals, so the rank-1 plan's cost, the last scan, takes 5 blocks
        rng = np.random.default_rng(2)
        w = rng.integers(1, 10, 12).astype(float)
        mu = AtomicMeasure(rng.random((12, 2)), w / w.sum())
        w = rng.integers(1, 10, 11).astype(float)
        nu = AtomicMeasure(rng.random((11, 2)), w / w.sum())
        res, blocks = w1_at_budget(mu, nu, PAIR_BLOCK)
        small, small_blocks = w1_at_budget(mu, nu, 7)
        assert blocks[-1] == 1 and small_blocks[-1] == 5
        assert ([small.distance.hex(), small.lower.hex(), small.lp_solves]
                == [res.distance.hex(), res.lower.hex(), res.lp_solves])
        # the rank-1 cost sums per block, so the upper bounds may round apart
        assert small.upper == pytest.approx(res.upper, rel=1e-15, abs=1e-16)
        dense = dense_w1(mu, nu)
        for r in (res, small):
            assert_certified(r, dense)

    @given(st.data(), st.sampled_from([2, 3]), st.sampled_from([7, PAIR_BLOCK]))
    @settings(max_examples=50, deadline=None)
    def test_price_matches_three_array_form(self, data, dim, budget):
        # g puts some reduced costs on either side of -_LP_TOL and some on it
        xs, ys = data.draw(measures(dim)).positions, data.draw(measures(dim)).positions
        f = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=len(xs),
                                        max_size=len(xs))))
        C = np.linalg.norm(xs[:, None] - ys[None], axis=2)
        offset = st.sampled_from([0.0, -2e-10, -1e-10, 1e-10, 0.5, -0.5])
        g = (C - f[:, None]).min(axis=0) + data.draw(
            st.lists(offset, min_size=len(ys), max_size=len(ys)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wasserstein, "PAIR_BLOCK", budget)
            got = wasserstein._price(xs, ys, f, g)
            ref = price_three_array_form(xs, ys, f, g)
        assert [got[0].tobytes(), got[1].tobytes()] == [ref[0].tobytes(), ref[1].tobytes()]


def linprog_restricted_lp(xs, a, ys, b, pairs):
    """The restricted LP of ``_restricted_lp`` through scipy's linprog, which
    builds the same LP for HiGHS from a sparse matrix, with the same options;
    linprog sets the dual simplex method itself, so a change to HiGHS's
    default shows here too."""
    m, n = len(a), len(b)
    i, j = np.divmod(pairs, n)
    cost = np.sqrt(sq_norm(xs[i] - ys[j]))
    var = np.arange(len(pairs))
    A = sparse.csr_matrix((np.ones(2 * len(pairs)),
                           (np.concatenate([i, m + j]), np.concatenate([var, var]))),
                          shape=(m + n, len(pairs)))
    rhs = np.concatenate([a, b])
    res = linprog(cost, A_eq=A[:-1], b_eq=rhs[:-1], bounds=(0, None), method="highs",
                  options={"presolve": False,
                           "primal_feasibility_tolerance": wasserstein._LP_TOL,
                           "dual_feasibility_tolerance": wasserstein._LP_TOL})
    assert res.success, res.message
    duals = res.eqlin.marginals
    return float(res.fun), res.x, cost, duals[:m], np.append(duals[m:], 0.0)


def count_runs(monkeypatch):
    """Wrap HiGHS; the list it returns grows by one at each ``run()``."""
    runs = []

    class Counted(wasserstein._Highs):
        def run(self):
            runs.append(self)
            return super().run()

    monkeypatch.setattr(wasserstein, "_Highs", Counted)
    return runs


class TestRestrictedLp:
    @given(st.data(), st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_matches_linprog_bit_for_bit(self, data, dim):
        # every restricted LP w1_exact solves, and the all-pairs LP dense_w1
        # solves, on measures with tied weights, weights down to 1e-19 of the
        # total and, as often as not, one atom on a side
        weight = st.integers(1, 9) | st.sampled_from([1e-19, 1e-12, 1e-9])
        mu, nu = (data.draw(measures(dim, weight)) for _ in range(2))
        if data.draw(st.booleans()):
            mu = AtomicMeasure(mu.positions[:1])
        if data.draw(st.booleans()):
            nu = AtomicMeasure(nu.positions[:1])
        with pytest.MonkeyPatch.context() as mp:
            solves = count_solves(mp)
            w1_exact(mu, nu)
        xs, a, ys, b, _ = solves[0]
        for args in [*solves, (xs, a, ys, b, np.arange(len(a) * len(b)))]:
            value, *arrays = wasserstein._restricted_lp(*args)
            ref_value, *ref_arrays = linprog_restricted_lp(*args)
            assert type(value) is float and value == ref_value
            assert [x.tobytes() for x in arrays] == [x.tobytes() for x in ref_arrays]

    def test_dual_simplex_is_the_default(self):
        # _HIGHS_OPTIONS leaves the simplex strategy at HiGHS's default, the
        # dual simplex method that linprog(method="highs") sets
        status, strategy = wasserstein._Highs().getOptionValue("simplex_strategy")
        dual = wasserstein._core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        assert status == wasserstein._core.HighsStatus.kOk and strategy == int(dual)

    def test_totals_that_differ_raise(self, monkeypatch):
        # column 0 asks for 0.7 where the one row holds 0.5: infeasible after
        # HiGHS's one run
        runs = count_runs(monkeypatch)
        xs, ys = np.zeros((1, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalInvariantError, match="^transport LP failed: Infeasible$"):
            wasserstein._restricted_lp(xs, np.array([0.5]), ys, np.array([0.7, 0.3]),
                                       np.arange(2))
        assert len(runs) == 1

    def test_presolve_infeasible_sector_2d_passes(self, tmp_path, monkeypatch):
        # seed 30 of the benchmark's 2D workload with its light atoms kept,
        # whose feasible restricted LP HiGHS's presolve once called
        # infeasible: with presolve off, each restricted LP takes one run
        monkeypatch.setattr(wasserstein, "_move_light", lambda xs, w: (xs, w, 0.0))
        runs = count_runs(monkeypatch)
        solves = count_solves(monkeypatch)
        w = load_bench("workloads.py").WORKLOADS["sector_2d"]
        w.write_config(30, tmp_path / "cfg.json")
        assert main(["converge", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        gaps = [v for row in summary["w1_gap"].values() for v in row.values()]
        assert summary["monotone_decrease"] is True
        assert len(gaps) == 4 and max(gaps) <= 1e-9
        assert sum(v for row in summary["w1_lp_solves"].values()
                   for v in row.values()) == len(solves) == len(runs)


class TestMetricProperties:
    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            mus = [AtomicMeasure(rng.normal(size=(4, 2)), np.full(4, 0.25))
                   for _ in range(3)]
            dab = w1_exact(mus[0], mus[1]).distance
            dba = w1_exact(mus[1], mus[0]).distance
            assert dab == pytest.approx(dba, abs=1e-10)
            dbc = w1_exact(mus[1], mus[2]).distance
            dac = w1_exact(mus[0], mus[2]).distance
            assert dac <= dab + dbc + 1e-10

    def test_identity_of_indiscernibles(self):
        mu = AtomicMeasure([[0.3, -0.2], [1.0, 0.5]], [0.4, 0.6])
        assert w1_exact(mu, mu).distance <= 1e-12


class TestGridAtomic:
    def test_bound_is_half_cell_diagonal(self):
        lam = GridMeasure(GridSpec(2, 0.1), [[0, 0]], [100.0])
        res = w1_grid_atomic(lam, AtomicMeasure([[0.0, 0.0]]))
        assert res.atomization_bound == pytest.approx(np.sqrt(2) * 0.05, abs=1e-15)
        assert res.distance == pytest.approx(0.0, abs=1e-12)

    def test_projection_self_distance_within_bound(self):
        rng = np.random.default_rng(29)
        mu = AtomicMeasure(rng.uniform(size=(20, 1)))
        lam = project_atomic(mu, GridSpec(1, 0.25))
        res = w1_grid_atomic(lam, mu)
        # every atom sits within half a cell of its center
        assert res.distance <= res.atomization_bound + 1e-12
        assert w1_1d(atomize(lam), mu) == pytest.approx(res.distance, abs=1e-10)
        assert res.lower == res.distance == res.upper

    def test_2d_carries_the_certificate(self):
        rng = np.random.default_rng(31)
        mu = AtomicMeasure(rng.uniform(size=(30, 2)))
        lam = project_atomic(mu, GridSpec(2, 0.1))
        res, exact = w1_grid_atomic(lam, mu), w1_exact(atomize(lam), mu)
        assert res.distance == exact.distance
        assert res.lower == exact.lower
        assert res.upper == exact.upper
        assert res.atomization_bound == np.sqrt(2) * 0.1 / 2
        assert res.lower <= res.distance + 1e-12 and res.distance <= res.upper + 1e-12
        assert res.upper - res.lower <= 1e-8

    @pytest.mark.parametrize("dim", [1, 2])
    def test_grid_the_scheme_accepts_atomizes(self, dim):
        # one mass rule: a grid 5e-11 over mass 1 passes the scheme's check and
        # gets its W1 row; 2e-10 over fails both, with the same error
        rng = np.random.default_rng(37)
        mu = AtomicMeasure(rng.uniform(size=(20, dim)))
        lam = project_atomic(mu, GridSpec(dim, 0.1))
        heavy = GridMeasure(lam.spec, lam.indices, lam.rho * (1 + 5e-11))
        check_mass(total_mass(heavy), "the grid measure")
        res = w1_grid_atomic(heavy, mu)
        assert res.distance <= res.atomization_bound + 1e-9
        assert res.lower <= res.distance + 1e-12 and res.distance <= res.upper + 1e-12
        heavier = GridMeasure(lam.spec, lam.indices, lam.rho * (1 + 2e-10))
        with pytest.raises(MassError):
            check_mass(total_mass(heavier), "the grid measure")
        with pytest.raises(MassError):
            w1_grid_atomic(heavier, mu)
