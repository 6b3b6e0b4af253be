import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdflow import (AtomicMeasure, GridMeasure, GridSpec, atomize,
                       project_atomic, w1_1d, w1_exact, w1_grid_atomic, wasserstein)
from crowdflow.grids import merge_duplicates


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
        shifted = mu.translated(np.array([0.37]))
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
            assert w1_exact(mu, nu) == pytest.approx(w1_1d(mu, nu), abs=1e-10)

    def test_2x2_grid_matching(self):
        # unit-square corners, mass swapped along one edge: optimal cost 1
        mu = AtomicMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        nu = AtomicMeasure([[0.0, 1.0], [1.0, 1.0]], [0.5, 0.5])
        assert w1_exact(mu, nu) == pytest.approx(1.0, abs=1e-12)

    def test_forced_plan_single_target(self):
        mu = AtomicMeasure([[-1.0], [1.0]], [0.5, 0.5])
        nu = AtomicMeasure([[0.0]])
        assert w1_exact(mu, nu) == pytest.approx(1.0, abs=1e-15)

    def test_atom_order_invariance(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(size=(8, 2))
        w = np.full(8, 0.125)
        nu = AtomicMeasure(rng.normal(size=(5, 2)), np.full(5, 0.2))
        perm = rng.permutation(8)
        a = w1_exact(AtomicMeasure(pos, w), nu)
        b = w1_exact(AtomicMeasure(pos[perm], w[perm]), nu)
        assert a == pytest.approx(b, abs=1e-12)

    def test_duplicate_atoms_merged(self):
        mu = AtomicMeasure([[0.0], [0.0], [2.0]], [0.25, 0.25, 0.5])
        nu = AtomicMeasure([[1.0]])
        assert w1_exact(mu, nu) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            w1_exact(AtomicMeasure([[0.0]]), AtomicMeasure([[0.0, 0.0]]))

    def test_max_atoms_guard(self, monkeypatch):
        mu = AtomicMeasure(np.arange(10, dtype=float)[:, None], np.full(10, 0.1))
        monkeypatch.setattr(wasserstein, "DEFAULT_MAX_PAIRS", 99)
        with pytest.raises(ValueError):
            w1_exact(mu, mu)
        monkeypatch.setattr(wasserstein, "DEFAULT_MAX_PAIRS", 100)
        assert w1_exact(mu, mu) <= 1e-12


def dense_w1(mu, nu) -> wasserstein.TransportCost:
    """The full transport LP: the column-generation helper over all m * n pairs,
    certified on the marginals w1_exact enforces: the c-transform of its duals
    below, its plan rounded onto those marginals above."""
    xs, a = merge_duplicates(mu.positions, mu.weights)
    ys, b = merge_duplicates(nu.positions, nu.weights)
    b[-1] = a.sum() - b[:-1].sum()
    pairs = np.arange(len(a) * len(b))
    value, plan, cost, f, g = wasserstein._restricted_lp(xs, a, ys, b, pairs)
    lower = a @ f + b @ wasserstein._price(xs, ys, f, g)[1]
    return wasserstein.TransportCost(
        value, lower, wasserstein._rounded_cost(xs, a, ys, b, pairs, cost, plan))


def meet(res, dense) -> bool:
    """Whether two certified intervals meet, as two intervals that hold the
    same optimum must, up to the 1e-12 their sums may round by."""
    return res.lower <= dense.upper + 1e-12 and dense.lower <= res.upper + 1e-12


def assert_certified(res, dense):
    assert abs(res - dense) <= 1e-9
    assert meet(res, dense)
    assert res.lower <= res + 1e-12 and res <= res.upper + 1e-12


@st.composite
def measures(draw, dim):
    """A small measure whose atoms often coincide, within it or with another."""
    coord = st.one_of(st.integers(-2, 2).map(float), st.floats(-2, 2))
    atoms = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=12))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=len(atoms),
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
        exact = wasserstein.TransportCost(1 / 3, 1 / 3, 1 / 3)
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
        assert res == pytest.approx(0.15 * np.sqrt(2) + 0.1 * np.sqrt(10) + 0.2 * 3,
                                    abs=1e-9)
        assert w1_exact(nu, nu) <= 1e-12

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
        assert res.lower <= res + 1e-12 and res <= res.upper + 1e-12


class TestMetricProperties:
    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            mus = [AtomicMeasure(rng.normal(size=(4, 2)), np.full(4, 0.25))
                   for _ in range(3)]
            dab = w1_exact(mus[0], mus[1])
            dba = w1_exact(mus[1], mus[0])
            assert dab == pytest.approx(dba, abs=1e-10)
            dbc = w1_exact(mus[1], mus[2])
            dac = w1_exact(mus[0], mus[2])
            assert dac <= dab + dbc + 1e-10

    def test_identity_of_indiscernibles(self):
        mu = AtomicMeasure([[0.3, -0.2], [1.0, 0.5]], [0.4, 0.6])
        assert w1_exact(mu, mu) <= 1e-12


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
        res = w1_grid_atomic(lam, mu)
        assert res.distance == w1_exact(atomize(lam), mu)
        assert res.lower <= res.distance + 1e-12 and res.distance <= res.upper + 1e-12
        assert res.upper - res.lower <= 1e-8
