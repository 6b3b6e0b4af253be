import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdflow import (AtomicMeasure, Ball, CaseStudyRepulsion, ConstantDesired,
                       CustomDesired, CustomKernel, NumericalInvariantError,
                       ParticleState, Sector, VelocityModel, ZeroDesired,
                       euler_step, push_forward_atoms, run_particles, to_measure)
from crowdflow.particles import ParticleTrajectory, write_trajectory_csv

A, EPS, R, B = 0.01, 0.025, 0.1, 0.02

TWO_ATOM_VEL = -0.1986711012510069  # F(0.05) * cutoff(0.05)


def repulsion_model(n_agents, dim=1):
    return VelocityModel(dim=dim, n_agents=n_agents, desired=ZeroDesired(),
                         kernel=CaseStudyRepulsion(A, EPS),
                         neighborhood=Ball(R, B))


class TestEulerStep:
    def test_lone_particle_stationary(self):
        s = ParticleState(np.array([[0.3]]), 0.0)
        out = euler_step(s, repulsion_model(1), 0.01)
        np.testing.assert_array_equal(out.positions, s.positions)
        assert out.t == pytest.approx(0.01)

    def test_pure_drift_exact(self):
        model = VelocityModel(dim=2, n_agents=1, desired=ConstantDesired((1.0, -2.0)),
                              kernel=CustomKernel(lambda z: np.zeros_like(z), 0.0, 0.0),
                              neighborhood=Ball(R, B))
        s = ParticleState(np.array([[0.0, 0.0]]), 0.0)
        out = euler_step(s, model, 0.25)
        np.testing.assert_array_equal(out.positions, [[0.25, -0.5]])

    def test_two_particle_frozen_displacement(self):
        s = ParticleState(np.array([[0.0], [0.05]]), 0.0)
        out = euler_step(s, repulsion_model(2), 0.01)
        assert out.positions[0, 0] == pytest.approx(0.01 * TWO_ATOM_VEL, abs=1e-17)
        assert out.positions[1, 0] == pytest.approx(0.05 - 0.01 * TWO_ATOM_VEL, abs=1e-17)

    def test_vanishing_heading_is_invariant_error(self):
        # the sector faces v_d(x) = -x, which vanishes at the agent on the origin
        model = VelocityModel(dim=2, n_agents=2, desired=CustomDesired(lambda x: -x, 1.0, 1.0),
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Sector(R, np.pi, B))
        s = ParticleState(np.array([[0.0, 0.0], [0.05, 0.0]]), 0.0)
        with pytest.raises(NumericalInvariantError, match="heading"):
            euler_step(s, model, 0.01)

    def test_synchronous_update(self):
        # both particles see the pre-step configuration: mirror pair stays mirrored
        s = ParticleState(np.array([[-0.02], [0.02]]), 0.0)
        out = euler_step(s, repulsion_model(2), 0.01)
        assert out.positions[0, 0] == pytest.approx(-out.positions[1, 0], abs=1e-12)


class TestPushForwardEquivalence:
    def test_bit_exact_single_step(self):
        rng = np.random.default_rng(6)
        pos = rng.uniform(size=(6, 1))
        model = repulsion_model(6)
        stepped = euler_step(ParticleState(pos, 0.0), model, 0.01)
        pushed = push_forward_atoms(to_measure(ParticleState(pos, 0.0)), model, 0.01)
        np.testing.assert_array_equal(stepped.positions, pushed.positions)

    def test_weights_carried_through(self):
        mu = AtomicMeasure([[0.0], [0.05]], [0.25, 0.75])
        out = push_forward_atoms(mu, repulsion_model(2), 0.01)
        np.testing.assert_array_equal(out.weights, mu.weights)


class TestRunParticles:
    def test_zero_velocity_constant_states(self):
        traj = run_particles([[0.1], [0.9]], repulsion_model(2), T=0.1, dt=0.01)
        # atoms out of interaction range: nothing moves, ever
        for s in traj.states:
            np.testing.assert_array_equal(s.positions, traj.states[0].positions)

    def test_step_count_and_times(self):
        traj = run_particles([[0.0]], repulsion_model(1), T=0.1, dt=0.01)
        assert len(traj.states) == 11
        assert traj.final.t == pytest.approx(0.1)

    def test_repulsion_spreads_particles(self):
        rng = np.random.default_rng(12345)
        x0 = rng.uniform(0, 1, size=(10, 1))
        traj = run_particles(x0, repulsion_model(10), T=0.1, dt=0.001)

        def min_gap(p):
            x = np.sort(p[:, 0])
            return float(np.min(np.diff(x)))

        assert min_gap(traj.final.positions) >= min_gap(x0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        x0 = rng.uniform(size=(5, 1))
        perm = rng.permutation(5)
        model = repulsion_model(5)
        a = run_particles(x0, model, T=0.05, dt=0.005).final.positions
        b = run_particles(x0[perm], model, T=0.05, dt=0.005).final.positions
        np.testing.assert_allclose(b, a[perm], atol=1e-15)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(size=(4, 1))
        model = repulsion_model(4)
        base = run_particles(x0, model, T=0.05, dt=0.005).final.positions
        moved = run_particles(x0 + 7.25, model, T=0.05, dt=0.005).final.positions
        np.testing.assert_allclose(moved, base + 7.25, atol=1e-12)

    def test_step_halving_reduces_error(self):
        rng = np.random.default_rng(12345)
        x0 = rng.uniform(0, 1, size=(10, 1))
        model = repulsion_model(10)
        ref = run_particles(x0, model, T=0.1, dt=1e-5).final.positions
        err = [np.max(np.abs(run_particles(x0, model, T=0.1, dt=dt).final.positions - ref))
               for dt in (0.01, 0.005, 0.0025)]
        assert err[1] < err[0] and err[2] < err[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_particles([[0.0]], repulsion_model(1), T=-1.0, dt=0.1)
        with pytest.raises(ValueError):
            ParticleState(np.array([[np.inf]]), 0.0)


def to_measure_loop(state):
    """The dict loop that to_measure replaced, kept as its reference."""
    pos = state.positions
    n = pos.shape[0]
    seen: dict = {}
    stacked: list = []
    for row in map(tuple, pos):
        if row in seen:
            stacked[seen[row]] += 1.0 / n
        else:
            seen[row] = len(stacked)
            stacked.append(1.0 / n)
    if len(stacked) == n:
        return AtomicMeasure(pos, np.full(n, 1.0 / n))
    return AtomicMeasure(np.array(list(seen), dtype=float), np.array(stacked))


# few distinct coordinates, so duplicate rows are common; -0.0 must stack with 0.0
COORDS = st.sampled_from([0.0, -0.0, 0.5, -1.25, 1e-300, 3.0])


class TestToMeasure:
    @given(st.integers(1, 3).flatmap(
        lambda d: st.lists(st.lists(COORDS, min_size=d, max_size=d), min_size=1, max_size=60)))
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_loop(self, rows):
        state = ParticleState(np.array(rows), 0.0)
        got, ref = to_measure(state), to_measure_loop(state)
        assert got.positions.shape == ref.positions.shape
        assert got.positions.tobytes() == ref.positions.tobytes()
        assert got.weights.tobytes() == ref.weights.tobytes()

    def test_uniform_weights(self):
        mu = to_measure(ParticleState(np.array([[0.0], [1.0]]), 0.0))
        np.testing.assert_array_equal(mu.weights, [0.5, 0.5])

    def test_coincident_particles_stack(self):
        mu = to_measure(ParticleState(np.array([[0.5], [0.5], [0.5]]), 0.0))
        assert mu.n_atoms == 1
        assert mu.weights[0] == pytest.approx(1.0)

    def test_partial_stacking_keeps_order(self):
        mu = to_measure(ParticleState(np.array([[1.0], [0.0], [1.0], [2.0]]), 0.0))
        assert mu.positions[:, 0].tolist() == [1.0, 0.0, 2.0]
        np.testing.assert_allclose(mu.weights, [0.5, 0.25, 0.25])


def write_trajectory_csv_writer(traj, path):
    """The csv.writer loop that write_trajectory_csv replaced, kept as its reference."""
    d = traj.states[0].positions.shape[1]
    header = ["t", "particle"] + [f"x_{l}" for l in range(d)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for s in traj.states:
            for l, p in enumerate(s.positions):
                w.writerow([repr(float(s.t)), l, *(repr(float(v)) for v in p)])


# signed zeros, exponent forms, subnormals and large magnitudes, plus arbitrary finite floats
CSV_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-05, -1e-05, 0.1, 1e16, -1.2345678901234567e300,
                     5e-324, 123456789.0]),
    st.floats(allow_nan=False, allow_infinity=False))


class TestTrajectoryCsv:
    def test_layout(self, tmp_path):
        traj = run_particles([[0.1, 0.2], [0.9, 0.4]], repulsion_model(2, dim=2),
                             T=0.02, dt=0.01)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "particle", "x_0", "x_1"]
        assert len(rows) == 1 + 2 * 3  # header + N particles * (steps + 1)
        assert float(rows[1][0]) == 0.0
        assert [r[1] for r in rows[1:3]] == ["0", "1"]

    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
               st.tuples(st.floats(0.0, 10.0), st.lists(st.lists(
                   CSV_VALUES, min_size=d, max_size=d), min_size=3, max_size=3)),
               min_size=1, max_size=4)))
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_csv_writer(self, tmp_path_factory, states):
        traj = ParticleTrajectory(0.01, tuple(ParticleState(np.array(p), t) for t, p in states))
        d = tmp_path_factory.mktemp("csv")
        write_trajectory_csv(traj, d / "got.csv")
        write_trajectory_csv_writer(traj, d / "ref.csv")
        assert (d / "got.csv").read_bytes() == (d / "ref.csv").read_bytes()
