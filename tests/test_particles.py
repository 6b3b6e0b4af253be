import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdflow import (AtomicMeasure, Ball, CaseStudyRepulsion, ConstantDesired,
                       NumericalInvariantError, Sector, VelocityModel, ZeroDesired, cli,
                       eval_atomic_many, euler_step, push_forward_atoms, run_particles,
                       particles, to_measure, velocity)
from crowdflow.config import load_config
from crowdflow.particles import Agents, write_trajectory_csv
from crowdflow.scheme import step_count
from helpers import CustomDesired, CustomKernel, write_trajectory_csv_agents

A, EPS, R, B = 0.01, 0.025, 0.1, 0.02

TWO_ATOM_VEL = -0.1986711012510069  # F(0.05) * cutoff(0.05)


def repulsion_model(n_agents, dim=1):
    return VelocityModel(dim=dim, n_agents=n_agents, desired=ZeroDesired(),
                         kernel=CaseStudyRepulsion(A, EPS),
                         neighborhood=Ball(R, B))


class TestEulerStep:
    def test_lone_particle_stationary(self, tmp_path):
        s = AtomicMeasure(np.array([[0.3]]))
        out = euler_step(s, repulsion_model(1), 0.01)
        np.testing.assert_array_equal(out.positions, s.positions)
        write_trajectory_csv((s, out), 0.01, tmp_path / "traj.csv")
        rows = np.loadtxt(tmp_path / "traj.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[-1, 0] == pytest.approx(0.01)

    def test_pure_drift_exact(self):
        model = VelocityModel(dim=2, n_agents=1, desired=ConstantDesired((1.0, -2.0)),
                              kernel=CustomKernel(lambda z: np.zeros_like(z), 0.0, 0.0),
                              neighborhood=Ball(R, B))
        s = AtomicMeasure(np.array([[0.0, 0.0]]))
        out = euler_step(s, model, 0.25)
        np.testing.assert_array_equal(out.positions, [[0.25, -0.5]])

    def test_two_particle_frozen_displacement(self):
        s = AtomicMeasure(np.array([[0.0], [0.05]]))
        out = euler_step(s, repulsion_model(2), 0.01)
        assert out.positions[0, 0] == pytest.approx(0.01 * TWO_ATOM_VEL, abs=1e-17)
        assert out.positions[1, 0] == pytest.approx(0.05 - 0.01 * TWO_ATOM_VEL, abs=1e-17)

    def test_vanishing_heading_is_invariant_error(self):
        # the sector faces v_d(x) = -x, which vanishes at the agent on the origin
        model = VelocityModel(dim=2, n_agents=2, desired=CustomDesired(lambda x: -x, 1.0, 1.0),
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Sector(R, np.pi, B))
        s = AtomicMeasure(np.array([[0.0, 0.0], [0.05, 0.0]]))
        with pytest.raises(NumericalInvariantError, match="heading"):
            euler_step(s, model, 0.01)

    def test_synchronous_update(self):
        # both particles see the pre-step configuration: mirror pair stays mirrored
        s = AtomicMeasure(np.array([[-0.02], [0.02]]))
        out = euler_step(s, repulsion_model(2), 0.01)
        assert out.positions[0, 0] == pytest.approx(-out.positions[1, 0], abs=1e-12)


class TestPushForwardEquivalence:
    def test_bit_exact_single_step(self):
        rng = np.random.default_rng(6)
        pos = rng.uniform(size=(6, 1))
        model = repulsion_model(6)
        stepped = euler_step(AtomicMeasure(pos), model, 0.01)
        pushed = push_forward_atoms(to_measure(AtomicMeasure(pos)), model, 0.01)
        np.testing.assert_array_equal(stepped.positions, pushed.positions)

    def test_weights_carried_through(self):
        mu = AtomicMeasure([[0.0], [0.05]], [0.25, 0.75])
        out = push_forward_atoms(mu, repulsion_model(2), 0.01)
        np.testing.assert_array_equal(out.weights, mu.weights)
        assert out.weights is mu.weights

    def test_weighted_step_is_push_forward(self):
        # each agent keeps its own weight, and moves against the weighted measure
        mu = AtomicMeasure([[0.0], [0.05], [0.08]], [0.25, 0.7, 0.05])
        stepped = euler_step(mu, repulsion_model(3), 0.01)
        pushed = push_forward_atoms(mu, repulsion_model(3), 0.01)
        assert stepped.positions.tobytes() == pushed.positions.tobytes()
        assert stepped.weights.tobytes() == mu.weights.tobytes()


def stacked_models(dim):
    """Models of the stacked-state test: a ball in any dimension and, in 2D,
    sectors facing a constant and a position-dependent desired velocity."""
    kern = CaseStudyRepulsion(A, EPS)
    models = [VelocityModel(dim=dim, n_agents=7, desired=ZeroDesired(), kernel=kern,
                            neighborhood=Ball(R, B))]
    if dim == 2:
        models += [
            VelocityModel(dim=2, n_agents=7, desired=ConstantDesired((1.0, 0.5)),
                          kernel=kern, neighborhood=Sector(R, 2.0, B)),
            VelocityModel(dim=2, n_agents=7, kernel=kern, neighborhood=Sector(R, 2.0, B),
                          desired=CustomDesired(
                              lambda x: np.stack([2.0 + np.sin(7.0 * x[..., 1]),
                                                  np.cos(5.0 * x[..., 0])], axis=-1),
                              3.0, 7.0)),
        ]
    return models


@st.composite
def stacked_positions(draw):
    """More agents than a pool of points they are drawn from, so some stack."""
    dim = draw(st.integers(1, 3))
    coord = st.floats(-0.15, 0.15) | st.sampled_from([0.0, -0.0])
    pool = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=len(pool) + 1, max_size=60))
    return np.array([pool[i] for i in picks])


class TestStackedStep:
    @given(stacked_positions())
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_evaluation_per_agent(self, pos):
        # evaluated per agent, the points are the agents, not the atoms, so the
        # reference takes the dense form. A row's bits do not depend on its
        # batch there, so the dense form's step gives the reference's bits;
        # the at-atoms form's step, which sums in another order, agrees to rounding
        state = AtomicMeasure(pos)
        mu = to_measure(state)
        assert mu.n_atoms < len(pos)
        for form, threshold in (("dense", math.inf), ("atoms", 0)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(velocity, "_DENSE_MAX_ATOMS", threshold)
                for model in stacked_models(pos.shape[1]):
                    got = euler_step(state, model, 0.01).positions
                    vel = eval_atomic_many(model, mu, pos)
                    ref = pos + 0.01 * vel
                    if form == "dense":
                        assert got.tobytes() == ref.tobytes(), model.neighborhood
                    else:
                        tol = 1e-14 * np.max(np.abs(vel)) + np.spacing(np.max(np.abs(ref)))
                        assert np.max(np.abs(got - ref)) <= tol, model.neighborhood

    def test_velocity_is_evaluated_once_per_distinct_position(self):
        pairs = []

        def func(z):
            pairs.append(math.prod(z.shape[:-1]))
            return -A * z / np.maximum(np.abs(z), EPS) ** 2

        model = VelocityModel(dim=1, n_agents=12, desired=ZeroDesired(),
                              kernel=CustomKernel(func, A / EPS, A / EPS ** 2),
                              neighborhood=Ball(R, B))
        # 12 agents stacked on 3 points: the dense form evaluates 3 x 3 atom pairs
        agents = AtomicMeasure(np.repeat([[0.0], [0.03], [0.06]], 4, axis=0))
        pairs.clear()
        out = euler_step(agents, model, 0.01)
        assert sum(pairs) == 3 * 3
        assert len(np.unique(out.positions)) == 3
        # the stacked measure has weights of its own; the next state keeps the agents'
        assert out.weights is agents.weights


def euler_step_stacking(agents, model, dt):
    """The Euler step that stacks the agents at every step, kept as the
    reference of euler_step, which stacks only on a tie."""
    mu, atom = to_measure(agents, return_inverse=True)
    vel = eval_atomic_many(model, mu, mu.positions)
    return AtomicMeasure(agents.positions + dt * vel.take(atom, axis=0), agents.weights)


def to_measure_calls(monkeypatch):
    """Patch the to_measure that euler_step calls to record the agents of
    each call."""
    calls = []

    def recording(agents, return_inverse=False):
        calls.append(agents)
        return to_measure(agents, return_inverse)

    monkeypatch.setattr(particles, "to_measure", recording)
    return calls


class TestTieCheck:
    @pytest.mark.parametrize("threshold", [math.inf, 0])
    def test_shared_first_coordinate_stacks(self, threshold, monkeypatch):
        # 60 2D agents on 12 first coordinates, 0.0 and -0.0 among them, and
        # distinct second ones: no two coincide, but ties, none of them
        # between neighbors in input order, send the step through
        # to_measure, in the dense and in the at-atoms form
        rng = np.random.default_rng(4)
        first = np.tile(np.concatenate(([0.0], rng.uniform(-0.1, 0.1, 5), [-0.0],
                                        rng.uniform(-0.1, 0.1, 5))), 5)
        assert np.all(first[1:] != first[:-1])
        pos = np.column_stack([first, rng.uniform(-0.1, 0.1, 60)])
        agents = AtomicMeasure(pos)
        assert to_measure(agents) is agents
        monkeypatch.setattr(velocity, "_DENSE_MAX_ATOMS", threshold)
        calls = to_measure_calls(monkeypatch)
        for model in stacked_models(2):
            calls.clear()
            got = euler_step(agents, model, 0.01)
            assert calls == [agents]
            ref = euler_step_stacking(agents, model, 0.01)
            assert got.positions.tobytes() == ref.positions.tobytes(), model.neighborhood
            assert got.weights is agents.weights

    @pytest.mark.parametrize("dim, n", [(1, 10), (2, 80)])
    def test_untied_run_never_stacks(self, dim, n, monkeypatch):
        rng = np.random.default_rng(8)
        w = rng.uniform(1, 2, n)
        mu0 = AtomicMeasure(rng.uniform(0, 0.5, size=(n, dim)), w / w.sum())
        model = repulsion_model(n, dim)
        calls = to_measure_calls(monkeypatch)
        states = run_particles(mu0, model, T=0.02, dt=0.001)
        assert calls == []
        ref = mu0
        for s in states[1:]:
            ref = euler_step_stacking(ref, model, 0.001)
            assert s.positions.tobytes() == ref.positions.tobytes()
            assert s.weights is mu0.weights
            assert isinstance(s, AtomicMeasure)  # no agent map is made


def run_stacking(mu0, model, T, dt):
    """The agents' measures of the run that moves every agent by its own row
    (:func:`euler_step_stacking`), mu0 first: the reference of run_particles."""
    states = [mu0]
    for _ in range(step_count(T, dt)):
        states.append(euler_step_stacking(states[-1], model, dt))
    return states


class TestStackedRun:
    """The oracle's states, a stacked measure and its agents' map, against the
    per-agent loop: every state's agents bit for bit, the stacked measure
    as to_measure of the agents, and particles.csv byte for byte against the
    writer that formats every agent."""

    @staticmethod
    def check(mu0, model, T, dt, tmp_path):
        states = run_particles(mu0, model, T, dt)
        ref = run_stacking(mu0, model, T, dt)
        assert len(states) == len(ref)
        for s, r in zip(states, ref):
            assert s.positions.tobytes() == r.positions.tobytes()
            assert s.weights is mu0.weights
            mu, want = to_measure(s), to_measure(r)
            assert mu.positions.tobytes() == want.positions.tobytes()
            assert mu.weights.tobytes() == want.weights.tobytes()
        write_trajectory_csv(states, dt, tmp_path / "got.csv")
        write_trajectory_csv_agents(ref, dt, tmp_path / "ref.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        return states

    def test_oracle_1d_agents_meet_at_the_atoms(self, tmp_path):
        # the oracle_1d workload's model and initial draw (1000 agents, seed
        # 12345) over 40 steps of 5e-4: agents first meet at step 28 and
        # atoms meet again at later steps, with over 63 atoms throughout, so
        # every step sums at the atoms
        mu0 = AtomicMeasure(np.random.default_rng(12345).uniform(0.0, 1.0, size=(1000, 1)))
        states = self.check(mu0, repulsion_model(1000), 0.02, 5e-4, tmp_path)
        atoms = [to_measure(s).n_atoms for s in states]
        assert min(atoms) > velocity._DENSE_MAX_ATOMS
        assert sum(b < a for a, b in zip(atoms, atoms[1:])) >= 2
        assert states[-1].atom.dtype == np.uint16  # the smallest that numbers 1000 atoms

    @pytest.mark.parametrize("threshold", [math.inf, 0])
    def test_signed_zero_ties_in_2d(self, threshold, tmp_path, monkeypatch):
        # 60 agents on first coordinates 0.0, -0.0 and three others and second
        # ones 0.0, -0.0 and two others: agents at 0.0 and -0.0 stack, in the
        # dense and in the at-atoms form
        rng = np.random.default_rng(9)
        pos = np.column_stack([rng.choice([0.0, -0.0, 0.02, -0.03, 0.05], 60),
                               rng.choice([0.0, -0.0, 0.01, 0.04], 60)])
        assert np.signbit(pos).any() and to_measure(AtomicMeasure(pos)).n_atoms <= 20
        monkeypatch.setattr(velocity, "_DENSE_MAX_ATOMS", threshold)
        for model in stacked_models(2):
            states = self.check(AtomicMeasure(pos), model, 0.1, 0.01, tmp_path)
            assert isinstance(states[1], Agents)


def test_cli_reads_each_state_stacked(tmp_path, monkeypatch):
    # the oracle converge compares at each sample time, and particles_final.json,
    # are to_measure of that state's agents; at T = 0.02 the oracle_1d instance
    # runs 44 steps, sampled unstacked at 0.01 and after agents meet at 0.02
    config = {"model": {"dim": 1, "n_agents": 1000, "desired": {"type": "zero"},
                        "kernel": {"type": "case_study", "a": A, "eps": EPS},
                        "neighborhood": {"type": "ball", "R": R, "b": B}},
              "initial": {"type": "uniform_random", "count": 1000,
                          "interval": [0.0, 1.0], "seed": 12345},
              "T": 0.02, "schedule": {"delta": 0.9, "ks": [100], "v_ref": 4.0},
              "w1_sample_times": [0.01, 0.02], "outputs": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    cfg = load_config(path)
    states = run_particles(cfg.initial, cfg.model, cfg.T, cfg.oracle_dt)

    def agents_measure(state):
        return to_measure(AtomicMeasure(state.positions, state.weights))

    assert isinstance(states[round(0.01 / cfg.oracle_dt)], AtomicMeasure)
    assert isinstance(states[-1], Agents)
    assert cli.main(["particles", "--config", str(path)]) == 0
    final = (tmp_path / "out" / "particles_final.json").read_text()
    assert final == agents_measure(states[-1]).to_json() + "\n"

    read = []
    w1_grid_atomic = cli.w1_grid_atomic

    def recording(lam, mu):
        read.append(mu)
        return w1_grid_atomic(lam, mu)

    monkeypatch.setattr(cli, "w1_grid_atomic", recording)
    assert cli.main(["converge", "--config", str(path)]) == 0
    assert len(read) == 2
    for t, mu in zip(cfg.w1_sample_times, read):
        want = agents_measure(states[round(t / cfg.oracle_dt)])
        assert mu.positions.tobytes() == want.positions.tobytes()
        assert mu.weights.tobytes() == want.weights.tobytes()


class TestRunParticles:
    def test_zero_velocity_constant_states(self):
        states = run_particles(AtomicMeasure([[0.1], [0.9]]), repulsion_model(2), T=0.1, dt=0.01)
        # atoms out of interaction range: nothing moves, ever
        for s in states:
            np.testing.assert_array_equal(s.positions, states[0].positions)

    def test_step_count_and_times(self, tmp_path):
        states = run_particles(AtomicMeasure([[0.0]]), repulsion_model(1), T=0.1, dt=0.01)
        assert len(states) == 11
        write_trajectory_csv(states, 0.01, tmp_path / "traj.csv")
        rows = np.loadtxt(tmp_path / "traj.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[-1, 0] == pytest.approx(0.1)

    def test_repulsion_spreads_particles(self):
        rng = np.random.default_rng(12345)
        x0 = rng.uniform(0, 1, size=(10, 1))
        final = run_particles(AtomicMeasure(x0), repulsion_model(10), T=0.1, dt=0.001)[-1]

        def min_gap(p):
            x = np.sort(p[:, 0])
            return float(np.min(np.diff(x)))

        assert min_gap(final.positions) >= min_gap(x0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        x0 = rng.uniform(size=(5, 1))
        perm = rng.permutation(5)
        model = repulsion_model(5)
        a = run_particles(AtomicMeasure(x0), model, T=0.05, dt=0.005)[-1].positions
        b = run_particles(AtomicMeasure(x0[perm]), model, T=0.05, dt=0.005)[-1].positions
        np.testing.assert_allclose(b, a[perm], atol=1e-15)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(size=(4, 1))
        model = repulsion_model(4)
        base = run_particles(AtomicMeasure(x0), model, T=0.05, dt=0.005)[-1].positions
        moved = run_particles(AtomicMeasure(x0 + 7.25), model, T=0.05, dt=0.005)[-1].positions
        np.testing.assert_allclose(moved, base + 7.25, atol=1e-12)

    def test_step_halving_reduces_error(self):
        rng = np.random.default_rng(12345)
        x0 = rng.uniform(0, 1, size=(10, 1))
        model = repulsion_model(10)
        mu0 = AtomicMeasure(x0)
        ref = run_particles(mu0, model, T=0.1, dt=1e-5)[-1].positions
        err = [np.max(np.abs(run_particles(mu0, model, T=0.1, dt=dt)[-1].positions - ref))
               for dt in (0.01, 0.005, 0.0025)]
        assert err[1] < err[0] and err[2] < err[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_particles(AtomicMeasure([[0.0]]), repulsion_model(1), T=-1.0, dt=0.1)
        with pytest.raises(ValueError):
            AtomicMeasure(np.array([[np.inf]]))

    @pytest.mark.parametrize("T, dt", [(math.inf, 0.1), (0.1, math.inf), (0.1, 0.0)])
    def test_step_count_is_the_schemes(self, T, dt):
        # the oracle takes scheme.step_count's steps, and its refusals name T and dt
        with pytest.raises(ValueError, match=r"T=.*dt="):
            run_particles(AtomicMeasure([[0.0]]), repulsion_model(1), T=T, dt=dt)


def to_measure_loop(agents):
    """The dict loop that to_measure replaced, kept as its reference."""
    seen: dict = {}
    stacked: list = []
    for row, w in zip(map(tuple, agents.positions), agents.weights.tolist()):
        if row in seen:
            stacked[seen[row]] += w
        else:
            seen[row] = len(stacked)
            stacked.append(w)
    if len(stacked) == agents.n_atoms:
        return agents
    return AtomicMeasure(np.array(list(seen), dtype=float), np.array(stacked))


# few distinct coordinates, so duplicate rows are common; -0.0 must stack with 0.0
COORDS = st.sampled_from([0.0, -0.0, 0.5, -1.25, 1e-300, 3.0])


@st.composite
def agent_measures(draw):
    """Agents on a few distinct coordinates, equally or unequally weighted."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(COORDS, min_size=d, max_size=d), min_size=1, max_size=60))
    if draw(st.booleans()):
        return AtomicMeasure(np.array(rows))
    w = np.array(draw(st.lists(st.integers(1, 9), min_size=len(rows), max_size=len(rows))),
                 dtype=float)
    return AtomicMeasure(np.array(rows), w / w.sum())


class TestToMeasure:
    @given(agent_measures())
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_loop(self, state):
        got, ref = to_measure(state), to_measure_loop(state)
        assert got.positions.shape == ref.positions.shape
        assert got.positions.tobytes() == ref.positions.tobytes()
        assert got.weights.tobytes() == ref.weights.tobytes()
        mu, atom = to_measure(state, return_inverse=True)
        assert mu.positions.tobytes() == got.positions.tobytes()
        assert mu.weights.tobytes() == got.weights.tobytes()
        assert np.array_equal(mu.positions[atom], state.positions)

    @given(agent_measures(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_state_stacks_as_its_agents(self, agents, data):
        # the stacked measure's atoms moved onto a few coordinates, so some
        # meet: the state stacks as the dict loop stacks its agents
        mu, atom = to_measure(agents, return_inverse=True)
        rows = data.draw(st.lists(st.lists(COORDS, min_size=mu.dim, max_size=mu.dim),
                                  min_size=mu.n_atoms, max_size=mu.n_atoms))
        state = Agents(np.array(rows), atom, agents.weights)
        got, got_atom = to_measure(state, return_inverse=True)
        ref = to_measure_loop(AtomicMeasure(state.positions, agents.weights))
        assert got.positions.tobytes() == ref.positions.tobytes()
        assert got.weights.tobytes() == ref.weights.tobytes()
        assert np.array_equal(got.positions[got_atom], state.positions)

    def test_uniform_weights(self):
        mu = to_measure(AtomicMeasure(np.array([[0.0], [1.0]])))
        np.testing.assert_array_equal(mu.weights, [0.5, 0.5])

    def test_distinct_agents_are_their_own_measure(self):
        agents = AtomicMeasure([[0.0], [1.0]], [0.9, 0.1])
        assert to_measure(agents) is agents

    def test_coincident_particles_stack(self):
        mu = to_measure(AtomicMeasure(np.array([[0.5], [0.5], [0.5]])))
        assert mu.n_atoms == 1
        assert mu.weights[0] == pytest.approx(1.0)

    def test_partial_stacking_keeps_order(self):
        mu = to_measure(AtomicMeasure(np.array([[1.0], [0.0], [1.0], [2.0]])))
        assert mu.positions[:, 0].tolist() == [1.0, 0.0, 2.0]
        np.testing.assert_allclose(mu.weights, [0.5, 0.25, 0.25])

    def test_stacking_sums_the_agents_weights(self):
        agents = AtomicMeasure([[1.0], [0.0], [1.0], [2.0]], [0.4, 0.1, 0.2, 0.3])
        mu = to_measure(agents)
        assert mu.positions[:, 0].tolist() == [1.0, 0.0, 2.0]
        np.testing.assert_allclose(mu.weights, [0.6, 0.1, 0.3])


def write_trajectory_csv_writer(states, dt, path):
    """The csv.writer loop that write_trajectory_csv replaced, kept as its reference."""
    d = states[0].positions.shape[1]
    header = ["t", "particle"] + [f"x_{l}" for l in range(d)]
    t = 0.0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for s in states:
            for l, p in enumerate(s.positions):
                w.writerow([repr(float(t)), l, *(repr(float(v)) for v in p)])
            t += dt


# signed zeros, exponent forms, subnormals and large magnitudes, plus arbitrary finite floats
CSV_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-05, -1e-05, 0.1, 1e16, -1.2345678901234567e300,
                     5e-324, 123456789.0]),
    st.floats(allow_nan=False, allow_infinity=False))


class TestTrajectoryCsv:
    def test_layout(self, tmp_path):
        states = run_particles(AtomicMeasure([[0.1, 0.2], [0.9, 0.4]]),
                               repulsion_model(2, dim=2), T=0.02, dt=0.01)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(states, 0.01, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "particle", "x_0", "x_1"]
        assert len(rows) == 1 + 2 * 3  # header + N particles * (steps + 1)
        assert float(rows[1][0]) == 0.0
        assert [r[1] for r in rows[1:3]] == ["0", "1"]

    @given(st.floats(0.0, 10.0), st.integers(1, 3).flatmap(lambda d: st.lists(
               st.lists(st.lists(CSV_VALUES, min_size=d, max_size=d), min_size=3, max_size=3),
               min_size=1, max_size=4)))
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_csv_writer(self, tmp_path_factory, dt, states):
        states = tuple(AtomicMeasure(np.array(p)) for p in states)
        d = tmp_path_factory.mktemp("csv")
        write_trajectory_csv(states, dt, d / "got.csv")
        write_trajectory_csv_writer(states, dt, d / "ref.csv")
        assert (d / "got.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @given(st.floats(0.0, 10.0), st.integers(1, 3).flatmap(lambda d: st.lists(
               st.lists(CSV_VALUES, min_size=d, max_size=d), min_size=1, max_size=4)),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_atoms_formatted_once_match_every_agent(self, tmp_path_factory, dt, atoms, data):
        # agents on the atoms of a measure by a map, after a state without one
        m = len(atoms)
        atom = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6)),
                        dtype=np.int32)
        n = len(atom)
        mapped = Agents(np.array(atoms), atom, np.full(n, 1.0 / n))
        states = (AtomicMeasure(mapped.positions), mapped)
        d = tmp_path_factory.mktemp("csv")
        write_trajectory_csv(states, dt, d / "got.csv")
        write_trajectory_csv_agents(states, dt, d / "ref.csv")
        assert (d / "got.csv").read_bytes() == (d / "ref.csv").read_bytes()
