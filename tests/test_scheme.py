import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdflow import (AtomicMeasure, Ball, CaseStudyRepulsion, ConstantDesired,
                       GridMeasure, GridSpec, NumericalInvariantError, Sector,
                       VelocityModel, ZeroDesired, cfl_ratio, mesh_schedule, moment,
                       project_atomic, run, sample_at, step, total_mass,
                       velocity_bound)
from crowdflow import scheme
from crowdflow.scheme import overlap_fractions, step_count
from crowdflow.velocity import eval_grid_many
from helpers import CustomDesired, CustomKernel, density

A, EPS, R, B = 0.01, 0.025, 0.1, 0.02

# frozen schedule values for v_ref=4, delta=0.9
DT_K100 = 0.0045514105075652005
DT_K1000 = 0.0005729886347480819
ALPHA_K100 = 1.8205642030260802


def repulsion_model(n_agents, dim=1):
    return VelocityModel(dim=dim, n_agents=n_agents, desired=ZeroDesired(),
                         kernel=CaseStudyRepulsion(A, EPS),
                         neighborhood=Ball(R, B))


def overlap_pairs(spec, j, w):
    """The (target cell, fraction) pairs of cell j translated by w, f > 0."""
    targets, fractions = overlap_fractions(spec, j, w)
    return [(tuple(t), f) for t, f in zip(targets.tolist(), fractions.tolist()) if f > 0]


def drift_model(c):
    c = tuple(c)
    return VelocityModel(dim=len(c), n_agents=1, desired=ConstantDesired(c),
                         kernel=CustomKernel(lambda z: np.zeros_like(z), 0.0, 0.0),
                         neighborhood=Ball(R, B))


class TestSchedule:
    def test_frozen_case_study_levels(self):
        (k1, h1, dt1), (k2, h2, dt2) = mesh_schedule(4.0, 0.9, [100, 1000])
        assert (k1, k2) == (100, 1000)
        assert h1 == pytest.approx(0.01, abs=1e-18)
        assert dt1 == pytest.approx(DT_K100, abs=1e-18)
        assert dt2 == pytest.approx(DT_K1000, abs=1e-18)

    def test_time_step_dominates_cell_width(self):
        # h = o(dt): the displacement in cell units grows under refinement
        betas = [h / dt for _, h, dt in mesh_schedule(4.0, 0.9, [10, 100, 1000])]
        assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))

    def test_delta_must_be_in_open_unit_interval(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                mesh_schedule(4.0, bad, [10])

    def test_ks_validation(self):
        with pytest.raises(ValueError):
            mesh_schedule(4.0, 0.9, [])
        with pytest.raises(ValueError):
            mesh_schedule(4.0, 0.9, [100, 100])
        with pytest.raises(ValueError):
            mesh_schedule(4.0, 0.9, [100, 50])
        with pytest.raises(ValueError):
            mesh_schedule(4.0, 0.9, [0, 10])

    def test_cfl_frozen_value(self):
        model = repulsion_model(10)
        assert velocity_bound(model) == pytest.approx(4.0)
        assert cfl_ratio(model, DT_K100, 0.01) == pytest.approx(ALPHA_K100, abs=1e-15)

    def test_cfl_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cfl_ratio(repulsion_model(1), 0.0, 0.01)


class TestBoxOverlap:
    def test_zero_shift_is_identity(self):
        out = overlap_pairs(GridSpec(2, 0.5), (3, -1), (0.0, 0.0))
        assert out == [((3, -1), 1.0)]

    def test_half_cell_shift_splits_evenly(self):
        out = dict(overlap_pairs(GridSpec(1, 0.5), (0,), (0.25,)))
        assert out == {(0,): 0.5, (1,): 0.5}

    def test_full_cell_shift_is_exact(self):
        out = overlap_pairs(GridSpec(1, 0.25), (2,), (0.25,))
        assert out == [((3,), 1.0)]

    def test_2d_product_structure(self):
        out = dict(overlap_pairs(GridSpec(2, 1.0), (0, 0), (0.25, 0.5)))
        assert out[(0, 0)] == pytest.approx(0.75 * 0.5)
        assert out[(1, 1)] == pytest.approx(0.25 * 0.5)

    @given(st.integers(1, 3), st.floats(0.01, 2.0),
           st.lists(st.integers(-50, 50), min_size=3, max_size=3),
           st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_partition_of_unity(self, dim, h, j, w):
        _, fractions = overlap_fractions(GridSpec(dim, h), tuple(j[:dim]), w[:dim])
        assert np.all(fractions >= 0)
        assert abs(sum(fractions[fractions > 0].tolist()) - 1.0) <= 1e-14


class TestStep:
    def test_mass_and_positivity(self):
        rng = np.random.default_rng(1)
        lam = project_atomic(AtomicMeasure(rng.uniform(size=(10, 1))), GridSpec(1, 0.01))
        new, rep = step(lam, repulsion_model(10), 0.001)
        assert rep.mass_error <= 1e-12
        assert np.all(new.rho >= 0)
        assert abs(total_mass(new) - 1.0) <= 1e-12

    def test_constant_drift_moves_center_of_mass(self):
        lam = GridMeasure(GridSpec(1, 0.1), [[0]], [10.0])
        dt = 0.03
        new, _ = step(lam, drift_model((1.0,)), dt)
        com0 = float(np.sum(lam.cell_masses() * lam.centers()[:, 0]))
        com1 = float(np.sum(new.cell_masses() * new.centers()[:, 0]))
        assert com1 - com0 == pytest.approx(dt, abs=1e-15)

    def test_stationary_measure_is_fixed_point(self):
        # lone cell, repulsive kernel: F(0) = 0 so nothing moves
        lam = GridMeasure(GridSpec(1, 0.1), [[4]], [10.0])
        new, rep = step(lam, repulsion_model(1), 0.01)
        assert density(new) == density(lam)
        assert rep.max_displacement == 0.0

    def test_exact_integer_shift_bitwise(self):
        h = 0.0625
        lam = GridMeasure(GridSpec(1, h), [[0], [1], [2]], [4.0, 8.0, 4.0])
        new, _ = step(lam, drift_model((1.0,)), h)  # displacement exactly h
        np.testing.assert_array_equal(new.indices, lam.indices + 1)
        np.testing.assert_array_equal(new.rho, lam.rho)

    def test_vanishing_heading_is_invariant_error(self):
        # the sector faces v_d(x) = -x, which vanishes at the origin cell
        model = VelocityModel(dim=2, n_agents=2, desired=CustomDesired(lambda x: -x, 1.0, 1.0),
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Sector(R, np.pi, B))
        lam = GridMeasure(GridSpec(2, 0.1), [[0, 0], [1, 0]], [50.0, 50.0])
        with pytest.raises(NumericalInvariantError, match="heading"):
            step(lam, model, 0.01)

    @pytest.mark.parametrize("model, spec, n_atoms, dt", [
        (repulsion_model(40), GridSpec(1, 0.01), 40, 0.002),
        (repulsion_model(40, dim=2), GridSpec(2, 0.02), 40, 0.004),
        (drift_model((0.3, -0.7, 1.1)), GridSpec(3, 0.05), 30, 0.013),
    ])
    def test_matches_cellwise_overlap_accumulation(self, model, spec, n_atoms, dt):
        # reference: push every cell through overlap_fractions on its own
        # and accumulate the target densities in a dict
        rng = np.random.default_rng(5)
        lam = project_atomic(AtomicMeasure(rng.uniform(size=(n_atoms, spec.dim)) * 0.3),
                             spec)
        V = eval_grid_many(model, lam, lam.centers())
        expected, n_contribs = {}, 0
        for j, rho_j, v in zip(lam.indices.tolist(), lam.rho, V):
            pairs = overlap_pairs(spec, j, v * dt)
            n_contribs += len(pairs)
            for target, f in pairs:
                expected[target] = expected.get(target, 0.0) + rho_j * f
        assert n_contribs > len(expected)  # some targets collide
        got = density(step(lam, model, dt)[0])
        assert got.keys() == expected.keys()
        np.testing.assert_allclose([got[i] for i in expected], list(expected.values()),
                                   rtol=1e-14, atol=0)

    def test_report_fields(self):
        lam = GridMeasure(GridSpec(1, 0.1), [[0]], [10.0])
        _, rep = step(lam, drift_model((1.0,)), 0.05)
        assert rep.cfl_alpha == pytest.approx(0.5)
        assert rep.max_displacement == pytest.approx(0.05)
        assert rep.occupied_cells == 2


class TestRun:
    def test_trajectory_shape(self):
        lam = GridMeasure(GridSpec(1, 0.1), [[0]], [10.0])
        steps = list(run(lam, drift_model((1.0,)), T=0.5, dt=0.05))
        assert len(steps) == 10
        assert step_count(0.5, 0.05) * 0.05 == pytest.approx(0.5)

    def test_mass_conserved_along_run(self):
        rng = np.random.default_rng(8)
        lam = project_atomic(AtomicMeasure(rng.uniform(size=(5, 1))), GridSpec(1, 0.02))
        assert all(rep.mass_error <= 1e-10
                   for _, rep in run(lam, repulsion_model(5), T=0.05, dt=0.005))

    def test_first_moment_growth_bound(self):
        rng = np.random.default_rng(21)
        h, dt = 0.01, 0.005
        lam0 = project_atomic(AtomicMeasure(rng.uniform(size=(10, 1))), GridSpec(1, h))
        model = repulsion_model(10)
        frames = [lam0] + [lam for lam, _ in run(lam0, model, T=0.05, dt=dt)]
        V = velocity_bound(model)
        beta = h / dt
        m0 = moment(lam0, 1)
        for n, lam in enumerate(frames):
            assert moment(lam, 1) <= m0 + (V + 2 * beta) * n * dt + h + 1e-12

    def test_support_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(scheme, "DEFAULT_MAX_OCCUPIED", 1)
        lam = GridMeasure(GridSpec(1, 0.01), [[0]], [100.0])
        with pytest.raises(NumericalInvariantError, match="support"):
            list(run(lam, drift_model((0.5,)), T=0.1, dt=0.003))

    def test_step_count_cap(self, monkeypatch):
        # a horizon of about 1e302 steps is refused before any step runs
        with pytest.raises(ValueError, match="exceed the cap"):
            step_count(1e300, 0.005)
        monkeypatch.setattr(scheme, "DEFAULT_MAX_STEPS", 20)
        assert step_count(0.1, 0.005) == 20
        with pytest.raises(ValueError, match="T/dt = 21 steps exceed the cap 20"):
            step_count(0.105, 0.005)

    def test_nonpositive_inputs_rejected(self):
        lam = GridMeasure(GridSpec(1, 0.1), [[0]], [10.0])
        with pytest.raises(ValueError):
            next(run(lam, drift_model((1.0,)), T=0.0, dt=0.1))
        with pytest.raises(ValueError):
            next(run(lam, drift_model((1.0,)), T=0.1, dt=-0.1))
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError, match="dt must be positive"):
                step(lam, drift_model((1.0,)), dt)


class TestSampleAt:
    def setup_method(self):
        lam = GridMeasure(GridSpec(1, 0.1), [[0]], [10.0])
        self.frames = [lam] + [f for f, _ in run(lam, drift_model((1.0,)), T=0.2, dt=0.1)]

    def sample(self, n, t, dt=0.1):
        # the weight of frame n + 1 at time t, as the level loop computes it
        theta = min(max((t - n * dt) / dt, 0.0), 1.0)
        return sample_at(self.frames[n], self.frames[n + 1], theta)

    def test_endpoints(self):
        # a sample at a frame's time holds that frame's bits: the other frame,
        # of weight 0, adds only zero densities, which are dropped
        for n, t, frame in ((0, 0.0, self.frames[0]), (1, 0.2, self.frames[2])):
            lam = self.sample(n, t)
            assert lam.indices.tobytes() == frame.indices.tobytes()
            assert lam.rho.tobytes() == frame.rho.tobytes()

    def test_frame_times_exact(self):
        assert density(self.sample(1, 0.1)) == density(self.frames[1])

    def test_midpoint_interpolates_mass(self):
        lam = self.sample(0, 0.05)
        assert abs(total_mass(lam) - 1.0) <= 1e-12
        d0 = density(self.frames[0])
        d1 = density(self.frames[1])
        for idx, val in density(lam).items():
            assert val == pytest.approx(0.5 * d0.get(idx, 0.0) + 0.5 * d1.get(idx, 0.0))

    def test_out_of_range(self):
        # a weight outside [0, 1] makes one frame's densities negative
        for theta in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match="densities must be finite and nonnegative"):
                sample_at(self.frames[0], self.frames[1], theta)

    @given(st.data(), st.floats(1e-3, 20.0), st.integers(0, 2), st.sampled_from([-1, 0, 1]))
    @settings(max_examples=300, deadline=None)
    def test_accepts_the_frame_the_level_loop_picks(self, data, dt, extra, side):
        # a level of n_steps steps reads sample time t at t' = min(t, n_steps dt)
        # between frames n and n + 1, n = min(int(t'/dt), n_steps - 1). At
        # t = k dt, or one ulp to either side, t'/dt may round up to k while
        # k dt lies above t', by about 1e-16 relative to t: clamping the weight
        # to [0, 1] then moves the sample by no more than 1e-12 relative to t'
        k = data.draw(st.integers(1, int(1e7 / dt)))
        t = k * dt if side == 0 else float(np.nextafter(k * dt, side * math.inf))
        n_steps = k + extra
        t_grid = min(t, n_steps * dt)
        n = min(int(t_grid / dt), n_steps - 1)
        raw = (t_grid - n * dt) / dt
        theta = min(max(raw, 0.0), 1.0)
        assert abs(raw - theta) * dt <= 1e-12 * max(1.0, abs(t_grid))
        lam = self.frames[0]
        assert abs(total_mass(sample_at(lam, lam, theta)) - 1.0) <= 1e-12
