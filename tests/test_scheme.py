import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdflow import (AtomicMeasure, Ball, CaseStudyRepulsion, ConstantDesired,
                       CustomDesired, CustomKernel, GridMeasure, GridSpec,
                       NumericalInvariantError, Sector, VelocityModel, ZeroDesired,
                       box_overlap_fractions, cfl_ratio, mesh_schedule, moment,
                       project_atomic, run, sample_at, step, total_mass,
                       velocity_bound)

A, EPS, R, B = 0.01, 0.025, 0.1, 0.02

# frozen schedule values for v_ref=4, delta=0.9
DT_K100 = 0.0045514105075652005
DT_K1000 = 0.0005729886347480819
ALPHA_K100 = 1.8205642030260802


def repulsion_model(n_agents, dim=1):
    return VelocityModel(dim=dim, n_agents=n_agents, desired=ZeroDesired(),
                         kernel=CaseStudyRepulsion(A, EPS),
                         neighborhood=Ball(R, B))


def drift_model(c):
    c = tuple(c)
    return VelocityModel(dim=len(c), n_agents=1, desired=ConstantDesired(c),
                         kernel=CustomKernel(lambda z: np.zeros_like(z), 0.0, 0.0),
                         neighborhood=Ball(R, B))


class TestSchedule:
    def test_frozen_case_study_levels(self):
        ms = mesh_schedule(4.0, 0.9, [100, 1000])
        (k1, h1, dt1), (k2, h2, dt2) = ms.levels
        assert (k1, k2) == (100, 1000)
        assert h1 == pytest.approx(0.01, abs=1e-18)
        assert dt1 == pytest.approx(DT_K100, abs=1e-18)
        assert dt2 == pytest.approx(DT_K1000, abs=1e-18)

    def test_time_step_dominates_cell_width(self):
        # h = o(dt): the displacement in cell units grows under refinement
        ms = mesh_schedule(4.0, 0.9, [10, 100, 1000])
        betas = [h / dt for _, h, dt in ms.levels]
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
        out = box_overlap_fractions(GridSpec(2, 0.5), (3, -1), (0.0, 0.0))
        assert out == [((3, -1), 1.0)]

    def test_half_cell_shift_splits_evenly(self):
        out = dict(box_overlap_fractions(GridSpec(1, 0.5), (0,), (0.25,)))
        assert out == {(0,): 0.5, (1,): 0.5}

    def test_full_cell_shift_is_exact(self):
        out = box_overlap_fractions(GridSpec(1, 0.25), (2,), (0.25,))
        assert out == [((3,), 1.0)]

    def test_2d_product_structure(self):
        out = dict(box_overlap_fractions(GridSpec(2, 1.0), (0, 0), (0.25, 0.5)))
        assert out[(0, 0)] == pytest.approx(0.75 * 0.5)
        assert out[(1, 1)] == pytest.approx(0.25 * 0.5)

    @given(st.integers(1, 3), st.floats(0.01, 2.0),
           st.lists(st.integers(-50, 50), min_size=3, max_size=3),
           st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_partition_of_unity(self, dim, h, j, w):
        out = box_overlap_fractions(GridSpec(dim, h), tuple(j[:dim]), w[:dim])
        fr = [f for _, f in out]
        assert all(f >= 0 for f in fr)
        assert abs(sum(fr) - 1.0) <= 1e-14


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
        assert new.density == lam.density
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

    def test_report_fields(self):
        lam = GridMeasure(GridSpec(1, 0.1), [[0]], [10.0])
        _, rep = step(lam, drift_model((1.0,)), 0.05)
        assert rep.cfl_alpha == pytest.approx(0.5)
        assert rep.max_displacement == pytest.approx(0.05)
        assert rep.occupied_cells == 2


class TestRun:
    def test_trajectory_shape(self):
        lam = GridMeasure(GridSpec(1, 0.1), [[0]], [10.0])
        traj = run(lam, drift_model((1.0,)), T=0.5, dt=0.05)
        assert len(traj.frames) == 11
        assert len(traj.reports) == 10
        assert traj.duration == pytest.approx(0.5)

    def test_mass_conserved_along_run(self):
        rng = np.random.default_rng(8)
        lam = project_atomic(AtomicMeasure(rng.uniform(size=(5, 1))), GridSpec(1, 0.02))
        traj = run(lam, repulsion_model(5), T=0.05, dt=0.005)
        assert all(rep.mass_error <= 1e-10 for rep in traj.reports)

    def test_first_moment_growth_bound(self):
        rng = np.random.default_rng(21)
        h, dt = 0.01, 0.005
        lam0 = project_atomic(AtomicMeasure(rng.uniform(size=(10, 1))), GridSpec(1, h))
        model = repulsion_model(10)
        traj = run(lam0, model, T=0.05, dt=dt)
        V = velocity_bound(model)
        beta = h / dt
        m0 = moment(lam0, 1)
        for n, lam in enumerate(traj.frames):
            assert moment(lam, 1) <= m0 + (V + 2 * beta) * n * dt + h + 1e-12

    def test_support_cap_triggers(self):
        lam = GridMeasure(GridSpec(1, 0.01), [[0]], [100.0])
        with pytest.raises(NumericalInvariantError, match="support"):
            run(lam, drift_model((0.5,)), T=0.1, dt=0.003, max_occupied=1)

    def test_nonpositive_inputs_rejected(self):
        lam = GridMeasure(GridSpec(1, 0.1), [[0]], [10.0])
        with pytest.raises(ValueError):
            run(lam, drift_model((1.0,)), T=0.0, dt=0.1)
        with pytest.raises(ValueError):
            run(lam, drift_model((1.0,)), T=0.1, dt=-0.1)


class TestSampleAt:
    def setup_method(self):
        lam = GridMeasure(GridSpec(1, 0.1), [[0]], [10.0])
        self.traj = run(lam, drift_model((1.0,)), T=0.2, dt=0.1)

    def test_endpoints(self):
        assert sample_at(self.traj, 0.0).density == self.traj.frames[0].density
        assert sample_at(self.traj, 0.2).density == self.traj.frames[-1].density

    def test_frame_times_exact(self):
        assert sample_at(self.traj, 0.1).density == self.traj.frames[1].density

    def test_midpoint_interpolates_mass(self):
        lam = sample_at(self.traj, 0.05)
        assert abs(total_mass(lam) - 1.0) <= 1e-12
        d0 = self.traj.frames[0].density
        d1 = self.traj.frames[1].density
        for idx, val in lam.density.items():
            assert val == pytest.approx(0.5 * d0.get(idx, 0.0) + 0.5 * d1.get(idx, 0.0))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sample_at(self.traj, -0.01)
        with pytest.raises(ValueError):
            sample_at(self.traj, 0.21)
