import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdflow import (AtomicMeasure, Ball, CaseStudyRepulsion, ConstantDesired,
                       CustomKernel, FixedAxis, FromDesired, GridMeasure,
                       GridSpec, PrototypeAttraction, Rotation2, Sector,
                       VelocityModel, ZeroDesired, cutoff, cutoff_at,
                       eval_atomic, eval_grid, kernel_F, lipschitz_constants,
                       rotation_at, velocity_bound)
from crowdflow import velocity
from crowdflow.velocity import (CustomDesired, _interaction_sum,
                                _lattice_interaction, eval_atomic_many,
                                eval_grid_many)

A, EPS, R, B = 0.01, 0.025, 0.1, 0.02

EXP_M1_150 = 0.9933555062550344  # exp(-1/150), cutoff at |z| = 0.05
TWO_ATOM_VEL = -0.1986711012510069  # -0.2 * exp(-1/150)


def ball_model(n_agents=2, dim=1):
    return VelocityModel(dim=dim, n_agents=n_agents, desired=ZeroDesired(),
                         kernel=CaseStudyRepulsion(A, EPS),
                         neighborhood=Ball(R, B))


class TestKernels:
    def test_repulsion_outside_mollification(self):
        # |z| = 0.05 > eps: F = -a z / |z|^2
        np.testing.assert_allclose(kernel_F(CaseStudyRepulsion(A, EPS), [0.05]),
                                   [-0.2], atol=1e-15)

    def test_repulsion_inside_mollification(self):
        # |z| < eps: F = -a z / eps^2, linear through the origin
        k = CaseStudyRepulsion(A, EPS)
        np.testing.assert_allclose(kernel_F(k, [0.01]), [-0.01 * A / EPS ** 2],
                                   atol=1e-18)
        np.testing.assert_allclose(kernel_F(k, [0.0]), [0.0])

    def test_repulsion_bound_attained_at_eps(self):
        k = CaseStudyRepulsion(A, EPS)
        assert k.fmax == pytest.approx(0.4)
        assert np.linalg.norm(kernel_F(k, [EPS])) == pytest.approx(k.fmax)
        assert k.lip == pytest.approx(16.0)

    def test_repulsion_points_away_from_source(self):
        # F(z) carries -z direction: force at x from mass at x + z pushes to -z
        out = kernel_F(CaseStudyRepulsion(A, EPS), [[0.03, 0.04]])
        assert out[0] @ np.array([0.03, 0.04]) < 0

    def test_attraction_is_identity(self):
        np.testing.assert_array_equal(kernel_F(PrototypeAttraction(0.5), [[0.1, -0.2]]),
                                      [[0.1, -0.2]])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CaseStudyRepulsion(0.0, EPS)
        with pytest.raises(ValueError):
            CaseStudyRepulsion(A, -1.0)
        with pytest.raises(ValueError):
            PrototypeAttraction(0.0)


class TestCutoffs:
    def test_ball_center_and_boundary(self):
        nb = Ball(R, B)
        assert cutoff(nb, [0.0]) == pytest.approx(1.0)
        assert cutoff(nb, [R]) == 0.0
        assert cutoff(nb, [2 * R]) == 0.0

    def test_ball_frozen_value(self):
        assert cutoff(Ball(R, B), [0.05]) == pytest.approx(EXP_M1_150, abs=1e-15)

    def test_ball_monotone_decreasing(self):
        nb = Ball(R, B)
        s = np.linspace(0, R, 200)[:, None]
        vals = cutoff(nb, s)
        assert np.all(np.diff(vals) <= 0)

    def test_ball_lipschitz_dominates_slopes(self):
        nb = Ball(R, B)
        L = nb.cutoff_lipschitz()
        s = np.linspace(0, R * 0.999999, 2000)[:, None]
        vals = cutoff(nb, s)
        quot = np.abs(np.diff(vals)) / np.diff(s[:, 0])
        assert np.max(quot) <= L * (1 + 1e-6)

    def test_sector_on_axis_matches_radial(self):
        sec = Sector(R, math.pi / 2, B)
        nb = Ball(R, B)
        z = np.array([0.05, 0.0])
        assert cutoff(sec, z) == pytest.approx(float(cutoff(nb, [0.05])), abs=1e-15)

    def test_sector_vanishes_off_sector(self):
        sec = Sector(R, math.pi / 2, B)
        assert cutoff(sec, np.array([0.0, 0.05])) == 0.0  # 90 deg off axis
        assert cutoff(sec, np.array([-0.05, 0.0])) == 0.0  # behind

    def test_sector_alpha_range(self):
        with pytest.raises(ValueError):
            Sector(R, 0.0, B)
        with pytest.raises(ValueError):
            Sector(R, 2 * math.pi + 0.1, B)


class TestRotation:
    def test_unit_invariant(self):
        with pytest.raises(ValueError):
            Rotation2(1.0, 1.0)

    def test_roundtrip(self):
        rot = Rotation2(math.cos(0.7), math.sin(0.7))
        z = np.array([0.3, -1.2])
        np.testing.assert_allclose(rot.inverse_apply(rot.apply(z)), z, atol=1e-15)

    def test_preserves_norm(self):
        rot = Rotation2(0.6, 0.8)
        z = np.array([2.0, -1.0])
        assert np.linalg.norm(rot.apply(z)) == pytest.approx(np.linalg.norm(z))

    def test_alignment_with_heading(self):
        # rotation maps the +x reference axis onto the heading direction
        model = VelocityModel(dim=2, n_agents=1, desired=ConstantDesired((0.0, 2.0)),
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Sector(R, math.pi / 2, B))
        rot = rotation_at(model, [0.0, 0.0])
        np.testing.assert_allclose(rot.apply(np.array([1.0, 0.0])), [0.0, 1.0],
                                   atol=1e-15)

    def test_fixed_axis_heading(self):
        model = VelocityModel(dim=2, n_agents=1, desired=ZeroDesired(),
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Sector(R, math.pi / 2, B),
                              heading=FixedAxis((0.0, 1.0)))
        rot = rotation_at(model, [3.0, -1.0])
        assert (rot.cos_t, rot.sin_t) == (0.0, 1.0)

    def test_fixed_axis_must_be_unit(self):
        with pytest.raises(ValueError):
            FixedAxis((1.0, 1.0))

    def test_sector_cutoff_rotates_with_heading(self):
        # with heading +y, a point straight above x is inside the sector
        model = VelocityModel(dim=2, n_agents=1, desired=ZeroDesired(),
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Sector(R, math.pi / 2, B),
                              heading=FixedAxis((0.0, 1.0)))
        x = np.array([0.0, 0.0])
        assert cutoff_at(model, x, [0.0, 0.05]) > 0.9
        assert cutoff_at(model, x, [0.05, 0.0]) == 0.0


class TestModelValidation:
    def test_sector_needs_orientation(self):
        with pytest.raises(ValueError, match="vanishing desired"):
            VelocityModel(dim=2, n_agents=1, desired=ZeroDesired(),
                          kernel=CaseStudyRepulsion(A, EPS),
                          neighborhood=Sector(R, math.pi / 2, B))

    def test_sector_2d_only(self):
        with pytest.raises(ValueError, match="2D"):
            VelocityModel(dim=3, n_agents=1, desired=ConstantDesired((1.0, 0.0, 0.0)),
                          kernel=CaseStudyRepulsion(A, EPS),
                          neighborhood=Sector(R, math.pi / 2, B))

    def test_custom_kernel_self_force_warns(self):
        with pytest.warns(UserWarning, match="lone agent"):
            VelocityModel(dim=1, n_agents=1, desired=ZeroDesired(),
                          kernel=CustomKernel(lambda z: np.ones_like(z), 1.0, 0.0),
                          neighborhood=Ball(R, B))


class TestEvaluation:
    def test_lone_agent_is_stationary(self):
        model = ball_model(n_agents=1)
        mu = AtomicMeasure([[0.4]])
        np.testing.assert_array_equal(eval_atomic(model, mu, [0.4]), [0.0])

    def test_two_atom_frozen_value(self):
        model = ball_model(n_agents=2)
        mu = AtomicMeasure([[0.0], [0.05]], [0.5, 0.5])
        v = eval_atomic(model, mu, [0.0])
        assert v[0] == pytest.approx(TWO_ATOM_VEL, abs=1e-15)

    def test_out_of_range_mass_is_invisible(self):
        model = ball_model(n_agents=2)
        near = AtomicMeasure([[0.0], [0.05]], [0.5, 0.5])
        far = AtomicMeasure([[0.0], [5.0]], [0.5, 0.5])
        v_far = eval_atomic(model, far, [0.0])
        assert v_far[0] == 0.0
        assert eval_atomic(model, near, [0.0])[0] != 0.0

    def test_desired_velocity_added(self):
        model = VelocityModel(dim=2, n_agents=1, desired=ConstantDesired((1.0, -0.5)),
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Ball(R, B))
        mu = AtomicMeasure([[10.0, 10.0]])
        np.testing.assert_allclose(eval_atomic(model, mu, [0.0, 0.0]), [1.0, -0.5])

    def test_grid_matches_atomic_on_cell_centers(self):
        model = ball_model(n_agents=3)
        spec = GridSpec(1, 0.02)
        lam = GridMeasure(spec, [[0], [1], [3]], [25.0, 12.5, 12.5])
        mu = AtomicMeasure([[0.0], [0.02], [0.06]], [0.5, 0.25, 0.25])
        x = [0.01]
        np.testing.assert_allclose(eval_grid(model, lam, x),
                                   eval_atomic(model, mu, x), atol=1e-15)

    def test_convex_linearity_in_measure(self):
        model = ball_model(n_agents=4)
        rng = np.random.default_rng(2)
        mu = AtomicMeasure(rng.uniform(size=(4, 1)))
        nu = AtomicMeasure(rng.uniform(size=(4, 1)))
        alpha = 0.3
        mix = AtomicMeasure(np.vstack([mu.positions, nu.positions]),
                            np.concatenate([alpha * mu.weights,
                                            (1 - alpha) * nu.weights]))
        x = [0.5]
        lhs = eval_atomic(model, mix, x)
        rhs = alpha * eval_atomic(model, mu, x) + (1 - alpha) * eval_atomic(model, nu, x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_many_matches_single(self):
        model = ball_model(n_agents=3)
        rng = np.random.default_rng(9)
        mu = AtomicMeasure(rng.uniform(size=(3, 1)))
        X = rng.uniform(size=(7, 1))
        many = eval_atomic_many(model, mu, X)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(many[i], eval_atomic(model, mu, x))


class TestBounds:
    def test_velocity_bound_frozen(self):
        assert velocity_bound(ball_model(n_agents=2)) == pytest.approx(0.8)
        assert velocity_bound(ball_model(n_agents=10)) == pytest.approx(4.0)

    def test_bound_with_desired(self):
        model = VelocityModel(dim=1, n_agents=2, desired=ConstantDesired((3.0,)),
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Ball(R, B))
        assert velocity_bound(model) == pytest.approx(3.8)

    def test_bound_dominates_samples(self):
        model = ball_model(n_agents=10)
        rng = np.random.default_rng(4)
        mu = AtomicMeasure(rng.uniform(size=(10, 1)))
        X = rng.uniform(-0.5, 1.5, size=(500, 1))
        V = velocity_bound(model)
        assert np.max(np.abs(eval_atomic_many(model, mu, X))) <= V

    def test_lipschitz_constants_structure(self):
        model = ball_model(n_agents=2)
        consts = lipschitz_constants(model)
        assert consts["space"] == pytest.approx(consts["measure"])  # lip(v_d) = 0
        assert consts["measure"] == pytest.approx(
            2 * (0.4 * Ball(R, B).cutoff_lipschitz() + 16.0))

    def test_lipschitz_constants_include_desired(self):
        vd = CustomDesired(lambda x: np.sin(x), 1.0, 1.0)
        model = VelocityModel(dim=1, n_agents=2, desired=vd,
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Ball(R, B))
        consts = lipschitz_constants(model)
        assert consts["space"] == pytest.approx(consts["measure"] + 1.0)

    def test_sector_constants_not_implemented(self):
        model = VelocityModel(dim=2, n_agents=1, desired=ConstantDesired((1.0, 0.0)),
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Sector(R, math.pi / 2, B))
        with pytest.raises(NotImplementedError):
            lipschitz_constants(model)


# ---------------------------------------------------------------------------
# lattice correlation against the pair sum

def lattice_models(dim, theta):
    """Every translation-invariant model family the lattice path serves."""
    heading = (math.cos(theta), math.sin(theta))
    kern = CaseStudyRepulsion(A, EPS)
    models = {
        "ball": VelocityModel(dim=dim, n_agents=7, desired=ZeroDesired(),
                              kernel=kern, neighborhood=Ball(R, B)),
        "custom_kernel": VelocityModel(
            dim=dim, n_agents=3, desired=ZeroDesired(),
            kernel=CustomKernel(lambda z: np.sin(20.0 * z) * np.cos(z[::-1]), 1.0, 20.0),
            neighborhood=Ball(R, B)),
    }
    if dim == 2:
        models["sector_constant"] = VelocityModel(
            dim=2, n_agents=5, desired=ConstantDesired(heading),
            kernel=kern, neighborhood=Sector(R, 2.0, B))
        models["sector_fixed_axis"] = VelocityModel(
            dim=2, n_agents=5, desired=ZeroDesired(), kernel=kern,
            neighborhood=Sector(R, math.pi, B), heading=FixedAxis(heading))
    return models


def query_box(lam, r):
    """Every lattice point within r + 2 cells of the support's bounding box,
    so queries outside the correlation's extent are included."""
    lo = lam.indices.min(axis=0) - r - 2
    hi = lam.indices.max(axis=0) + r + 2
    axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lam.spec.dim)
    return grid * lam.spec.cell_width


class TestLatticeCorrelation:
    @given(st.integers(1, 2), st.sampled_from([0.02, 0.025, 0.05, 0.03]),
           st.floats(0.0, 2 * math.pi),
           st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12),
                              st.floats(0.01, 10.0)), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_sum(self, dim, h, theta, cells):
        idx = np.array([c[:dim] for c in cells])
        lam = GridMeasure(GridSpec(dim, h), idx, [c[2] for c in cells])
        X = np.vstack([lam.centers(), query_box(lam, math.ceil(R / h))])
        for name, model in lattice_models(dim, theta).items():
            got = _lattice_interaction(model, lam, X)
            assert got is not None, name
            ref = _interaction_sum(model, lam.centers(), lam.cell_masses(), X)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale, name

    def test_isolated_cells_get_exact_zero(self):
        # cells out of each other's range interact with nothing: the pair sum
        # gives exactly 0 there, and so must the correlation, or stationary
        # mass would leak into neighbor cells at rounding level
        lam = GridMeasure(GridSpec(1, 0.01), [[0], [3], [40], [90]], [25.0] * 4)
        model = ball_model(n_agents=4)
        X = np.vstack([lam.centers(), query_box(lam, 11)])
        got = _lattice_interaction(model, lam, X)
        assert got is not None
        assert np.all(got[2:4] == 0.0)
        assert np.all(got[:2] != 0.0)
        np.testing.assert_array_equal(eval_grid_many(model, lam, X)[2:4], 0.0)

    def test_zero_component_stays_exact(self):
        # cells on one row: every y-offset is 0, so the pair sum's y-component
        # is exactly 0 at the cells, and the correlation's must be too
        lam = GridMeasure(GridSpec(2, 0.02), [[i, 0] for i in range(0, 12, 2)], [2500 / 6] * 6)
        X = np.vstack([lam.centers(), query_box(lam, 5)])
        got = _lattice_interaction(ball_model(n_agents=4, dim=2), lam, X)
        assert got is not None
        assert np.all(got[:6, 0] != 0.0)
        np.testing.assert_array_equal(got[:6, 1], 0.0)

    def test_off_lattice_queries_fall_back(self):
        lam = GridMeasure(GridSpec(1, 0.01), [[i] for i in range(30)], [1 / 0.3] * 30)
        model = ball_model(n_agents=4)
        X = lam.centers() + 0.003
        assert _lattice_interaction(model, lam, X) is None
        np.testing.assert_array_equal(
            eval_grid_many(model, lam, X),
            _interaction_sum(model, lam.centers(), lam.cell_masses(), X))

    def test_position_dependent_heading_falls_back(self):
        lam = GridMeasure(GridSpec(2, 0.02), [[i, j] for i in range(8) for j in range(8)],
                          [2500 / 64] * 64)
        model = VelocityModel(
            dim=2, n_agents=3, desired=CustomDesired(lambda x: np.array([1.0, x[0]]), 2.0, 1.0),
            kernel=CaseStudyRepulsion(A, EPS), neighborhood=Sector(R, math.pi, B))
        X = lam.centers()
        assert _lattice_interaction(model, lam, X) is None
        np.testing.assert_array_equal(
            eval_grid_many(model, lam, X),
            model.desired(X) + _interaction_sum(model, X, lam.cell_masses(), X))

    def test_far_spread_support_falls_back(self):
        # two cells 10^7 apart: the dense box would dwarf the 4 pairs
        lam = GridMeasure(GridSpec(1, 0.01), [[0], [10 ** 7]], [50.0, 50.0])
        model = ball_model(n_agents=2)
        X = lam.centers()
        assert _lattice_interaction(model, lam, X) is None
        np.testing.assert_array_equal(eval_grid_many(model, lam, X), np.zeros((2, 1)))

    def test_memory_ceiling_falls_back(self, monkeypatch):
        lam = GridMeasure(GridSpec(1, 0.01), [[i] for i in range(30)], [1 / 0.3] * 30)
        model = ball_model(n_agents=4)
        assert _lattice_interaction(model, lam, lam.centers()) is not None
        monkeypatch.setattr(velocity, "_LATTICE_MAX_CELLS", 32)
        assert _lattice_interaction(model, lam, lam.centers()) is None
