import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crowdflow import (AtomicMeasure, Ball, CaseStudyRepulsion, ConstantDesired,
                       CustomKernel, FixedAxis, FromDesired, GridMeasure,
                       GridSpec, PrototypeAttraction, Rotation2, Sector,
                       VelocityModel, ZeroDesired, cutoff_at, eval_atomic_many,
                       eval_grid_many, kernel_F, lipschitz_constants,
                       rotation_at, velocity_bound)
from crowdflow import velocity, wasserstein
from crowdflow.config import build_model, case_study_path
from crowdflow.grids import sq_norm
from crowdflow.velocity import (CustomDesired, _bump, _headings, _interaction_sum,
                                _lattice_interaction)

A, EPS, R, B = 0.01, 0.025, 0.1, 0.02

EXP_M1_150 = 0.9933555062550344  # exp(-1/150), cutoff at |z| = 0.05
TWO_ATOM_VEL = -0.1986711012510069  # -0.2 * exp(-1/150)


def ball_model(n_agents=2, dim=1):
    return VelocityModel(dim=dim, n_agents=n_agents, desired=ZeroDesired(),
                         kernel=CaseStudyRepulsion(A, EPS),
                         neighborhood=Ball(R, B))


def pair_sum(form, model, Y, w, X, chunk=velocity._EVAL_CHUNK):
    """_interaction_sum forced into its dense block form or its windowed form."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(velocity, "_DENSE_MAX_PAIRS", {"dense": math.inf, "windowed": 0}[form])
        mp.setattr(velocity, "_EVAL_CHUNK", chunk)
        return _interaction_sum(model, np.asarray(Y, float), np.asarray(w, float),
                                np.asarray(X, float))


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
        # eps^2 must be a positive finite float: the field divides by it
        for eps in (-1.0, 1e300, 1e-170):
            with pytest.raises(ValueError):
                CaseStudyRepulsion(A, eps)
        with pytest.raises(ValueError):
            PrototypeAttraction(0.0)


def radial_bump_compress(s2, radius, b):
    """The compress/scatter form of the radial bump, kept as its reference."""
    r2 = radius * radius
    inside = s2 < r2
    out = np.zeros_like(s2, dtype=float)
    s2_in = s2[inside]
    out[inside] = np.exp(-b * s2_in / (r2 - s2_in))
    return out


def sector_cutoff_compress(sector, z):
    """Sector.cutoff with both bumps in compress/scatter form, kept as its reference."""
    z = np.asarray(z, dtype=float)
    s2 = np.sum(z * z, axis=-1)
    radial = radial_bump_compress(s2, sector.radius, sector.cutoff_b)
    s = np.sqrt(s2)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosphi = np.where(s > 0, z[..., 0] / np.where(s > 0, s, 1.0), 1.0)
        phi = np.arccos(np.clip(cosphi, -1.0, 1.0))
        half = sector.alpha / 2.0
        angular = np.zeros_like(phi)
        ins = phi < half
        angular[ins] = np.exp(-sector.cutoff_b * phi[ins] ** 2 / (half * half - phi[ins] ** 2))
    angular = np.where(s == 0, 1.0, angular)
    return radial * angular


# The forms that summed |z|^2 with np.sum(z * z, axis=-1) or took
# np.linalg.norm(z, axis=-1), kept as the references for sq_norm's callers.

def ball_cutoff_sum_form(ball, z):
    z = np.asarray(z, dtype=float)
    return _bump(np.sum(z * z, axis=-1), ball.radius, ball.cutoff_b)


def sector_cutoff_sum_form(sector, z):
    z = np.asarray(z, dtype=float)
    s2 = np.sum(z * z, axis=-1)
    radial = _bump(s2, sector.radius, sector.cutoff_b)
    s = np.sqrt(s2)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosphi = np.where(s > 0, z[..., 0] / np.where(s > 0, s, 1.0), 1.0)
    phi = np.arccos(np.clip(cosphi, -1.0, 1.0))
    half = sector.alpha / 2.0
    phi2 = phi ** 2
    with np.errstate(all="ignore"):
        expo = -sector.cutoff_b * phi2 / (half * half - phi2)
    angular = np.exp(expo, out=np.zeros_like(expo), where=phi < half)
    angular = np.where(s == 0, 1.0, angular)
    return radial * angular


def repulsion_norm_form(kernel, z):
    z = np.asarray(z, dtype=float)
    r = np.linalg.norm(z, axis=-1, keepdims=True)
    m = np.maximum(r, kernel.eps)
    return -kernel.a * z / (m * m)


def cost_blocks_norm_form(xs, ys):
    step = max(1, wasserstein._BLOCK_PAIRS // len(ys))
    return [np.linalg.norm(xs[i:i + step, None, :] - ys[None, :, :], axis=2)
            for i in range(0, len(xs), step)]


# signed zeros, subnormals, and magnitudes whose squares underflow or overflow
_magnitude = (st.floats(0.0, 1.0) | st.floats(1e-160, 1e-140) | st.floats(1e140, 1e160)
              | st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-150, 1e150]))
_coord = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]), _magnitude)
_offsets = st.integers(1, 3).flatmap(
    lambda d: arrays(np.float64, st.tuples(st.integers(1, 12), st.just(d)), elements=_coord))


class TestSquaredNorm:
    @given(_offsets)
    @settings(max_examples=300, deadline=None)
    def test_callers_match_sum_and_norm_forms(self, z):
        with np.errstate(all="ignore"):  # squares that overflow are part of the input
            assert sq_norm(z).tobytes() == np.sum(z * z, axis=-1).tobytes()
            norm = np.linalg.norm(z, axis=-1)
            assert np.sqrt(sq_norm(z)).tobytes() == norm.tobytes()
            for b in (B, 50.0):
                ball = Ball(R, b)
                assert ball.cutoff(z).tobytes() == ball_cutoff_sum_form(ball, z).tobytes()
            kern = CaseStudyRepulsion(A, EPS)
            assert kern(z).tobytes() == repulsion_norm_form(kern, z).tobytes()
            got = wasserstein._cost_blocks(z, z[::-1])
            for (_, C), ref in zip(got, cost_blocks_norm_form(z, z[::-1]), strict=True):
                assert C.tobytes() == ref.tobytes()
            if z.shape[1] != 2:
                return
            for alpha in (2.0, math.pi, 2 * math.pi):
                sec = Sector(R, alpha, B)
                assert sec.cutoff(z).tobytes() == sector_cutoff_sum_form(sec, z).tobytes()
            model = VelocityModel(dim=2, n_agents=1, kernel=kern, neighborhood=Sector(R, 2.0, B),
                                  desired=CustomDesired(lambda x: x, 1.0, 1.0))
            if np.all(norm >= 1e-12):
                ref = z / np.linalg.norm(z, axis=-1, keepdims=True)
                assert _headings(model, z).tobytes() == ref.tobytes()
            else:
                with pytest.raises(velocity.VanishingHeadingError):
                    _headings(model, z)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_transport_lp_cost_matches_norm_form(self, d):
        rng = np.random.default_rng(d)
        xs, ys = rng.normal(size=(6, d)), rng.normal(size=(5, d))
        xs[0], xs[1, 0], ys[0] = -0.0, 5e-324, xs[2] + 1e-150
        a, b = np.full(6, 1 / 6), np.full(5, 1 / 5)
        pairs = np.arange(30)
        cost = wasserstein._restricted_lp(xs, a, ys, b, pairs)[2]
        i, j = np.divmod(pairs, 5)
        assert cost.tobytes() == np.linalg.norm(xs[i] - ys[j], axis=1).tobytes()


class TestCutoffs:
    def test_bumps_match_compress_scatter_form(self):
        rng = np.random.default_rng(4)
        r2 = R * R
        edges = [0.0, np.nextafter(r2, 0.0), r2, np.nextafter(r2, 1.0), 2 * r2, 1e300]
        s2 = np.concatenate([edges, rng.uniform(0.0, 2 * r2, 500)])
        for b in (B, 1e-15, 50.0):
            assert _bump(s2, R, b).tobytes() == radial_bump_compress(s2, R, b).tobytes()
        # (0, y) sits at phi = arccos(0) exactly: the angular bump's edge falls
        # on it, one ulp beyond it and one ulp short of it
        edge = np.arccos(0.0)
        z = np.vstack([[[0.0, 0.05], [0.0, -0.05], [0.05, 0.0], [-0.05, 0.0], [0.0, 0.0],
                        [R, 0.0], [0.0, R]],
                       rng.uniform(-1.5 * R, 1.5 * R, (500, 2))])
        for b in (B, 1e-15):
            for alpha in (2 * edge, 2 * np.nextafter(edge, 4.0), 2 * np.nextafter(edge, 0.0),
                          2.0, 2 * math.pi):
                sec = Sector(R, alpha, b)
                assert sec.cutoff(z).tobytes() == sector_cutoff_compress(sec, z).tobytes()
        # one ulp inside the edge the angular bump is evaluated: exp(-5.6) x radial
        assert Sector(R, 2 * np.nextafter(edge, 4.0), 1e-15).cutoff(z[0]) > 0.0
        assert Sector(R, 2 * edge, 1e-15).cutoff(z[0]) == 0.0

    def test_ball_center_and_boundary(self):
        nb = Ball(R, B)
        assert nb.cutoff([0.0]) == pytest.approx(1.0)
        assert nb.cutoff([R]) == 0.0
        assert nb.cutoff([2 * R]) == 0.0

    def test_ball_frozen_value(self):
        assert Ball(R, B).cutoff([0.05]) == pytest.approx(EXP_M1_150, abs=1e-15)

    def test_ball_monotone_decreasing(self):
        nb = Ball(R, B)
        s = np.linspace(0, R, 200)[:, None]
        vals = nb.cutoff(s)
        assert np.all(np.diff(vals) <= 0)

    def test_ball_lipschitz_dominates_slopes(self):
        nb = Ball(R, B)
        L = nb.cutoff_lipschitz()
        s = np.linspace(0, R * 0.999999, 2000)[:, None]
        vals = nb.cutoff(s)
        quot = np.abs(np.diff(vals)) / np.diff(s[:, 0])
        assert np.max(quot) <= L * (1 + 1e-6)

    @pytest.mark.parametrize("b", [1e-15, 1e-6, 0.02, 1.0, 10.0])
    def test_ball_lipschitz_is_the_steepest_slope(self, b):
        L = Ball(R, b).cutoff_lipschitz()

        def slope(w):
            # |d/ds| of the bump at s = R - w, with R^2 - s^2 = w (2R - w) taken
            # at full precision however close to R the peak sits (R - R b / 4)
            s, gap = R - w, w * (2 * R - w)
            return 2 * b * R * R * s / gap ** 2 * np.exp(-b * s * s / gap)

        w = R * np.logspace(-20, 0, 4001)[:-1]
        peak = 0.0
        for _ in range(4):  # refine the grid around its steepest point
            slopes = slope(w)
            j = int(np.argmax(slopes))
            peak = max(peak, slopes[j])
            w = np.linspace(w[max(j - 1, 0)], w[min(j + 1, w.size - 1)], 1001)
        assert peak <= L * (1 + 1e-12)
        assert peak >= L * (1 - 1e-10)

    def test_sector_on_axis_matches_radial(self):
        sec = Sector(R, math.pi / 2, B)
        nb = Ball(R, B)
        z = np.array([0.05, 0.0])
        assert sec.cutoff(z) == pytest.approx(float(nb.cutoff([0.05])), abs=1e-15)

    def test_sector_vanishes_off_sector(self):
        sec = Sector(R, math.pi / 2, B)
        assert sec.cutoff(np.array([0.0, 0.05])) == 0.0  # 90 deg off axis
        assert sec.cutoff(np.array([-0.05, 0.0])) == 0.0  # behind

    def test_sector_alpha_range(self):
        with pytest.raises(ValueError):
            Sector(R, 0.0, B)
        with pytest.raises(ValueError):
            Sector(R, 2 * math.pi + 0.1, B)


# coordinates in [-1, 1] that are 0 or at least 1e-100 in size, so that no
# offset between two of them has a squared length below the normal range
NOT_TINY = st.floats(-1.0, 1.0).filter(lambda v: v == 0 or abs(v) >= 1e-100)


class TestRotation:
    def test_unit_invariant(self):
        with pytest.raises(ValueError):
            Rotation2(1.0, 1.0)
        with pytest.raises(ValueError):
            Rotation2(np.array([1.0, 0.6]), np.array([0.0, 0.6]))

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

    def test_rows_match_single_points(self):
        model = VelocityModel(
            dim=2, n_agents=1, kernel=CaseStudyRepulsion(A, EPS),
            desired=CustomDesired(lambda x: np.stack([np.cos(3 * x[..., 0]),
                                                      np.sin(3 * x[..., 0]) + x[..., 1]], axis=-1),
                                  2.0, 4.0),
            neighborhood=Sector(R, math.pi / 2, B))
        X = np.random.default_rng(8).uniform(-1, 1, size=(20, 2))
        rows = rotation_at(model, X)
        assert rows.cos_t.shape == rows.sin_t.shape == (20,)
        for i, x in enumerate(X):
            one = rotation_at(model, x)
            assert (rows.cos_t[i], rows.sin_t[i]) == (one.cos_t, one.sin_t)

    def test_pair_sum_rotates_by_rotation_at(self):
        # the scheme's sector cutoff is cutoff_at's: N sum_j w_j F(y_j - x) sigma_{U_x}(y_j)
        model = VelocityModel(
            dim=2, n_agents=4, kernel=CaseStudyRepulsion(A, EPS),
            desired=CustomDesired(lambda x: np.stack([1.0 + x[..., 1], -x[..., 0]], axis=-1),
                                  3.0, 1.0),
            neighborhood=Sector(R, math.pi, B))
        rng = np.random.default_rng(10)
        Y, w = rng.uniform(0, 0.2, size=(9, 2)), np.full(9, 1 / 9)
        X = rng.uniform(0, 0.2, size=(6, 2))
        expected = [4 * sum(wj * cutoff_at(model, x, y) * kernel_F(model.kernel, y - x)
                            for y, wj in zip(Y, w)) for x in X]
        for form in ("dense", "windowed"):
            np.testing.assert_allclose(pair_sum(form, model, Y, w, X), expected,
                                       rtol=1e-13, atol=1e-15)

    def test_fixed_axis_must_be_unit(self):
        with pytest.raises(ValueError):
            FixedAxis((1.0, 1.0))

    @pytest.mark.parametrize("axis, unit", [((1 - 4.5e-13, 0.0), True), ((0.6, 0.8), True),
                                            ((1 - 1e-10, 0.0), False), ((math.nan, 1.0), False)])
    def test_one_unit_rule(self, axis, unit):
        # FixedAxis takes the axes, and only those, that Rotation2 takes
        for build in (FixedAxis, lambda a: Rotation2(*a)):
            if unit:
                build(axis)
            else:
                with pytest.raises(ValueError, match="unit vector"):
                    build(axis)

    @given(st.sampled_from(["fixed_axis", "constant", "custom"]),
           st.floats(-math.pi, math.pi), st.floats(0.5, 3.0),
           st.sampled_from([math.pi / 2, math.pi, 2 * math.pi]),
           st.lists(NOT_TINY, min_size=2, max_size=2),
           st.lists(NOT_TINY.map(lambda v: 1.5 * R * v), min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_cutoff_matches_rotated_reference(self, heading, theta, speed, alpha, x, offset):
        # the pair sum's cutoff, from the heading's dot product, against the
        # reference sector's cutoff of the offset turned back by rotation_at
        c = (speed * math.cos(theta), speed * math.sin(theta))
        kind = {"fixed_axis": dict(desired=ZeroDesired(),
                                   heading=FixedAxis((math.cos(theta), math.sin(theta)))),
                "constant": dict(desired=ConstantDesired(c)),
                "custom": dict(desired=CustomDesired(
                    lambda p: np.stack([2.0 + np.sin(3 * p[..., 1]),
                                        np.cos(3 * p[..., 0])], axis=-1), 3.0, 3.0))}
        model = VelocityModel(dim=2, n_agents=1, kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Sector(R, alpha, B), **kind[heading])
        x = np.array(x)
        y = x + np.array(offset)
        reference = model.neighborhood.cutoff(rotation_at(model, x).inverse_apply(y - x))
        assert abs(cutoff_at(model, x, y) - reference) <= 1e-12

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


class TestCustomCallables:
    def test_wrong_shape_is_contract_error(self):
        kernel = CustomKernel(lambda z: np.linalg.norm(z, axis=-1), 1.0, 1.0)
        with pytest.raises(ValueError, match=r"map an \(\.\.\., d\) array"):
            kernel(np.zeros((4, 3, 2)))
        desired = CustomDesired(lambda x: np.array([1.0, 0.0]), 1.0, 0.0)
        with pytest.raises(ValueError, match=r"map an \(\.\.\., d\) array"):
            desired(np.zeros((5, 2)))
        with pytest.raises(ValueError, match=r"map an \(\.\.\., d\) array"):
            VelocityModel(dim=2, n_agents=1, desired=ZeroDesired(), kernel=kernel,
                          neighborhood=Ball(R, B))

    def test_kernel_called_once_per_block(self, monkeypatch):
        shapes = []

        def func(z):
            shapes.append(z.shape)
            return -z

        model = VelocityModel(dim=1, n_agents=5, desired=ZeroDesired(),
                              kernel=CustomKernel(func, 1.0, 1.0), neighborhood=Ball(R, B))
        rng = np.random.default_rng(11)
        mu = AtomicMeasure(rng.uniform(size=(5, 1)))
        X = rng.uniform(size=(12, 1))
        shapes.clear()
        eval_atomic_many(model, mu, X)
        assert shapes == [(12, 5, 1)]
        monkeypatch.setattr(velocity, "_EVAL_CHUNK", 20)  # 4 queries per block
        shapes.clear()
        eval_atomic_many(model, mu, X)
        assert shapes == [(4, 5, 1)] * 3


class TestEvaluation:
    def test_lone_agent_is_stationary(self):
        model = ball_model(n_agents=1)
        mu = AtomicMeasure([[0.4]])
        np.testing.assert_array_equal(eval_atomic_many(model, mu, [[0.4]])[0], [0.0])

    def test_two_atom_frozen_value(self):
        model = ball_model(n_agents=2)
        mu = AtomicMeasure([[0.0], [0.05]], [0.5, 0.5])
        v = eval_atomic_many(model, mu, [[0.0]])[0]
        assert v[0] == pytest.approx(TWO_ATOM_VEL, abs=1e-15)

    def test_out_of_range_mass_is_invisible(self):
        model = ball_model(n_agents=2)
        near = AtomicMeasure([[0.0], [0.05]], [0.5, 0.5])
        far = AtomicMeasure([[0.0], [5.0]], [0.5, 0.5])
        v_far = eval_atomic_many(model, far, [[0.0]])[0]
        assert v_far[0] == 0.0
        assert eval_atomic_many(model, near, [[0.0]])[0, 0] != 0.0

    def test_desired_velocity_added(self):
        model = VelocityModel(dim=2, n_agents=1, desired=ConstantDesired((1.0, -0.5)),
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Ball(R, B))
        mu = AtomicMeasure([[10.0, 10.0]])
        np.testing.assert_allclose(eval_atomic_many(model, mu, [[0.0, 0.0]])[0], [1.0, -0.5])

    def test_grid_matches_atomic_on_cell_centers(self):
        model = ball_model(n_agents=3)
        spec = GridSpec(1, 0.02)
        lam = GridMeasure(spec, [[0], [1], [3]], [25.0, 12.5, 12.5])
        mu = AtomicMeasure([[0.0], [0.02], [0.06]], [0.5, 0.25, 0.25])
        x = [[0.01]]
        np.testing.assert_allclose(eval_grid_many(model, lam, x),
                                   eval_atomic_many(model, mu, x), atol=1e-15)

    def test_convex_linearity_in_measure(self):
        model = ball_model(n_agents=4)
        rng = np.random.default_rng(2)
        mu = AtomicMeasure(rng.uniform(size=(4, 1)))
        nu = AtomicMeasure(rng.uniform(size=(4, 1)))
        alpha = 0.3
        mix = AtomicMeasure(np.vstack([mu.positions, nu.positions]),
                            np.concatenate([alpha * mu.weights,
                                            (1 - alpha) * nu.weights]))
        x = [[0.5]]
        lhs = eval_atomic_many(model, mix, x)
        rhs = (alpha * eval_atomic_many(model, mu, x)
               + (1 - alpha) * eval_atomic_many(model, nu, x))
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_many_matches_single(self):
        model = ball_model(n_agents=3)
        rng = np.random.default_rng(9)
        mu = AtomicMeasure(rng.uniform(size=(3, 1)))
        X = rng.uniform(size=(7, 1))
        many = eval_atomic_many(model, mu, X)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(many[i], eval_atomic_many(model, mu, x[None])[0])


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
            kernel=CustomKernel(lambda z: np.sin(20.0 * z) * np.cos(z[..., ::-1]), 1.0, 20.0),
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
    def test_fft_lengths_are_the_next_5_smooth(self):
        # the padded box's shape, and so the output bits, follow from these
        smooth = sorted(2 ** a * 3 ** b * 5 ** c
                        for a in range(15) for b in range(10) for c in range(7))
        n = np.arange(1, 10 ** 4 + 1)
        want = np.asarray(smooth)[np.searchsorted(smooth, n)]
        assert [velocity.next_fast_len(int(k), real=True) for k in n] == want.tolist()

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
            dim=2, n_agents=3, desired=CustomDesired(
                lambda x: np.stack([np.ones_like(x[..., 0]), x[..., 0]], axis=-1), 2.0, 1.0),
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

    def test_config_models_hash_by_value(self):
        blocks = [json.loads(case_study_path().read_text())["model"],
                  {"dim": 2, "n_agents": 5, "desired": {"type": "constant", "c": [1, 0.5]},
                   "kernel": {"type": "case_study", "a": A, "eps": EPS},
                   "neighborhood": {"type": "sector", "R": R, "alpha": 2.0, "b": B},
                   "heading": {"type": "fixed_axis", "axis": [0, 1]}}]
        for block in blocks:
            model = build_model(block)
            twin = build_model(json.loads(json.dumps(block)))
            assert model is not twin and model == twin and hash(model) == hash(twin)
        # list and array fields are stored as tuples of floats, so such models hash too
        assert ConstantDesired([1, 0.5]) == ConstantDesired(np.array([1.0, 0.5]))
        assert hash(FixedAxis([0, 1])) == hash(FixedAxis((0.0, 1.0)))

    def test_stencil_is_computed_once_per_model_and_width(self, monkeypatch):
        block = json.loads(case_study_path().read_text())["model"]
        lam = GridMeasure(GridSpec(1, 0.01), [[i] for i in range(0, 60, 3)], [5.0] * 20)
        ref = _interaction_sum(build_model(block), lam.centers(), lam.cell_masses(),
                               lam.centers())
        calls = []

        def counting(*args):
            calls.append(args[3].shape)
            return _interaction_sum(*args)

        monkeypatch.setattr(velocity, "_interaction_sum", counting)
        velocity._lattice_stencil.cache_clear()
        first = _lattice_interaction(build_model(block), lam, lam.centers())
        # an equal model built anew, at the same width: no new stencil
        again = _lattice_interaction(build_model(block), lam, lam.centers())
        assert calls == [(21, 1)]
        assert first.tobytes() == again.tobytes()
        assert np.max(np.abs(first - ref)) <= 1e-12 * np.max(np.abs(ref))
        G = velocity._lattice_stencil(build_model(block), 0.01)
        assert not G.flags.writeable
        assert G[:, 0].tobytes() == _interaction_sum(
            build_model(block), np.zeros((1, 1)), np.ones(1),
            np.arange(-10, 11)[:, None] * 0.01)[:, 0].tobytes()
        _lattice_interaction(build_model(block), GridMeasure(GridSpec(1, 0.02), lam.indices,
                                                            lam.rho), lam.indices * 0.02)
        assert calls == [(21, 1), (11, 1)]  # a new width, a new stencil


# ---------------------------------------------------------------------------
# the pair sum's windowed form against its dense block form

def window_models(dim, theta):
    """The lattice path's models plus those only the pair sum serves: a
    position-dependent heading, and cutoffs with b = 1e-15, which stay near 1
    up to an ulp inside R, so pairs at the window's edge count."""
    heading = (math.cos(theta), math.sin(theta))
    kern = CaseStudyRepulsion(A, EPS)
    models = lattice_models(dim, theta)
    models["ball_sharp"] = VelocityModel(dim=dim, n_agents=7, desired=ZeroDesired(),
                                         kernel=kern, neighborhood=Ball(R, 1e-15))
    if dim == 2:
        models["sector_sharp"] = VelocityModel(
            dim=2, n_agents=5, desired=ConstantDesired(heading),
            kernel=kern, neighborhood=Sector(R, 2.0, 1e-15))
        models["sector_custom"] = VelocityModel(
            dim=2, n_agents=5, kernel=kern, neighborhood=Sector(R, 2.0, B),
            desired=CustomDesired(lambda x: np.stack([2.0 + np.sin(x[..., 1]),
                                                      np.cos(3.0 * x[..., 0] + theta)], axis=-1),
                                  3.0, 3.0))
    return models


@st.composite
def pair_sum_inputs(draw):
    """Atoms (with duplicates), weights and queries: some atoms, free points
    off the support, and points at an offset of R and of one ulp inside R
    from an atom along the first axis; all optionally shifted by 1e6."""
    dim = draw(st.integers(1, 3))
    coord = st.floats(-0.4, 0.4) | st.sampled_from([0.0, R, -R])
    Y = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=30))
    Y = np.array(Y + [Y[i] for i in draw(st.lists(st.integers(0, len(Y) - 1), max_size=5))])
    w = draw(st.lists(st.floats(0.01, 10.0), min_size=len(Y), max_size=len(Y)))
    free = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim),
                         max_size=15))
    edge = []
    for i in draw(st.lists(st.integers(0, len(Y) - 1), max_size=4)):
        for r in (R, np.nextafter(R, 0.0), -R, -np.nextafter(R, 0.0)):
            x = Y[i].copy()
            x[0] += r
            edge.append(x)
    X = np.vstack([Y[:5], np.reshape(free, (-1, dim)), np.reshape(edge, (-1, dim))])
    shift = draw(st.sampled_from([0.0, 1e6]))
    return Y + shift, np.array(w), X + shift


CHUNKS = [7, velocity._EVAL_CHUNK, 4_000_000]


class TestWindowedPairSum:
    @given(pair_sum_inputs(), st.floats(0.0, 2 * math.pi), st.sampled_from(CHUNKS))
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_form(self, inputs, theta, chunk):
        Y, w, X = inputs
        for name, model in window_models(Y.shape[1], theta).items():
            dense = pair_sum("dense", model, Y, w, X, chunk)
            got = pair_sum("windowed", model, Y, w, X, chunk)
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense)), name
            assert np.all(got[dense == 0] == 0), name
            # the block size moves no bits in either form
            for other in CHUNKS:
                assert pair_sum("dense", model, Y, w, X, other).tobytes() == dense.tobytes(), name
                assert pair_sum("windowed", model, Y, w, X, other).tobytes() == got.tobytes(), name
            for i in range(len(X)):
                one = pair_sum("windowed", model, Y, w, X[i:i + 1], chunk)[0]
                assert one.tobytes() == got[i].tobytes(), name

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_window_edge(self, shift):
        # atoms at exactly R and one ulp inside R on either side of the query:
        # only the inner two are seen, through a cutoff of about exp(-4.5).
        # Shifted by 1e6 the offsets round to within an ulp of 1e6 of R.
        inner = np.nextafter(R, 0.0)
        model = VelocityModel(dim=1, n_agents=1, desired=ZeroDesired(),
                              kernel=PrototypeAttraction(R), neighborhood=Ball(R, 1e-15))
        Y = np.array([[-R], [-inner], [inner], [R]]) + shift
        X = np.array([[0.0]]) + shift
        w = np.array([1.0, 2.0, 4.0, 8.0])
        dense = pair_sum("dense", model, Y, w, X)
        got = pair_sum("windowed", model, Y, w, X)
        assert dense[0, 0] != 0
        np.testing.assert_allclose(got, dense, rtol=1e-12, atol=0)
        if shift == 0.0:
            sig = model.neighborhood.cutoff(np.array([[inner]]))[0]
            assert 0 < sig < 0.1
            np.testing.assert_allclose(got[0, 0], 2.0 * sig * inner, rtol=1e-15)

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("heading", [(1.0, 0.0), (-1.0, 0.0)], ids=["+x", "-x"])
    def test_sector_window_edge(self, shift, heading):
        # atoms at exactly R and one ulp inside R on either side of the query,
        # along the heading and against it: the half-plane sector sees only
        # the one inside R along the heading. Shifted by 1e6 the offsets round
        # to within an ulp of 1e6 of R, and both atoms along the heading count.
        inner = np.nextafter(R, 0.0)
        model = VelocityModel(dim=2, n_agents=1, desired=ZeroDesired(),
                              kernel=PrototypeAttraction(R), heading=FixedAxis(heading),
                              neighborhood=Sector(R, math.pi, 1e-15))
        Y = np.array([[-R, 0.0], [-inner, 0.0], [inner, 0.0], [R, 0.0]]) + shift
        X = np.array([[0.0, 0.0]]) + shift
        w = np.array([1.0, 2.0, 4.0, 8.0])
        dense = pair_sum("dense", model, Y, w, X)
        assert dense[0, 0] != 0 and dense[0, 1] == 0
        np.testing.assert_array_equal(pair_sum("windowed", model, Y, w, X), dense)
        if shift == 0.0:
            sig = model.neighborhood.cutoff(np.array([inner, 0.0]))
            assert 0 < sig < 0.1
            along = 4.0 * inner if heading[0] > 0 else -2.0 * inner
            np.testing.assert_allclose(dense[0, 0], sig * along, rtol=1e-15)

    def test_only_pairs_in_the_window_are_evaluated(self, monkeypatch):
        offsets = []

        def func(z):
            offsets.append(math.prod(z.shape[:-1]))
            return -A * z / np.maximum(np.abs(z), EPS) ** 2

        model = VelocityModel(dim=1, n_agents=200, desired=ZeroDesired(),
                              kernel=CustomKernel(func, A / EPS, A / EPS ** 2),
                              neighborhood=Ball(R, B))
        mu = AtomicMeasure(np.random.default_rng(12).uniform(0.0, 10 * R, size=(200, 1)))
        q, m = 200, 200
        assert (q - 1) * (m - 1) >= velocity._DENSE_MAX_PAIRS
        offsets.clear()
        got = eval_atomic_many(model, mu, mu.positions)
        assert 0 < sum(offsets) < q * m / 3
        dense = pair_sum("dense", model, mu.positions, mu.weights, mu.positions)
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_pair_sum_memory_stays_in_blocks(self):
        # 1000 uniform 1D atoms on [0, 1] seen from themselves: about 190k
        # pairs in the window, 1.5 MB a temporary if evaluated in one block
        model = ball_model(n_agents=1000)
        Y = np.random.default_rng(13).uniform(0.0, 1.0, size=(1000, 1))
        w = np.full(1000, 1e-3)
        tracemalloc.start()
        try:
            _interaction_sum(model, Y, w, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
