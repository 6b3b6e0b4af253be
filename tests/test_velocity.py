import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crowdflow import (AtomicMeasure, Ball, CaseStudyRepulsion, ConstantDesired,
                       FixedAxis, FromDesired, GridMeasure, GridSpec,
                       PrototypeAttraction, Rotation2, Sector, VelocityModel,
                       ZeroDesired, cutoff_at, eval_atomic_many, eval_grid_many,
                       kernel_F, lipschitz_constants, rotation_at, velocity_bound)
from crowdflow import velocity, wasserstein
from crowdflow.config import build_model, case_study_path
from crowdflow.grids import PAIR_BLOCK, sq_norm
from crowdflow.velocity import _bump, _headings, _interaction_sum, _lattice_interaction
from helpers import CustomDesired, CustomKernel, direct_seen_counts, lattice_calls

A, EPS, R, B = 0.01, 0.025, 0.1, 0.02

EXP_M1_150 = 0.9933555062550344  # exp(-1/150), cutoff at |z| = 0.05
TWO_ATOM_VEL = -0.1986711012510069  # -0.2 * exp(-1/150)


def ball_model(n_agents=2, dim=1):
    return VelocityModel(dim=dim, n_agents=n_agents, desired=ZeroDesired(),
                         kernel=CaseStudyRepulsion(A, EPS),
                         neighborhood=Ball(R, B))


def pair_sum(form, model, Y, w, X, chunk=PAIR_BLOCK):
    """The pair sum in blocks of ``chunk`` pairs: "dense", _interaction_sum
    at the points X, or "atoms", _interaction_sum_at_atoms forced into its
    at-atoms form at any atom count, which X must take: X equal to Y."""
    Y, w, X = (np.asarray(a, dtype=float) for a in (Y, w, X))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(velocity, "PAIR_BLOCK", chunk)
        if form == "dense":
            return _interaction_sum(model, Y, w, X)
        assert np.array_equal(X, Y)
        mp.setattr(velocity, "_DENSE_MAX_ATOMS", 0)
        return velocity._interaction_sum_at_atoms(model, Y, w)


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
    step = max(1, PAIR_BLOCK // len(ys))
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

    def test_rotation_at_refuses_1d(self):
        with pytest.raises(ValueError, match="dim == 2"):
            rotation_at(ball_model(), [0.0])

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
        for form, Q in (("dense", X), ("dense", Y), ("atoms", Y)):
            expected = [4 * sum(wj * cutoff_at(model, x, y) * kernel_F(model.kernel, y - x)
                                for y, wj in zip(Y, w)) for x in Q]
            np.testing.assert_allclose(pair_sum(form, model, Y, w, Q), expected,
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

    @pytest.mark.parametrize("neighborhood", [Ball(R, B), Sector(R, math.pi, B)],
                             ids=["ball", "sector"])
    def test_attraction_cap_below_the_radius_refused(self, neighborhood):
        # |F(z)| = |z| reaches almost R on U_x, so a smaller cap leaves
        # V = vmax + N * fmax below |v|
        with pytest.raises(ValueError, match="attraction R = 0.01 is below"):
            VelocityModel(dim=2, n_agents=2, desired=ZeroDesired(),
                          kernel=PrototypeAttraction(0.01), neighborhood=neighborhood,
                          heading=FixedAxis((1.0, 0.0)))

    @pytest.mark.parametrize("cap", [R, 2 * R])
    def test_accepted_attraction_is_bounded(self, cap):
        model = VelocityModel(dim=1, n_agents=20, desired=ZeroDesired(),
                              kernel=PrototypeAttraction(cap), neighborhood=Ball(R, B))
        rng = np.random.default_rng(6)
        mu = AtomicMeasure(rng.uniform(0, 2 * R, size=(20, 1)))
        v = eval_atomic_many(model, mu, mu.positions)
        assert 0 < np.max(np.abs(v)) <= velocity_bound(model)


class TestCustomCallables:
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
        monkeypatch.setattr(velocity, "PAIR_BLOCK", 20)  # 4 queries per block
        shapes.clear()
        eval_atomic_many(model, mu, X)
        assert shapes == [(4, 5, 1)] * 3


class TestEvaluation:
    def test_points_are_required(self):
        with pytest.raises(TypeError):
            eval_atomic_many(ball_model(), AtomicMeasure([[0.0], [0.05]]))

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

    @pytest.mark.parametrize("name", ["ball_1d", "ball_2d", "sector_2d"])
    def test_dense_sum_at_the_atoms_matches_single_rows(self, name):
        # the dense sum is the reference at any points, the atoms included:
        # asked at more than _DENSE_MAX_ATOMS atoms it still evaluates every
        # pair, so each row has the bits it has alone
        dim = 1 if name == "ball_1d" else 2
        model = (atoms_models(2, 0.3)["sector_custom"] if name == "sector_2d"
                 else ball_model(n_agents=100, dim=dim))
        rng = np.random.default_rng(16)
        Y = rng.uniform(0.0, 0.5, size=(100, dim))
        w = rng.uniform(0.5, 1.5, size=100) / 100
        assert len(Y) > velocity._DENSE_MAX_ATOMS
        rows = np.vstack([_interaction_sum(model, Y, w, y[None]) for y in Y])
        assert _interaction_sum(model, Y, w, Y).tobytes() == rows.tobytes()


class TestBounds:
    def test_velocity_bound_frozen(self):
        assert velocity_bound(ball_model(n_agents=2)) == pytest.approx(0.8)
        assert velocity_bound(ball_model(n_agents=10)) == pytest.approx(4.0)

    def test_bound_with_desired(self):
        model = VelocityModel(dim=1, n_agents=2, desired=ConstantDesired((3.0,)),
                              kernel=CaseStudyRepulsion(A, EPS),
                              neighborhood=Ball(R, B))
        assert velocity_bound(model) == pytest.approx(3.8)

    def test_zero_desired_takes_no_bounds(self):
        # its field is zero everywhere, so its sup and Lipschitz bounds are 0
        for kwargs in ({"vmax": 1.0}, {"lip": 1.0}):
            with pytest.raises(TypeError):
                ZeroDesired(**kwargs)
        assert (ZeroDesired().vmax, ZeroDesired().lip) == (0.0, 0.0)

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

    def test_lipschitz_constants_of_the_attraction(self):
        # F(z) = z: F_max is the cap radius and Lip(F) = 1
        model = VelocityModel(dim=1, n_agents=10, desired=ZeroDesired(),
                              kernel=PrototypeAttraction(0.2), neighborhood=Ball(0.1, 0.02))
        want = 10 * (0.2 * Ball(0.1, 0.02).cutoff_lipschitz() + 1.0)
        assert lipschitz_constants(model) == {"space": want, "measure": want}
        assert want == pytest.approx(1109.0242, abs=1e-4)

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
        # odd, as a model's kernel must be: sin is odd and cos even
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


class TestLatticeCorrelation:
    def test_fft_lengths_are_the_next_5_smooth(self):
        # the padded box's shape, and so the output bits, follow from these
        smooth = sorted(2 ** a * 3 ** b * 5 ** c
                        for a in range(15) for b in range(10) for c in range(7))
        n = np.arange(1, 10 ** 4 + 1)
        want = np.asarray(smooth)[np.searchsorted(smooth, n)]
        assert [velocity.next_fast_len(int(k)) for k in n] == want.tolist()

    @given(st.integers(1, 3), st.sampled_from([0.02, 0.025, 0.05, 0.03]),
           st.floats(0.0, 2 * math.pi),
           st.lists(st.floats(0.01, 10.0), min_size=125, max_size=125),
           st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30),
                              st.integers(-30, 30), st.floats(0.01, 10.0)), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_sum(self, dim, h, theta, core, cells):
        # a full core block of 10^d cells (5^3 in 3D, ball models only) holds
        # the pairs that let the size rule admit the lattice path; the drawn
        # cells around it spread the support, some of them out of every other
        # cell's range. In 3D they lie within 6 cells of the core, so the
        # padded box, at most 24^3 cells, stays within the 125^2 pairs
        side = 10 if dim < 3 else 5
        spread = np.array([c[:dim] for c in cells], dtype=np.int64).reshape(-1, dim)
        idx = np.vstack([np.indices((side,) * dim).reshape(dim, -1).T,
                         spread if dim < 3 else spread // 5])
        lam = GridMeasure(GridSpec(dim, h), idx, core[:side ** dim] + [c[3] for c in cells])
        X = lam.centers()
        for name, model in lattice_models(dim, theta).items():
            got = _lattice_interaction(model, lam)
            assert got is not None, name
            ref = _interaction_sum(model, X, lam.cell_masses(), X)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale, name

    def test_isolated_cells_get_exact_zero(self):
        # cells out of each other's range interact with nothing: the pair sum
        # gives exactly 0 there, and so must the correlation, or stationary
        # mass would leak into neighbor cells at rounding level
        lam = GridMeasure(GridSpec(1, 0.01), [[i] for i in range(10)] + [[40], [90]],
                          [100 / 12] * 12)
        model = ball_model(n_agents=4)
        got = _lattice_interaction(model, lam)
        assert got is not None
        assert np.all(got[-2:] == 0.0)
        assert np.all(got[:-2] != 0.0)
        np.testing.assert_array_equal(eval_grid_many(model, lam, lam.centers())[-2:], 0.0)

    def test_zero_component_stays_exact(self):
        # cells on one row: every y-offset is 0, so the pair sum's y-component
        # is exactly 0 at the cells, and the correlation's must be too
        lam = GridMeasure(GridSpec(2, 0.02), [[i, 0] for i in range(24)], [2500 / 24] * 24)
        got = _lattice_interaction(ball_model(n_agents=4, dim=2), lam)
        assert got is not None
        assert np.all(got[:, 0] != 0.0)
        np.testing.assert_array_equal(got[:, 1], 0.0)

    def test_off_lattice_queries_fall_back(self, monkeypatch):
        lam = GridMeasure(GridSpec(1, 0.01), [[i] for i in range(30)], [1 / 0.3] * 30)
        model = ball_model(n_agents=4)
        X = lam.centers() + 0.003
        ran = lattice_calls(monkeypatch)
        np.testing.assert_array_equal(
            eval_grid_many(model, lam, X),
            _interaction_sum(model, lam.centers(), lam.cell_masses(), X))
        assert ran == []

    @pytest.mark.parametrize("dim", [1, 2])
    def test_dispatch_by_value(self, dim, monkeypatch):
        # the lattice path serves the grid's own centers, in order, by value;
        # any other points take the pair sum, and both agree with it
        h = 0.02
        side = 30 if dim == 1 else 8
        idx = np.indices((side,) * dim).reshape(dim, -1).T
        lam = GridMeasure(GridSpec(dim, h), idx, 1.0 + np.arange(len(idx)) % 7)
        model = ball_model(n_agents=4, dim=dim)
        C = lam.centers()
        cases = {"centers": (C, True), "copy": (C.copy(), True),
                 "permuted": (C[::-1], False), "subset": (C[1:], False),
                 "shifted": (C + 0.3 * h, False), "other lattice points": ((idx + 1) * h, False)}
        for name, (X, lattice) in cases.items():
            ran = lattice_calls(monkeypatch)
            got = eval_grid_many(model, lam, X)
            assert ran == ([True] if lattice else []), name
            ref = _interaction_sum(model, C, lam.cell_masses(), X)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_position_dependent_heading_falls_back(self):
        lam = GridMeasure(GridSpec(2, 0.02), [[i, j] for i in range(8) for j in range(8)],
                          [2500 / 64] * 64)
        model = VelocityModel(
            dim=2, n_agents=3, desired=CustomDesired(
                lambda x: np.stack([np.ones_like(x[..., 0]), x[..., 0]], axis=-1), 2.0, 1.0),
            kernel=CaseStudyRepulsion(A, EPS), neighborhood=Sector(R, math.pi, B))
        X, w = lam.centers(), lam.cell_masses()
        assert _lattice_interaction(model, lam) is None
        # 64 cells: the pair sum at the atoms takes its at-atoms form
        at_atoms = velocity._interaction_sum_at_atoms(model, X, w)
        np.testing.assert_array_equal(eval_grid_many(model, lam, X), model.desired(X) + at_atoms)
        ref = _interaction_sum(model, X, w, X)
        assert np.max(np.abs(at_atoms - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_far_spread_support_falls_back(self):
        # two cells 10^7 apart: the dense box would dwarf the 4 pairs
        lam = GridMeasure(GridSpec(1, 0.01), [[0], [10 ** 7]], [50.0, 50.0])
        model = ball_model(n_agents=2)
        assert _lattice_interaction(model, lam) is None
        np.testing.assert_array_equal(eval_grid_many(model, lam, lam.centers()),
                                      np.zeros((2, 1)))

    def test_memory_ceiling_falls_back(self, monkeypatch):
        lam = GridMeasure(GridSpec(1, 0.01), [[i] for i in range(30)], [1 / 0.3] * 30)
        model = ball_model(n_agents=4)
        assert _lattice_interaction(model, lam) is not None
        monkeypatch.setattr(velocity, "_LATTICE_MAX_CELLS", 32)
        assert _lattice_interaction(model, lam) is None

    def test_memory_ceiling_counts_every_component(self, monkeypatch):
        # the d stencil components are transformed at once, so a 2D box of P
        # padded cells needs a ceiling of 2P, while a 1D box of P fits in P
        lam2 = GridMeasure(GridSpec(2, 0.02), np.indices((8, 8)).reshape(2, -1).T,
                           [2500 / 64] * 64)
        P = velocity.next_fast_len(8 + 2 * math.ceil(R / 0.02)) ** 2
        n = P - 2 * math.ceil(R / 0.01)
        assert velocity.next_fast_len(P) == P  # the 1D box pads to P
        lam1 = GridMeasure(GridSpec(1, 0.01), np.arange(n)[:, None], [100 / n] * n)
        for ceiling, lattice in ((P, False), (2 * P, True)):
            monkeypatch.setattr(velocity, "_LATTICE_MAX_CELLS", ceiling)
            got = _lattice_interaction(ball_model(n_agents=4, dim=2), lam2)
            assert (got is not None) == lattice, ceiling
        monkeypatch.setattr(velocity, "_LATTICE_MAX_CELLS", P)
        assert _lattice_interaction(ball_model(n_agents=4), lam1) is not None

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

    def test_stencil_is_computed_once_per_model_and_width(self):
        block = json.loads(case_study_path().read_text())["model"]
        lam = GridMeasure(GridSpec(1, 0.01), [[i] for i in range(0, 60, 3)], [5.0] * 20)
        ref = _interaction_sum(build_model(block), lam.centers(), lam.cell_masses(),
                               lam.centers())
        # the stencil is built on a miss of the spectra cache, keyed by
        # (model, h, padded shape)
        velocity._stencil_spectra.cache_clear()
        first = _lattice_interaction(build_model(block), lam)
        # an equal model built anew, at the same width and box: no new miss
        again = _lattice_interaction(build_model(block), lam)
        assert velocity._stencil_spectra.cache_info().misses == 1
        assert first.tobytes() == again.tobytes()
        assert np.max(np.abs(first - ref)) <= 1e-12 * np.max(np.abs(ref))
        G, twin = (velocity._lattice_stencil(build_model(block), 0.01) for _ in range(2))
        assert G.shape == (21, 1) and G.flags.writeable
        assert G.tobytes() == twin.tobytes() and not np.shares_memory(G, twin)
        _lattice_interaction(build_model(block), GridMeasure(GridSpec(1, 0.02), lam.indices,
                                                            lam.rho))
        assert velocity._stencil_spectra.cache_info().misses == 2  # a new width, a new miss

    @pytest.mark.parametrize("dim, name, h", [(1, "ball", 0.02), (2, "sector_constant", 0.02),
                                              (3, "ball", 0.05)])
    def test_cold_and_warm_spectra_give_the_same_bytes(self, dim, name, h):
        # a spectra miss builds the stencil anew: a call on a cleared cache
        # gives the bits of the call that reads the cache, and so does a
        # second cold call, whose stencil is rebuilt
        model = lattice_models(dim, 0.3)[name]
        rng = np.random.default_rng(dim)
        lam = GridMeasure(GridSpec(dim, h), rng.integers(0, 40 if dim < 3 else 8, size=(80, dim)),
                          rng.random(80) + 0.1)
        results = []
        for clear in (True, False, True):
            if clear:
                velocity._stencil_spectra.cache_clear()
            results.append(_lattice_interaction(model, lam))
            info = velocity._stencil_spectra.cache_info()
            assert (info.hits, info.misses) == ((0, 1) if clear else (1, 1))
        assert results[0] is not None
        assert len({got.tobytes() for got in results}) == 1

    @pytest.mark.parametrize("dim, name", [(dim, name) for dim in (1, 2)
                                           for name in lattice_models(dim, 0.0)])
    def test_stencil_matches_dense_pair_sum(self, dim, name):
        # the stencil from its formula, N sigma(z) F(z), against the dense pair
        # sum of a unit atom at 0 seen from the stencil's points, by value:
        # the dense sum starts from +0.0, so a term 0 * F(z) < 0 gives it +0.0
        # where the formula keeps -0.0
        widths = (1e-2, 1e-3, 1e-4) if dim == 1 else (1 / 50, 1 / 100, 1 / 200)
        for theta in (0.0, 0.3, 2.0):
            model = lattice_models(dim, theta)[name]
            for h in widths:
                G = velocity._lattice_stencil(model, h)
                r = G.shape[0] // 2
                points = (np.indices(G.shape[:-1]).reshape(dim, -1).T - r) * h
                dense = pair_sum("dense", model, np.zeros((1, dim)), np.ones(1), points)
                dense = dense.reshape(G.shape)
                assert np.array_equal(G, dense), (theta, h)
                assert np.all(G[dense == 0] == 0), (theta, h)


def cells_grid(dim, h, cells):
    """A grid on the given cells, all of density 1: the count reads only
    which cells are occupied."""
    return GridMeasure(GridSpec(dim, h), cells, [1.0] * len(cells))


@st.composite
def seen_grids(draw):
    """Random 1D, 2D and 3D grids of up to 60 cells, spread over up to 81
    cells a side (21 in 3D, where the FFT count's box grows as its cube), so
    that some cells see many others and some none."""
    dim = draw(st.integers(1, 3))
    span = draw(st.integers(0, 40 if dim < 3 else 10))
    cells = draw(st.lists(st.lists(st.integers(-span, span), min_size=dim, max_size=dim),
                          min_size=1, max_size=60))
    return cells_grid(dim, draw(st.sampled_from([0.01, 0.02, 0.025, 0.03, 0.05])), cells)


def underflow_model(dim):
    """A ball whose radial bump, with b = 700, underflows to 0 from |z| of
    about 0.72 R on: stencil entries well inside R are 0."""
    return VelocityModel(dim=dim, n_agents=4, desired=ZeroDesired(),
                         kernel=CaseStudyRepulsion(A, EPS), neighborhood=Ball(R, 700.0))


def occupancy_counts(model, lam):
    """(m, d) floats: the lattice path's correlation of lam's occupancy with
    each stencil component's nonzero mask, over the padded box it takes, at
    the occupied cells."""
    h = lam.spec.cell_width
    r = math.ceil(model.neighborhood.radius / h)
    cells = lam.indices - lam.indices.min(axis=0)
    shape = tuple(velocity.next_fast_len(int(n)) for n in cells.max(axis=0) + 1 + 2 * r)
    mask = velocity._stencil_spectra(model, h, shape)[1]
    return velocity._correlate(mask, shape, cells, 1.0, r)


def assert_counts_match(model, lam):
    """The FFT count, rounded, equals the direct count as integers, which is
    returned."""
    got = occupancy_counts(model, lam)
    assert got.shape == (lam.occupied, lam.spec.dim)
    ref = direct_seen_counts(model, lam)
    assert np.rint(got).astype(np.int64).tolist() == ref.tolist()
    return ref


class TestSeenCounts:
    """The lattice path keeps a component 0 where a cell sees no occupied cell
    through the component's nonzero stencil entries; it counts them as the FFT
    correlation of the occupancy with the stencil's nonzero mask, held here to
    a direct count over the pairs of cells."""

    @given(seen_grids(), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_matches_fft_count(self, lam, theta):
        models = dict(lattice_models(lam.spec.dim, theta), underflow=underflow_model(lam.spec.dim))
        for model in models.values():
            assert_counts_match(model, lam)

    def test_isolated_cells_count_zero(self):
        # r = 10 cells: each of the 10 packed cells sees the 9 others, not
        # itself, and the two far cells see nothing
        lam = cells_grid(1, 0.01, [[i] for i in range(10)] + [[40], [90]])
        got = assert_counts_match(ball_model(n_agents=4), lam)
        assert got[:, 0].tolist() == [9] * 10 + [0, 0]

    @pytest.mark.parametrize("axis", [0, 1])
    def test_one_row_2d_grid(self, axis):
        # every offset along the row has a 0 across it, where that component
        # of F is 0: the across component sees nothing
        cells = [[i, 0][::1 if axis == 0 else -1] for i in range(24)]
        got = assert_counts_match(ball_model(n_agents=4, dim=2), cells_grid(2, 0.02, cells))
        assert np.all(got[:, axis] > 0)
        assert np.all(got[:, 1 - axis] == 0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_hole_at_offset_zero(self, dim):
        # F(0) = 0, so no component's stencil is nonzero at offset 0: a lone
        # cell sees nothing, and two neighbors along the first axis see each
        # other through the first component
        model = ball_model(n_agents=4, dim=dim)
        G = velocity._lattice_stencil(model, 0.01)
        r = G.shape[0] // 2
        assert np.all(G[(r,) * dim] == 0)
        assert assert_counts_match(model, cells_grid(dim, 0.01, [[0] * dim])).tolist() == [[0] * dim]
        pair = cells_grid(dim, 0.01, [[0] * dim, [1] + [0] * (dim - 1)])
        assert assert_counts_match(model, pair)[:, 0].tolist() == [1, 1]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_underflowed_edge_entries_see_nothing(self, dim):
        # at h = 0.01 the offsets 8 and 9 lie inside R = 0.1, but their entries
        # underflow to 0: cells 8 apart do not see each other, 7 apart do
        model = underflow_model(dim)
        K = velocity._lattice_stencil(model, 0.01)[(slice(None, None, -1),) * dim + (0,)]
        line = K[(slice(None),) + (10,) * (dim - 1)]  # the offsets (o, 0, ...)
        assert line[10 + 7] != 0 and line[10 + 8] == 0 and line[10 + 9] == 0
        for gap, seen in ((7, 1), (8, 0), (9, 0)):
            lam = cells_grid(dim, 0.01, [[0] * dim, [gap] + [0] * (dim - 1)])
            got = assert_counts_match(model, lam)
            assert got[:, 0].tolist() == [seen, seen], gap
        rng = np.random.default_rng(9)
        assert_counts_match(model, cells_grid(dim, 0.01, rng.integers(0, 30, size=(80, dim))))

    def test_count_rounding_stays_far_below_one_half(self):
        # a 2D sector box of 576^2 = 331,776 padded cells, about half of its
        # 520^2 cells occupied: each count is an integer to within 1e-9, far
        # inside the 1/2 that the lattice path's threshold allows
        model = lattice_models(2, 0.3)["sector_fixed_axis"]
        rng = np.random.default_rng(4)
        cells = np.argwhere(rng.random((520, 520)) < 0.5)
        lam = cells_grid(2, 0.005, cells)
        assert velocity.next_fast_len(520 + 2 * 20) ** 2 == 331776
        got = occupancy_counts(model, lam)
        assert np.max(np.abs(got - np.rint(got))) <= 1e-9

    def test_spectrum_is_computed_once_per_shape(self, monkeypatch):
        model = ball_model(n_agents=4)
        lam = GridMeasure(GridSpec(1, 0.01), [[i] for i in range(30)], [1 / 0.3] * 30)
        stencil = velocity._lattice_stencil(model, 0.01)
        rfftn = np.fft.rfftn
        inputs = []

        def counting(a, *args, **kwargs):
            inputs.append(a)
            return rfftn(a, *args, **kwargs)

        velocity._stencil_spectra.cache_clear()
        monkeypatch.setattr(velocity, "rfftn", counting)
        first = _lattice_interaction(model, lam)
        again = _lattice_interaction(model, lam)
        # the stencil's and the mask's spectra once, then two transforms a
        # call: of the mass and of the occupancy
        mass = lam.cell_masses()
        assert np.array_equal(inputs[0], stencil) and np.array_equal(inputs[1], stencil != 0)
        for box, value in zip(inputs[2:], [mass, 1.0, mass, 1.0]):
            assert np.array_equal(box[box != 0], np.broadcast_to(value, 30))
        assert len(inputs) == 6
        assert first.tobytes() == again.tobytes()
        padded = (velocity.next_fast_len(30 + 2 * 10),)
        spectra = velocity._stencil_spectra(model, 0.01, padded)
        for f, G in zip(spectra, (stencil, (stencil != 0).astype(float))):
            assert not f.flags.writeable
            assert f.tobytes() == rfftn(G, padded, (0,)).tobytes()
        # a wider box pads to another length: both spectra are computed anew
        wider = GridMeasure(GridSpec(1, 0.01), [[i] for i in range(60)], [1 / 0.6] * 60)
        _lattice_interaction(model, wider)
        assert sum(np.array_equal(a, stencil) for a in inputs) == 2 and len(inputs) == 10
        assert velocity._stencil_spectra.cache_info().misses == 2


# ---------------------------------------------------------------------------
# the pair sum at the atoms, each pair in its window evaluated once, against
# its dense block form

def atoms_models(dim, theta):
    """Models the at-atoms form serves: a ball under both odd kernels and, in
    2D, sectors facing a constant, a fixed-axis and a position-dependent
    heading, one of them 2 pi wide; the cutoffs with b = 1e-15 stay near 1
    up to an ulp inside R, so pairs at the window's edge count."""
    heading = (math.cos(theta), math.sin(theta))
    kernels = {"repulsion": CaseStudyRepulsion(A, EPS), "attraction": PrototypeAttraction(R)}
    models = {f"ball_{name}_b{b:g}": VelocityModel(dim=dim, n_agents=7, desired=ZeroDesired(),
                                                  kernel=kern, neighborhood=Ball(R, b))
              for name, kern in kernels.items() for b in (B, 1e-15)}
    if dim == 2:
        kern = kernels["repulsion"]
        for b in (B, 1e-15):
            models[f"sector_constant_b{b:g}"] = VelocityModel(
                dim=2, n_agents=5, desired=ConstantDesired(heading),
                kernel=kern, neighborhood=Sector(R, 2.0, b))
        models["sector_fixed_axis"] = VelocityModel(
            dim=2, n_agents=5, desired=ZeroDesired(), kernel=kernels["attraction"],
            neighborhood=Sector(R, 1.2, B), heading=FixedAxis(heading))
        models["sector_2pi"] = VelocityModel(
            dim=2, n_agents=5, desired=ConstantDesired(heading),
            kernel=kern, neighborhood=Sector(R, 2 * math.pi, B))
        models["sector_custom"] = VelocityModel(
            dim=2, n_agents=5, kernel=kern, neighborhood=Sector(R, 2.0, B),
            desired=CustomDesired(lambda x: np.stack([2.0 + np.sin(x[..., 1]),
                                                      np.cos(3.0 * x[..., 0] + theta)], axis=-1),
                                  3.0, 3.0))
    return models


@st.composite
def self_sum_inputs(draw):
    """Atoms with duplicates and with atoms at an offset of exactly R and of
    one ulp inside R from another along the first axis, and their weights;
    all optionally shifted by 1e6."""
    dim = draw(st.integers(1, 3))
    coord = st.floats(-0.4, 0.4) | st.sampled_from([0.0, R, -R])
    Y = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=40))
    Y = np.array(Y + [Y[i] for i in draw(st.lists(st.integers(0, len(Y) - 1), max_size=5))])
    edge = []
    for i in draw(st.lists(st.integers(0, len(Y) - 1), max_size=4)):
        for r in (R, np.nextafter(R, 0.0), -R, -np.nextafter(R, 0.0)):
            y = Y[i].copy()
            y[0] += r
            edge.append(y)
    Y = np.vstack([Y, np.reshape(edge, (-1, dim))])
    w = draw(st.lists(st.floats(0.01, 10.0), min_size=len(Y), max_size=len(Y)))
    shift = draw(st.sampled_from([0.0, 1e6]))
    return Y + shift, np.array(w)


def all_terms_zero(model, Y, w):
    """Rows whose every term w_j F(y_j - y_i) sigma_{U_{y_i}}(y_j) is 0."""
    terms = ((w * cutoff_at(model, Y[:, None, :], Y[None, :, :]))[..., None]
             * model.kernel(Y[None, :, :] - Y[:, None, :]))
    return np.all(terms == 0, axis=(1, 2))


CHUNKS = [7, PAIR_BLOCK, 4_000_000]


class TestAtomsFormAgainstDense:
    @given(self_sum_inputs(), st.floats(0.0, 2 * math.pi), st.sampled_from(CHUNKS))
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_form(self, inputs, theta, chunk):
        Y, w = inputs
        for name, model in atoms_models(Y.shape[1], theta).items():
            dense = pair_sum("dense", model, Y, w, Y, chunk)
            got = pair_sum("atoms", model, Y, w, Y, chunk)
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense)), name
            assert np.all(got[all_terms_zero(model, Y, w)] == 0), name
            # the block size moves no bits in either form
            for other in CHUNKS:
                assert pair_sum("dense", model, Y, w, Y, other).tobytes() == dense.tobytes(), name
                assert pair_sum("atoms", model, Y, w, Y, other).tobytes() == got.tobytes(), name

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_window_edge(self, shift):
        # atoms at exactly R and one ulp inside R on either side of the atom
        # at 0: only the inner two are seen from it, through a cutoff of about
        # exp(-4.5). Shifted by 1e6 the offsets round to within an ulp of 1e6 of R.
        inner = np.nextafter(R, 0.0)
        model = VelocityModel(dim=1, n_agents=1, desired=ZeroDesired(),
                              kernel=PrototypeAttraction(R), neighborhood=Ball(R, 1e-15))
        Y = np.array([[-R], [-inner], [0.0], [inner], [R]]) + shift
        w = np.array([1.0, 2.0, 16.0, 4.0, 8.0])
        dense = pair_sum("dense", model, Y, w, Y)
        got = pair_sum("atoms", model, Y, w, Y)
        assert dense[2, 0] != 0
        np.testing.assert_allclose(got, dense, rtol=1e-12, atol=0)
        if shift == 0.0:
            sig = model.neighborhood.cutoff(np.array([[inner]]))[0]
            assert 0 < sig < 0.1
            np.testing.assert_allclose(got[2, 0], 2.0 * sig * inner, rtol=1e-15)

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("heading", [(1.0, 0.0), (-1.0, 0.0)], ids=["+x", "-x"])
    def test_sector_window_edge(self, shift, heading):
        # atoms at exactly R and one ulp inside R on either side of the atom
        # at 0, along the heading and against it: from there the half-plane
        # sector sees only the one inside R along the heading. Shifted by 1e6
        # the offsets round to within an ulp of 1e6 of R, and both atoms along
        # the heading count.
        inner = np.nextafter(R, 0.0)
        model = VelocityModel(dim=2, n_agents=1, desired=ZeroDesired(),
                              kernel=PrototypeAttraction(R), heading=FixedAxis(heading),
                              neighborhood=Sector(R, math.pi, 1e-15))
        Y = np.array([[-R, 0.0], [-inner, 0.0], [0.0, 0.0], [inner, 0.0], [R, 0.0]]) + shift
        w = np.array([1.0, 2.0, 16.0, 4.0, 8.0])
        dense = pair_sum("dense", model, Y, w, Y)
        assert dense[2, 0] != 0 and np.all(dense[:, 1] == 0)
        np.testing.assert_allclose(pair_sum("atoms", model, Y, w, Y), dense, rtol=1e-12, atol=0)
        if shift == 0.0:
            sig = model.neighborhood.cutoff(np.array([inner, 0.0]))
            assert 0 < sig < 0.1
            along = 4.0 * inner if heading[0] > 0 else -2.0 * inner
            np.testing.assert_allclose(dense[2, 0], sig * along, rtol=1e-15)

    def test_only_pairs_in_the_window_are_evaluated(self, monkeypatch):
        # 200 atoms spread over 10 R: each unordered pair whose first
        # coordinates lie within R of each other is evaluated once
        sizes = []
        kernel_F = velocity.kernel_F
        monkeypatch.setattr(velocity, "kernel_F", lambda k, z: (
            sizes.append(math.prod(z.shape[:-1])), kernel_F(k, z))[1])
        model = ball_model(n_agents=200)
        mu = AtomicMeasure(np.random.default_rng(12).uniform(0.0, 10 * R, size=(200, 1)))
        assert mu.n_atoms > velocity._DENSE_MAX_ATOMS
        got = eval_atomic_many(model, mu, mu.positions)
        x = mu.positions[:, 0]
        in_window = (np.sum(np.abs(x[:, None] - x[None, :]) <= R) - 200) // 2
        assert sizes == [in_window] and in_window < 200 * 200 / 6
        dense = pair_sum("dense", model, mu.positions, mu.weights, mu.positions)
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_pair_sum_memory_stays_in_blocks(self):
        # 1000 uniform atoms on [0, 1]^d seen from themselves, under a ball in
        # 1D and a sector facing each atom's own heading in 2D: about 95k
        # pairs in the window, 0.75 MB a temporary if evaluated in one block,
        # and 8 MB in the dense form
        for model in (ball_model(n_agents=1000), atoms_models(2, 0.3)["sector_custom"]):
            Y = np.random.default_rng(13).uniform(0.0, 1.0, size=(1000, model.dim))
            w = np.full(1000, 1e-3)
            for form in ("dense", "atoms"):
                tracemalloc.start()
                try:
                    pair_sum(form, model, Y, w, Y)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 4 * 2 ** 20, (form, model.neighborhood)


# ---------------------------------------------------------------------------
# the at-atoms form takes half the pairs: each pair of atoms evaluated once

class TestEachPairEvaluatedOnce:
    def test_each_pair_is_evaluated_once(self, monkeypatch):
        # 300 atoms with distinct first coordinates: the kernel sees each
        # unordered pair in the window once, and the cutoff sees it once under
        # a ball and twice under a sector, once from each atom's heading
        Y = np.random.default_rng(14).uniform(0.0, 10 * R, size=(300, 2))
        w = np.full(300, 1 / 300)
        x = Y[:, 0]
        in_window = (np.sum(np.abs(x[:, None] - x[None, :]) <= R) - 300) // 2
        seen = {"kernel": [], "cutoff": []}
        kernel_F = velocity.kernel_F
        monkeypatch.setattr(velocity, "kernel_F", lambda k, z: (
            seen["kernel"].append(len(z)), kernel_F(k, z))[1])
        for neighborhood, per_pair in ((Ball(R, B), 1), (Sector(R, 2.0, B), 2)):
            model = VelocityModel(dim=2, n_agents=300, desired=ConstantDesired((0.6, 0.8)),
                                  kernel=CaseStudyRepulsion(A, EPS), neighborhood=neighborhood)
            cutoff = type(neighborhood).cutoff
            monkeypatch.setattr(type(neighborhood), "cutoff", lambda self, z, *u: (
                seen["cutoff"].append(len(z)), cutoff(self, z, *u))[1])
            seen["kernel"].clear()
            seen["cutoff"].clear()
            velocity._interaction_sum_at_atoms(model, Y, w)  # 300 atoms: the at-atoms form
            assert sum(seen["kernel"]) == in_window
            assert sum(seen["cutoff"]) == per_pair * in_window

    def test_dispatch(self, monkeypatch):
        # eval_atomic_many asks for the pair sum at the atoms where the points
        # equal the atoms (the same points in the same order, whatever array
        # holds them), under a ball or a sector, and that sum takes its
        # at-atoms form (the pair windows of _window_blocks) above
        # _DENSE_MAX_ATOMS atoms. A permuted copy of the atoms and points off
        # the atoms take the dense sum, which agrees to rounding; 63 atoms
        # take the dense form at the atoms, bit for bit
        calls = []
        for name in ("_interaction_sum_at_atoms", "_window_blocks"):
            f = getattr(velocity, name)
            monkeypatch.setattr(velocity, name, lambda *args, name=name, f=f: (
                calls.append(name), f(*args))[1])
        rng = np.random.default_rng(15)
        mu1 = AtomicMeasure(rng.uniform(0.0, 1.0, size=(100, 1)))
        mu2 = AtomicMeasure(rng.uniform(0.0, 1.0, size=(100, 2)))
        perm = rng.permutation(100)
        both = ["_interaction_sum_at_atoms", "_window_blocks"]

        def close(got, ref):
            return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

        for mu, model in [(mu1, m) for m in atoms_models(1, 0.3).values()] + [
                (mu2, atoms_models(2, 0.3)["sector_custom"])]:
            calls.clear()
            got = eval_atomic_many(model, mu, mu.positions)
            assert calls == both
            copied = eval_atomic_many(model, mu, mu.positions.copy())
            assert copied.tobytes() == got.tobytes()
            assert calls == both * 2
            permuted = eval_atomic_many(model, mu, mu.positions[perm])
            assert close(permuted, got[perm])
            X = mu.positions[:-1] + 1e-3
            off = eval_atomic_many(model, mu, X) - model.desired(X)
            assert close(off, pair_sum("dense", model, mu.positions, mu.weights, X))
            assert calls == both * 2
        few = AtomicMeasure(mu1.positions[:velocity._DENSE_MAX_ATOMS])
        model = ball_model(n_agents=8)
        calls.clear()
        got = eval_atomic_many(model, few, few.positions)
        assert calls == ["_interaction_sum_at_atoms"]
        dense = _interaction_sum(model, few.positions, few.weights, few.positions)
        assert got.tobytes() == (model.desired(few.positions) + dense).tobytes()
