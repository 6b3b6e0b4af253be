import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crowdflow import (AtomicMeasure, GridMeasure, GridSpec, atomize,
                       cell_indices, moment, project_atomic, sample_at, total_mass,
                       w1_exact)
from crowdflow.grids import (MASS_TOL, MassError, NumericalInvariantError, check_mass,
                             csv_text, write_density_csv)
from helpers import density


def read_density_csv(spec: GridSpec, path) -> GridMeasure:
    """The grid measure a density CSV of write_density_csv holds."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    d = spec.dim
    idx = [[int(row[f"index_{l}"]) for l in range(d)] for row in rows]
    rho = [float(row["rho"]) for row in rows]
    return GridMeasure(spec, np.asarray(idx, dtype=np.int64).reshape(-1, d), rho)


def atomic_from_json(text: str) -> AtomicMeasure:
    """The atomic measure AtomicMeasure.to_json wrote."""
    atoms = json.loads(text)
    return AtomicMeasure([a["x"] for a in atoms], [a["w"] for a in atoms])


class TestCells:
    def test_center_of_reference_cell(self):
        assert tuple(cell_indices(GridSpec(1, 1.0), np.array([0.0]))) == (0,)

    def test_half_open_boundary_goes_up(self):
        assert tuple(cell_indices(GridSpec(1, 1.0), np.array([0.5]))) == (1,)

    def test_2d_mixed_signs(self):
        # 0.3 in [0.25, 0.75), -0.3 in [-0.75, -0.25)
        assert tuple(cell_indices(GridSpec(2, 0.5), np.array([0.3, -0.3]))) == (1, -1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cell_indices(GridSpec(2, 1.0), np.array([0.0]))

    def test_points_beyond_2_53_cells_refused(self):
        # int64 would take them, but as the most negative index, with a warning
        spec = GridSpec(1, 0.25)
        edge = 2.0 ** 53 * 0.25
        inside = cell_indices(spec, np.array([-np.nextafter(edge, 0.0)]))[0]
        assert -(2 ** 53) < inside < -(2 ** 53 - 3)
        for x in ([1e300], [-1e300], [edge], [-edge], [math.nan]):
            with pytest.raises(ValueError, match="2\\^53 or more cells"):
                cell_indices(spec, np.array([[0.5], x]))

    @pytest.mark.parametrize("dim", [2.0, 0])
    def test_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            GridSpec(dim, 0.5)

    @pytest.mark.parametrize("dim, h", [(2, 1e300), (3, 1e103), (2, 1e-200)])
    def test_cell_volume_must_be_a_positive_float(self, dim, h):
        # h^d past the largest float, or below the smallest, has no density rho = m / h^d
        with pytest.raises(ValueError, match="cell volume"):
            GridSpec(dim, h)

    def test_centers(self):
        assert GridMeasure(GridSpec(1, 1.0), [(0,)], [1.0]).centers() == 0.0
        np.testing.assert_allclose(GridMeasure(GridSpec(2, 0.5), [(1, -1)], [1.0]).centers(),
                                   [[0.5, -0.5]])
        np.testing.assert_allclose(GridMeasure(GridSpec(1, 0.1), [(7,)], [1.0]).centers(), [[0.7]])

    @given(st.integers(1, 3), st.floats(0.01, 10.0),
           st.lists(st.floats(-100, 100), min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_partition_property(self, dim, h, coords):
        spec = GridSpec(dim, h)
        x = np.array(coords[:dim])
        i = cell_indices(spec, x)
        lo = (np.array(i) - 0.5) * h
        assert np.all(x >= lo) and np.all(x < lo + h)


class TestProjection:
    def test_single_dirac(self):
        lam = project_atomic(AtomicMeasure([[0.0]]), GridSpec(1, 1.0))
        assert density(lam) == {(0,): 1.0}

    def test_two_atoms_adjacent_cells(self):
        lam = project_atomic(AtomicMeasure([[0.25], [0.75]]), GridSpec(1, 0.5))
        assert density(lam) == {(1,): 1.0, (2,): 1.0}

    def test_mass_conserved(self):
        rng = np.random.default_rng(0)
        mu = AtomicMeasure(rng.normal(size=(40, 2)))
        lam = project_atomic(mu, GridSpec(2, 0.3))
        assert abs(total_mass(lam) - 1.0) <= 1e-12

    def test_w1_projection_bound(self):
        # Each unit of mass moves at most the cell diagonal: W1 <= sqrt(d) h.
        rng = np.random.default_rng(7)
        h = 0.2
        mu = AtomicMeasure(rng.uniform(-1, 1, size=(50, 2)))
        lam = project_atomic(mu, GridSpec(2, h))
        assert w1_exact(atomize(lam), mu).distance <= np.sqrt(2) * h + 1e-12


class TestMassAndMoments:
    def test_total_mass_examples(self):
        assert total_mass(GridMeasure(GridSpec(1, 0.5), [[0]], [2.0])) == 1.0
        empty = GridMeasure(GridSpec(1, 1.0), np.empty((0, 1)), [])
        assert total_mass(empty) == 0.0

    def test_atomic_moments(self):
        assert moment(AtomicMeasure([[0.0, 3.0]], [1.0]), 1) == 3.0
        assert moment(AtomicMeasure([[-1.0], [1.0]]), 2) == 1.0

    def test_grid_moment_cell_center_quadrature(self):
        h = 0.01
        lam = GridMeasure(GridSpec(1, h), [[i] for i in range(100)], [1.0] * 100)
        # analytic integral of |x| over [0,1) is 0.5; frozen quadrature 0.495
        assert moment(lam, 1) == pytest.approx(0.495, abs=1e-12)
        assert abs(moment(lam, 1) - 0.5) <= h

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_moments_match_the_norm_form(self, d):
        # |x| comes from sq_norm, with the bits of np.linalg.norm
        rng = np.random.default_rng(d)
        w = rng.random(50) + 0.1
        mu = AtomicMeasure(rng.normal(size=(50, d)) * 10.0 ** rng.integers(-3, 4, size=(50, 1)),
                           w / w.sum())
        lam = GridMeasure(GridSpec(d, 0.01), rng.integers(-500, 500, size=(50, d)),
                          rng.random(50) + 0.1)
        for p in (1, 2):
            r = np.linalg.norm(mu.positions, axis=1)
            assert moment(mu, p) == float(np.dot(mu.weights, r ** p))
            r = np.linalg.norm(lam.centers(), axis=1)
            assert moment(lam, p) == float(np.dot(lam.cell_masses(), r ** p))

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            moment(AtomicMeasure([[0.0]]), 3)

    def test_unsupported_measure_type(self):
        with pytest.raises(TypeError, match="unsupported measure type"):
            moment(np.zeros((2, 1)), 1)


class TestAtomize:
    def test_single_cell(self):
        am = atomize(GridMeasure(GridSpec(1, 1.0), [[0]], [1.0]))
        assert am.positions.tolist() == [[0.0]] and am.weights.tolist() == [1.0]

    def test_two_cells(self):
        am = atomize(GridMeasure(GridSpec(1, 0.5), [[0], [1]], [1.0, 1.0]))
        assert am.positions[:, 0].tolist() == [0.0, 0.5]
        assert am.weights.tolist() == [0.5, 0.5]

    def test_snaps_to_cell_center(self):
        am = atomize(project_atomic(AtomicMeasure([[0.2]]), GridSpec(1, 1.0)))
        assert am.positions.tolist() == [[0.0]] and am.weights.tolist() == [1.0]

    def test_weight_sum_matches_total_mass_bitwise(self):
        rng = np.random.default_rng(3)
        lam = project_atomic(AtomicMeasure(rng.uniform(size=(30, 2))), GridSpec(2, 0.17))
        assert float(np.sum(atomize(lam).weights)) == total_mass(lam)


class TestInterpolate:
    """The linear-in-time interpolant sample_at forms between two frames at
    the weight theta of the later one."""

    def setup_method(self):
        spec = GridSpec(1, 0.5)
        self.a = GridMeasure(spec, [[0], [1]], [2.0, 0.0])
        self.b = GridMeasure(spec, [[0], [1]], [0.0, 2.0])

    def test_endpoints_exact(self):
        # the frame of weight 0 adds only zero densities, which are dropped
        for theta, frame in ((0.0, self.a), (1.0, self.b)):
            lam = sample_at(self.a, self.b, theta)
            assert lam.indices.tobytes() == frame.indices.tobytes()
            assert lam.rho.tobytes() == frame.rho.tobytes()

    def test_midpoint(self):
        mid = sample_at(self.a, self.b, 0.5)
        assert density(mid) == {(0,): 1.0, (1,): 1.0}

    def test_spec_mismatch(self):
        other = GridMeasure(GridSpec(1, 0.25), [[0]], [4.0])
        with pytest.raises(ValueError, match="different grids"):
            sample_at(self.a, other, 0.5)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_mass_and_positivity_preserved(self, theta):
        lam = sample_at(self.a, self.b, theta)
        assert abs(total_mass(lam) - 1.0) <= 1e-12
        assert np.all(lam.rho >= 0)


class TestValidationAndIO:
    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            GridMeasure(GridSpec(1, 1.0), [[0]], [-1.0])

    def test_zero_weight_atoms_dropped(self):
        mu = AtomicMeasure([[0.0], [1.0]], [1.0, 0.0])
        assert mu.n_atoms == 1

    def test_constructor_copies_frozen_and_writeable_weights(self):
        # another measure's frozen weights are copied too: only moved shares them
        mu = AtomicMeasure([[0.0], [1.0]], [0.25, 0.75])
        copied = AtomicMeasure([[0.5], [1.5]], mu.weights).weights
        assert copied is not mu.weights and not np.shares_memory(copied, mu.weights)
        assert copied.tolist() == [0.25, 0.75] and not copied.flags.writeable
        w = np.array([0.25, 0.75])
        nu = AtomicMeasure([[0.0], [1.0]], w)
        w[0] = 0.5
        assert nu.weights.tolist() == [0.25, 0.75]
        assert not nu.weights.flags.writeable

    def test_moved_shares_weights_and_freezes_a_copy(self):
        mu = AtomicMeasure([[0.0, 1.0], [1.0, 2.0]], [0.25, 0.75])
        x = np.array([[0.5, 1.5], [2.0, -1.0]])
        nu = mu.moved(x)
        assert nu.weights is mu.weights
        assert type(nu) is AtomicMeasure and nu.n_atoms == 2 and nu.dim == 2
        assert nu.positions.tobytes() == x.tobytes()
        assert not nu.positions.flags.writeable
        x[0, 0] = 9.0  # the caller's array stays the caller's
        assert nu.positions[0, 0] == 0.5 and x.flags.writeable
        assert mu.positions.tolist() == [[0.0, 1.0], [1.0, 2.0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_moved_refuses_non_finite_positions(self, bad):
        mu = AtomicMeasure([[0.0], [1.0]])
        with pytest.raises(ValueError, match="finite"):
            mu.moved([[0.5], [bad]])

    @pytest.mark.parametrize("shape", [(3, 1), (2, 2), (2,), (1, 2)])
    def test_moved_refuses_a_shape_change(self, shape):
        mu = AtomicMeasure([[0.0], [1.0]])
        with pytest.raises(ValueError, match="shape"):
            mu.moved(np.zeros(shape))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            AtomicMeasure([[0.0]], [0.5])

    def test_one_mass_rule_for_grid_and_atomic_measures(self):
        # |total - 1| <= MASS_TOL for both kinds of measure, one error type for
        # both: a ValueError at load and a numerical invariant in a run
        assert MASS_TOL == 1e-10
        for excess in (5e-11, -5e-11):
            AtomicMeasure([[0.0], [1.0]], [0.5, 0.5 + excess])
            lam = GridMeasure(GridSpec(1, 0.5), [[0], [1]], [1.0, 1.0 + 2 * excess])
            check_mass(total_mass(lam), "the grid measure")
        for excess in (2e-10, -2e-10):
            with pytest.raises(MassError, match="the weights"):
                AtomicMeasure([[0.0], [1.0]], [0.5, 0.5 + excess])
            lam = GridMeasure(GridSpec(1, 0.5), [[0], [1]], [1.0, 1.0 + 2 * excess])
            with pytest.raises(MassError, match="the grid measure"):
                check_mass(total_mass(lam), "the grid measure")
        assert issubclass(MassError, NumericalInvariantError)
        assert issubclass(MassError, ValueError)

    @pytest.mark.parametrize("values", [[0.5, -0.1, 0.6], [0.5, math.nan, 0.5],
                                        [0.5, math.inf, 0.5]])
    def test_one_weight_check_for_grid_and_atomic_measures(self, values):
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            AtomicMeasure([[0.0], [1.0], [2.0]], values)
        with pytest.raises(ValueError, match="densities must be finite and nonnegative"):
            GridMeasure(GridSpec(1, 1.0), [[0], [1], [2]], values)

    def test_indices_and_rho_must_have_one_length(self):
        with pytest.raises(ValueError, match="same length"):
            GridMeasure(GridSpec(1, 1.0), [[0], [1]], [1.0])

    def test_zero_densities_dropped(self):
        lam = GridMeasure(GridSpec(1, 1.0), [[2], [0], [1]], [0.5, 0.0, 0.5])
        assert lam.indices.tolist() == [[1], [2]]
        assert GridMeasure(GridSpec(1, 1.0), [[0]], [0.0]).occupied == 0

    def test_density_csv_roundtrip(self, tmp_path):
        lam = project_atomic(AtomicMeasure([[0.1, 0.2], [0.8, -0.4]]), GridSpec(2, 0.25))
        path = tmp_path / "rho.csv"
        write_density_csv(lam, path)
        back = read_density_csv(lam.spec, path)
        assert density(back) == density(lam)

    def test_atomic_json_roundtrip(self):
        mu = AtomicMeasure([[0.1, 0.2], [0.3, 0.4]], [0.25, 0.75])
        back = atomic_from_json(mu.to_json())
        np.testing.assert_array_equal(back.positions, mu.positions)
        np.testing.assert_array_equal(back.weights, mu.weights)


def csv_writer_text(rows) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def write_density_csv_loop(lam, path) -> None:
    """The csv.writer loop that write_density_csv replaced, kept as its reference."""
    d = lam.spec.dim
    header = [f"index_{l}" for l in range(d)] + [f"center_{l}" for l in range(d)] + ["rho"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, c, r in zip(lam.indices, lam.centers(), lam.rho):
            w.writerow([*(int(v) for v in i), *(repr(float(v)) for v in c), repr(float(r))])


FLOATS = st.one_of(st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300]),
                   st.floats(allow_nan=False, allow_infinity=False))


def csv_column(n):
    """n fields of one column: ints, as str, or finite floats, as repr."""
    ints = st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n)
    floats = st.lists(FLOATS, min_size=n, max_size=n)
    return st.one_of(ints.map(lambda c: [str(v) for v in c]),
                     floats.map(lambda c: [repr(v) for v in c]))


class TestCsvText:
    @given(st.integers(0, 8).flatmap(lambda n: st.lists(csv_column(n), min_size=1, max_size=6)))
    @example([[]])
    @example([["-0.0", "5e-324", "1e+300"], ["-3", "0", "-9223372036854775808"]])
    @settings(max_examples=300, deadline=None)
    def test_matches_csv_writer(self, columns):
        rows = list(zip(*columns))
        assert csv_text(rows) == csv_writer_text(rows)

    @given(st.integers(1, 3), st.integers(1, 60), st.floats(0.01, 10.0),
           st.floats(1e-3, 1e3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_density_csv_matches_csv_writer_loop(self, tmp_path, d, n, h, scale, seed):
        rng = np.random.default_rng(seed)
        lam = project_atomic(AtomicMeasure(scale * rng.normal(size=(n, d))), GridSpec(d, h))
        write_density_csv(lam, tmp_path / "new.csv")
        write_density_csv_loop(lam, tmp_path / "loop.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
