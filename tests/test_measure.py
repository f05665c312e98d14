"""Discrete measures: construction, masses, atoms, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siolab import measure
from siolab.errors import ParameterError, SchemaError


class TestConstruction:
    def test_from_points_infers_dimension(self):
        m = measure.from_points([[0.0, 1.0], [2.0, 3.0]], [1.0, 2.0])
        assert m.dimension == 2
        assert len(m) == 2
        assert m.total_mass == pytest.approx(3.0)

    def test_flat_list_is_one_dimensional(self):
        m = measure.from_points([0.1, 0.2, 0.3], [1, 1, 1])
        assert m.dimension == 1
        assert m.points.shape == (3, 1)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ParameterError, match="pairwise distinct"):
            measure.from_points([[0.5], [0.5]], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.inf, np.nan])
    def test_weights_must_be_finite_positive(self, bad):
        with pytest.raises(ParameterError, match="finite and strictly positive"):
            measure.from_points([[0.1], [0.2]], [1.0, bad])

    def test_empty_measure_is_allowed(self):
        m = measure.from_points(np.empty((0, 2)), [])
        assert len(m) == 0
        assert m.total_mass == 0.0
        assert m.mass_in_ball([0.0, 0.0], 10.0) == 0.0

    def test_atomic_flag_broadcasts(self):
        m = measure.from_points([[0.0], [1.0]], [1, 1], atomic=True)
        assert m.atomic.all()
        m2 = measure.from_points([[0.0], [1.0]], [1, 1], atomic=[True, False])
        assert m2.atomic.tolist() == [True, False]


class TestGrids:
    def test_lebesgue_grid_total_mass(self):
        m = measure.lebesgue_grid(0.0, 1.0, 2.0**-6)
        assert m.total_mass == pytest.approx(1.0, rel=1e-12)
        assert len(m) == 64
        assert m.cell_size == 2.0**-6

    def test_lebesgue_grid_2d(self):
        m = measure.lebesgue_grid([0.0, 0.0], 1.0, 2.0**-3, dimension=2)
        assert len(m) == 64
        assert m.total_mass == pytest.approx(1.0, rel=1e-12)
        # cell centers stay inside the half-open cube
        assert np.all(m.points >= 0.0) and np.all(m.points < 1.0)

    def test_side_must_be_multiple_of_spacing(self):
        with pytest.raises(ParameterError, match="integer multiple"):
            measure.lebesgue_grid(0.0, 1.0, 0.3)

    def test_density_grid_drops_zero_cells(self):
        density = lambda x: np.where(x[:, 0] >= 0.5, 1.0, 0.0)
        m = measure.density_grid(density, 0.0, 1.0, 2.0**-4)
        assert len(m) == 8
        assert m.total_mass == pytest.approx(0.5, rel=1e-12)

    def test_density_grid_matches_quadrature(self):
        # oracle: midpoint rule for the mass of exp(-x) on [0, 1)
        h = 2.0**-8
        m = measure.density_grid(lambda x: np.exp(-x[:, 0]), 0.0, 1.0, h)
        centers = (np.arange(256) + 0.5) * h
        assert m.total_mass == pytest.approx(np.sum(np.exp(-centers)) * h, rel=1e-14)


class TestMasses:
    def test_mass_in_ball_is_strict(self):
        m = measure.from_points([[0.0], [1.0]], [1.0, 2.0])
        # the boundary point at distance exactly 1 is excluded (open ball)
        assert m.mass_in_ball([0.0], 1.0) == 1.0
        assert m.mass_in_ball([0.0], 1.0 + 1e-12) == 3.0

    def test_mass_in_cube_is_half_open(self):
        m = measure.from_points([[0.0], [0.5], [1.0]], [1.0, 1.0, 1.0])
        assert m.mass_in_cube([0.0], 1.0) == 2.0  # 1.0 falls outside [0, 1)
        assert m.mass_in_cube([0.0], 1.0 + 1e-9) == 3.0

    @pytest.mark.parametrize("dimension", [1, 2, 3, 7])
    def test_distances_match_linalg_norm_below_eight_dimensions(self, dimension):
        rng = np.random.default_rng(dimension)
        pts = rng.uniform(-1, 1, (20, dimension))
        centers = rng.uniform(-1, 1, (5, dimension))
        got = measure.pairwise_distances(pts, centers)
        oracle = np.linalg.norm(pts[None, :, :] - centers[:, None, :], axis=-1)
        assert np.array_equal(got, oracle)
        m = measure.from_points(pts, np.ones(20))
        assert np.array_equal(m.distances(centers), got)

    def test_restrict_to_cube(self):
        m = measure.lebesgue_grid(0.0, 1.0, 2.0**-4)
        r = measure.restrict_to_cube(m, [0.25], 0.5)
        assert len(r) == 8
        assert r.total_mass == pytest.approx(0.5, rel=1e-12)
        empty = measure.restrict_to_cube(m, [5.0], 1.0)
        assert len(empty) == 0


class TestAtoms:
    def test_merge_adds_coincident_weights(self):
        a = measure.from_points([[0.0], [1.0]], [1.0, 1.0])
        b = measure.from_points([[1.0], [2.0]], [3.0, 4.0])
        m = measure.merge(a, b)
        assert len(m) == 3
        assert m.total_mass == pytest.approx(9.0)
        idx = np.flatnonzero(m.points[:, 0] == 1.0)
        assert m.weights[idx[0]] == pytest.approx(4.0)

    def test_decompose_splits_mass(self):
        m = measure.from_points(
            [[0.0], [1.0], [2.0]], [1.0, 2.0, 4.0], atomic=[False, True, True]
        )
        d = measure.decompose(m)
        assert d.continuous.total_mass == pytest.approx(1.0)
        assert d.atoms.total_mass == pytest.approx(6.0)
        assert d.atoms.atomic.all()

    def test_common_atoms_exact_equality(self):
        a = measure.from_points([[0.5], [0.25]], [1, 1], atomic=True)
        b = measure.from_points([[0.5], [0.125]], [1, 1], atomic=True)
        shared = measure.common_atoms(a, b)
        assert shared.shape == (1, 1)
        assert shared[0, 0] == 0.5

    def test_common_atoms_ignores_non_atomic(self):
        a = measure.from_points([[0.5]], [1], atomic=False)
        b = measure.from_points([[0.5]], [1], atomic=True)
        assert len(measure.common_atoms(a, b)) == 0

    def test_project_function_parts_add_back(self):
        m = measure.from_points(
            [[0.0], [1.0], [2.0]], [1, 1, 1], atomic=[True, False, True]
        )
        v = np.array([1.0, 2.0, 3.0])
        cont = measure.project_function(v, m, "continuous")
        atom = measure.project_function(v, m, "atomic")
        assert np.array_equal(cont + atom, v)
        assert cont.tolist() == [0.0, 2.0, 0.0]


class TestSerialization:
    def test_round_trip_preserves_arrays_exactly(self, tmp_path):
        rng = np.random.default_rng(7)
        m = measure.from_points(
            rng.uniform(-3, 3, (17, 2)), rng.uniform(0.1, 2.0, 17),
            atomic=rng.integers(0, 2, 17).astype(bool),
        )
        path = tmp_path / "m.json"
        measure.save_measure(m, path)
        back = measure.load_measure(path)
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)
        assert np.array_equal(back.atomic, m.atomic)

    def test_save_is_deterministic(self, tmp_path):
        m = measure.lebesgue_grid(0.0, 1.0, 0.25)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        measure.save_measure(m, p1)
        measure.save_measure(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"points": [[0.0]]}')
        with pytest.raises(SchemaError):
            measure.load_measure(path)
        path.write_text("not json at all")
        with pytest.raises(SchemaError):
            measure.load_measure(path)

    def test_dict_round_trip(self):
        m = measure.from_points([[0.0], [0.5]], [1.0, 2.0], atomic=[True, False])
        back = measure.DiscreteMeasure.from_dict(
            json.loads(json.dumps(m.to_dict()))
        )
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)
        assert np.array_equal(back.atomic, m.atomic)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False),
            st.floats(0.001, 100, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
        unique_by=lambda t: t[0],
    )
)
def test_mass_additivity_property(entries):
    pts = [[x] for x, _ in entries]
    w = [wt for _, wt in entries]
    m = measure.from_points(pts, w)
    # splitting space at 0 partitions the mass exactly
    left = m.mass_in_cube([-200.0], 200.0)
    right = m.mass_in_cube([0.0], 200.0 + 1.0)
    assert left + right == pytest.approx(m.total_mass, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_serialization_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    m = measure.from_points(
        rng.normal(size=(n, 2)), rng.uniform(0.5, 1.5, n),
        atomic=rng.integers(0, 2, n).astype(bool),
    )
    back = measure.DiscreteMeasure.from_dict(m.to_dict())
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)
