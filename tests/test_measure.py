"""Discrete measures: construction, masses, atoms, serialization."""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak_rise
from siolab import kernels, measure, mollifiers
from siolab.errors import ParameterError, SchemaError

_AWKWARD = np.array([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.5, -1.5, 2.0, -2.0])


def _float_rows(pts):
    """One structured value per row: rows compare as floats, so 0.0 and -0.0
    agree, and sort in lexicographic float order."""
    pts = np.ascontiguousarray(pts)
    return pts.view([("", float)] * pts.shape[1]).ravel()


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


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

    def test_signed_zero_twins_rejected(self):
        # 0.0 and -0.0 are one point, as in shared_point_indices
        with pytest.raises(ParameterError, match="pairwise distinct"):
            measure.from_points([[0.0, 1.0], [-0.0, 1.0]], [1.0, 1.0])

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(1, 40),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    def test_distinctness_agrees_with_the_float_row_comparison(
        self, seed, dimension, n, duplicates, zero_twins
    ):
        # oracle: np.unique of rows compared as floats (the structured view)
        rng = np.random.default_rng(seed)
        pts = rng.integers(-2, 3, (n, dimension)) * rng.choice([0.5, 1.0], (n, dimension))
        for _ in range(duplicates):  # an exact copy of one row
            pts = np.vstack([pts, pts[rng.integers(len(pts))]])
        for _ in range(zero_twins):  # a copy of a row with its zeros' signs flipped
            row = pts[rng.integers(len(pts))]
            pts = np.vstack([pts, np.where(row == 0, -row, row)])
        pts = pts[rng.permutation(len(pts))]
        distinct = len(np.unique(_float_rows(pts))) == len(pts)
        try:
            measure.from_points(pts, np.ones(len(pts)))
            accepted = True
        except ParameterError:
            accepted = False
        assert accepted == distinct

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

    @pytest.mark.parametrize("side, h", [
        (1.0, 0.0), (1.0, np.nan), (1.0, np.inf), (1.0, -0.25),
        (0.0, 0.25), (np.nan, 0.25), (np.inf, 0.25),
    ])
    def test_spacing_and_side_must_be_finite_and_positive(self, side, h):
        with pytest.raises(ParameterError, match="finite and positive"):
            measure.lebesgue_grid(0.0, side, h)

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

    def test_cube_restriction_is_half_open(self):
        m = measure.from_points([[0.0], [0.5], [1.0]], [1.0, 1.0, 1.0])
        # 1.0 falls outside [0, 1)
        assert measure.restrict_to_cube(m, [0.0], 1.0).total_mass == 2.0
        assert measure.restrict_to_cube(m, [0.0], 1.0 + 1e-9).total_mass == 3.0

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

    def test_merge_of_offset_grids_drops_the_cell_size(self):
        # one spacing, but the cells of b sit halfway between those of a
        h = 2.0**-8
        merged = measure.merge(
            measure.lebesgue_grid(0.0, 1.0, h), measure.lebesgue_grid(h / 2, 1.0 - h, h)
        )
        assert merged.cell_size is None
        assert len(merged) == 2 * int(1.0 / h) - 1
        same = measure.merge(measure.lebesgue_grid(0.0, 1.0, h), measure.lebesgue_grid(1.0, 1.0, h))
        assert same.cell_size == h


class TestPointIdentity:
    """``measure._point_ids`` against the structured-view comparison of
    float rows, on signed zeros, subnormals and negative coordinates."""

    @staticmethod
    def _pair(seed, dimension, n, copies, twins):
        rng = np.random.default_rng(seed)
        a = rng.choice(_AWKWARD, (n, dimension))
        b = rng.choice(_AWKWARD, (int(rng.integers(n + 1)), dimension))
        for _ in range(copies):  # an exact copy of a row of a
            b = np.vstack([b, a[rng.integers(n)]])
        for _ in range(twins):  # a row of a with its zeros' signs flipped
            row = a[rng.integers(n)]
            b = np.vstack([b, np.where(row == 0, -row, row)])
        return rng, a, b[rng.permutation(len(b))]

    @staticmethod
    def _distinct(pts):
        """The rows, each later float-equal repeat dropped."""
        return pts[np.sort(np.unique(_float_rows(pts), return_index=True)[1])]

    pairs = given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(1, 30),
        st.integers(0, 3),
        st.integers(0, 3),
    )

    @settings(max_examples=80, deadline=None)
    @pairs
    def test_ids_are_the_inverse_of_the_float_rows(self, seed, dimension, n, copies, twins):
        _, a, b = self._pair(seed, dimension, n, copies, twins)
        _, ids_a, ids_b = measure._point_ids(a, b)
        inverse = np.unique(_float_rows(np.vstack([a, b])), return_inverse=True)[1]
        assert np.array_equal(np.concatenate([ids_a, ids_b]), inverse.ravel())

    @settings(max_examples=80, deadline=None)
    @pairs
    def test_shared_points_common_atoms_and_merge_match_the_float_rows(
        self, seed, dimension, n, copies, twins
    ):
        rng, a, b = self._pair(seed, dimension, n, copies, twins)
        a, b = self._distinct(a), self._distinct(b)

        got = measure.shared_point_indices(a, b)
        want = np.intersect1d(_float_rows(a), _float_rows(b), return_indices=True)[1:]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        shared = a[got[0]]  # in lexicographic float order, negatives first
        assert np.array_equal(np.lexsort(shared.T[::-1]), np.arange(len(shared)))

        mu = measure.from_points(a, rng.uniform(0.5, 1.5, len(a)), rng.random(len(a)) < 0.5)
        nu = measure.from_points(b, rng.uniform(0.5, 1.5, len(b)), rng.random(len(b)) < 0.5)
        pa, pb = a[mu.atomic], b[nu.atomic]
        atoms = pa[np.isin(_float_rows(pa), _float_rows(pb))]
        atoms = atoms[np.lexsort(atoms.T[::-1])]
        got_atoms = measure.common_atoms(mu, nu)
        assert got_atoms.shape == atoms.shape
        assert np.array_equal(_bits(got_atoms), _bits(atoms))

        pts = np.vstack([a, b])
        _, first, inverse = np.unique(_float_rows(pts), return_index=True, return_inverse=True)
        weights = np.zeros(len(first))
        np.add.at(weights, inverse.ravel(), np.concatenate([mu.weights, nu.weights]))
        atomic = np.zeros(len(first), bool)
        np.logical_or.at(atomic, inverse.ravel(), np.concatenate([mu.atomic, nu.atomic]))
        merged = measure.merge(mu, nu)
        assert np.array_equal(_bits(merged.points), _bits(pts[first]))
        assert np.array_equal(_bits(merged.weights), _bits(weights))
        assert np.array_equal(merged.atomic, atomic)


class TestIntegral:
    @pytest.mark.parametrize("value", [3, 3.0, "3", np.int64(3), np.float64(3.0)])
    def test_integral_values_are_the_integer(self, value):
        number = measure.integral(value)
        assert number == 3 and type(number) is int

    @pytest.mark.parametrize("value", [3.5, "3.5", -0.5, float("nan"), float("inf"), [3]])
    def test_other_values_raise(self, value):
        with pytest.raises((ValueError, TypeError, OverflowError)):
            measure.integral(value)


# a valid value for each required key of a catalog
_REQUIRED_VALUES = {"alpha": 1.5, "n": 2, "delta": 0.5, "base": "gaussian", "k": 2}
_CATALOGS = [
    (kernels._CATALOG, "kernel", {}),
    (mollifiers._CATALOG, "mollifier", {}),
    (measure.GENERATORS, "measure", {"seed": 0}),
]


def _fingerprint(built):
    """What tells two built kernels, mollifiers or measures apart."""
    points = getattr(built, "points", np.empty(0))
    return built.dimension, getattr(built, "name", None), points.tobytes()


class TestInlineSpecs:
    @pytest.mark.parametrize("catalog, what, fixed, name", [
        pytest.param(catalog, what, fixed, name, id=f"{what}-{name}")
        for catalog, what, fixed in _CATALOGS for name in catalog
    ])
    def test_catalog_entry(self, catalog, what, fixed, name):
        keys = catalog[name][1]
        required = {
            key: _REQUIRED_VALUES[key]
            for key, (default, _) in keys.items() if default is measure.REQUIRED
        }
        assert measure.build(name, required, catalog, what, **fixed) is not None
        with pytest.raises(ParameterError, match=f"unknown {what} {name} parameter 'extra'"):
            measure.build(name, {**required, "extra": 1}, catalog, what, **fixed)
        for key in required:
            fewer = {k: v for k, v in required.items() if k != key}
            with pytest.raises(ParameterError, match=f"{what} {name} needs parameter {key}"):
                measure.build(name, fewer, catalog, what, **fixed)

    @pytest.mark.parametrize("spec, lower, catalog, what, fixed", [
        ("riesz:alpha=1,N=2", "riesz:alpha=1,n=2", *_CATALOGS[0]),
        ("annulus: Delta=0.5 ,N=2", "annulus:delta=0.5,n=2", *_CATALOGS[1]),
        ("ball_uniform:N=5,Center=1;2", "ball_uniform:n=5,center=1;2", *_CATALOGS[2]),
    ])
    def test_keys_are_case_insensitive(self, spec, lower, catalog, what, fixed):
        assert _fingerprint(measure.from_spec(spec, catalog, what, **fixed)) == (
            _fingerprint(measure.from_spec(lower, catalog, what, **fixed))
        )

    def test_values_are_typed(self):
        assert measure.spec_arguments("a=3, b = 2.5 ,c= x ,d=1;2.5;y", "spec") == {
            "a": 3, "b": 2.5, "c": "x", "d": [1, 2.5, "y"],
        }

    def test_spec_must_be_text(self):
        with pytest.raises(ParameterError, match="kernel spec must be a string"):
            kernels.kernel_from_name(3)

    def test_random_generators_draw_as_before(self):
        # the draws of default_rng(seed), in the order the generators made them
        rng = np.random.default_rng(4)
        points = rng.uniform(2.0, 3.0, (6, 2))
        weights = rng.uniform(0.5, 1.5, 6) / 6
        atoms = measure.generate_measure(
            "random_atoms", {"n": 6, "low": 2, "high": 3, "dimension": 2}, 4
        )
        assert _bits(atoms.points).tobytes() == _bits(points).tobytes()
        assert _bits(atoms.weights).tobytes() == _bits(weights).tobytes()
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((5, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        points = np.array([1.0, 2.0, 3.0]) + raw * (0.5 * rng.random(5) ** (1.0 / 3))[:, None]
        ball = measure.generate_measure(
            "ball_uniform", {"n": 5, "radius": 0.5, "center": [1, 2, 3], "dimension": 3}, 4
        )
        assert _bits(ball.points).tobytes() == _bits(points).tobytes()


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
    left = measure.restrict_to_cube(m, [-200.0], 200.0).total_mass
    right = measure.restrict_to_cube(m, [0.0], 200.0 + 1.0).total_mass
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


# -- neighbour search ----------------------------------------------------------


def brute_force_neighbours(points, radius):
    """Oracle: the closest gap and the (i, j) pairs within ``radius``, read
    off the full ``pairwise_distances`` table."""
    d = measure.pairwise_distances(points, points)
    i, j = np.triu_indices(len(points), 1)
    upper = d[i, j]
    gap = float(upper.min()) if len(upper) else np.inf
    within = upper <= radius
    return gap, i[within], j[within]


@st.composite
def point_clouds(draw):
    """Distinct rows in 1-3 dimensions: lattice points (many pairs exactly
    at the closest gap and at twice it) or arbitrary floats."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        h = draw(st.sampled_from([1.0, 0.1, 2.0**-3, 3.0, 1e-4]))
        coords = st.integers(-5, 5).map(lambda k: k * h)
    else:
        coords = st.floats(-10, 10, allow_nan=False, allow_subnormal=False)
    rows = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), max_size=n))
    points = np.unique(np.array(rows, dtype=float).reshape(-1, dim), axis=0)
    return points[draw(st.permutations(range(len(points))))]


def sort_per_offset_cell_pairs(cells_a, cells_b, offset, limit=math.inf):
    """Oracle: the cube join that sorts both sides again for every offset,
    matching the rows of cells_a + offset and cells_b through ``_row_ids``."""
    rows, ids_a, ids_b = measure._row_ids(np.asarray(cells_a) + offset, cells_b)
    per_id = np.bincount(ids_b, minlength=len(rows))
    counts = per_id[ids_a]
    if counts.sum() > limit:
        return None
    first = (np.cumsum(per_id) - per_id)[ids_a]
    starts = np.cumsum(counts) - counts
    ia = np.repeat(np.arange(len(ids_a)), counts)
    order = np.argsort(ids_b, kind="stable")
    return ia, order[np.arange(len(ia)) - np.repeat(starts - first, counts)]


class TestNeighbourSearch:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_cell_join_matches_a_sort_per_offset(self, dim, seed, clamped, same):
        # small integer rows with many repeats, and rows at the +-2^62
        # clamp of _near_pairs; one join serves every offset and limit
        rng = np.random.default_rng(seed)
        a, b = (rng.integers(-3, 4, (rng.integers(0, 30), dim)) for _ in range(2))
        if clamped:
            for cells in (a, b):
                cells[rng.random(cells.shape) < 0.2] = rng.choice([-(2**62), 2**62])
        if same:
            b = a
        join = measure._cell_join(a, b)
        for offset in itertools.product((-1, 0, 1), repeat=dim):
            for limit in (math.inf, int(rng.integers(0, 2 * len(a) + 1))):
                want = sort_per_offset_cell_pairs(a, b, offset, limit)
                # the rows were sorted when the join was made
                with mock.patch.object(np, "lexsort", side_effect=AssertionError), \
                        mock.patch.object(np, "unique", side_effect=AssertionError), \
                        mock.patch.object(np, "argsort", side_effect=AssertionError):
                    got = join(offset, limit)
                if want is None:
                    assert got is None
                else:
                    assert got[0].dtype == got[1].dtype == np.int64
                    assert np.array_equal(got[0], want[0])
                    assert np.array_equal(got[1], want[1])

    @settings(max_examples=300, deadline=None)
    @given(point_clouds(), st.sampled_from([1.0, 2.0, 2.0 * (1.0 + 1e-12), 3.7]))
    # sparse clouds whose closest pair is two cubes apart at the first side
    @example(np.array([[-18.0, -18.0], [-12.0, 12.0], [-6.0, -18.0], [0.0, 3.0], [6.0, 15.0]]), 1.0)
    @example(np.array([[-0.1], [0.1], [0.2], [0.30000000000000004], [0.4]]), 2.0)
    def test_matches_brute_force_oracle(self, points, scale):
        gap = measure.closest_gap(points)
        radius = scale * gap if np.isfinite(gap) else 1.0
        want_gap, want_i, want_j = brute_force_neighbours(points, radius)
        assert gap == want_gap
        i, j = measure.close_pairs(points, radius)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)

    def test_lattice_ties_at_the_gap_and_twice_it(self):
        points = measure.lebesgue_grid([0.0, 0.0], 1.0, 0.125, dimension=2).points
        assert measure.closest_gap(points) == 0.125
        want = brute_force_neighbours(points, 0.25)
        i, j = measure.close_pairs(points, 0.25)
        assert np.array_equal(i, want[1]) and np.array_equal(j, want[2])
        # on the 8 x 8 grid: 2 * 8 * 7 pairs at 0.125, 2 * 7 * 7 diagonal
        # pairs at 0.125 * sqrt(2), and 2 * 8 * 6 pairs at exactly 0.25
        assert len(i) == 2 * 8 * 7 + 2 * 7 * 7 + 2 * 8 * 6

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_points(self, n):
        points = np.array([[0.5, -1.0], [2.0, 3.0]])[:n]
        gap = measure.closest_gap(points)
        i, j = measure.close_pairs(points, 10.0)
        if n < 2:
            assert gap == np.inf
            assert len(i) == len(j) == 0
        else:
            assert gap == measure.pairwise_distances(points[:1], points[1:])[0, 0]
            assert (i.tolist(), j.tolist()) == ([0], [1])

    def test_tight_cluster_with_far_outlier_holds_no_table(self):
        rng = np.random.default_rng(7)
        n = 1500
        points = np.vstack([rng.uniform(0.0, 1e-6, (n - 1, 2)), [[1e3, -1e3]]])
        (gap, (i, j)), rise = traced_peak_rise(
            lambda: (g := measure.closest_gap(points), measure.close_pairs(points, 2 * g))
        )
        assert rise < 8 * n * n  # one n x n float64 table
        want_gap, want_i, want_j = brute_force_neighbours(points, 2 * gap)
        assert gap == want_gap
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
