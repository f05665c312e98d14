"""Separated half-and-half partitions of dyadic cubes."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_measure
from siolab import measure, splitter
from siolab.errors import (
    CommonAtomsError,
    ParameterError,
    ResolutionError,
    SchemaError,
    ShrinkRetryError,
)


def brute_force_balance(partition, sigma, level):
    """Oracle: per-cube masses of the two halves, computed from raw points."""
    in1, in2 = partition.indicator(sigma.points)
    cube_idx = np.floor(sigma.points * 2.0**level).astype(np.int64)
    keys = [tuple(row) for row in cube_idx]
    per_cube = {}
    for key, w, a, b in zip(keys, sigma.weights, in1, in2):
        tot, m1, m2 = per_cube.get(key, (0.0, 0.0, 0.0))
        per_cube[key] = (tot + w, m1 + w * a, m2 + w * b)
    return per_cube


class TestBuildPartition:
    def test_balance_against_brute_force(self):
        sigma = measure.lebesgue_grid(0.0, 1.0, 2.0**-10)
        for level in (1, 2, 3):
            part = splitter.build_partition(sigma, level)
            per_cube = brute_force_balance(part, sigma, level)
            threshold = 2.0**-level
            for key, (tot, m1, m2) in per_cube.items():
                assert abs(m1 - tot / 2) < threshold * tot
                assert abs(m2 - tot / 2) < threshold * tot

    @staticmethod
    def _shifted_cells(offset):
        # 256 equal weights, one point per cell of size 2^-8, each
        # at ``offset`` of its cell: the shrink cuts off the ones near 1
        i = np.arange(256)
        return measure.from_points(((i + offset) / 256)[:, None], np.ones(256))

    def test_shrink_retry_moves_tau_until_balanced(self):
        sigma = self._shifted_cells(0.999)
        part = splitter.build_partition(sigma, 3)
        # three halvings of 1 - tau from the default 2^-8
        assert splitter.DEFAULT_TAU == 1.0 - 2.0**-8
        assert part.tau == 1.0 - 2.0**-11
        checks = splitter.verify_partition(part, sigma)
        assert all(ok for ok, _ in checks.values()), checks
        in1, in2 = part.indicator(sigma.points)
        assert np.all(in1 ^ in2)

    def test_shrink_retry_gives_up(self):
        sigma = self._shifted_cells(1.0 - 2.0**-40)
        with pytest.raises(ShrinkRetryError, match="after 20 shrink retries"):
            splitter.build_partition(sigma, 3)

    def test_halves_cover_everything(self):
        sigma = measure.lebesgue_grid(0.0, 1.0, 2.0**-9)
        part = splitter.build_partition(sigma, 2)
        in1, in2 = part.indicator(sigma.points)
        # grid centers sit strictly inside the shrunken cubes, so the two
        # halves partition the support exactly
        assert np.all(in1 ^ in2)

    def test_separation_is_positive_and_achieved(self):
        sigma = measure.lebesgue_grid([0.0, 0.0], 1.0, 2.0**-5, dimension=2)
        part = splitter.build_partition(sigma, 1)
        assert part.separation == pytest.approx(
            (1.0 - part.tau) * part.delta
        )
        assert part.separation > 0
        in1, in2 = part.indicator(sigma.points)
        a = sigma.points[in1]
        b = sigma.points[in2]
        # oracle: min pairwise distance between the realized halves
        gaps = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
        assert gaps.min() >= part.separation - 1e-15

    def test_deterministic(self):
        sigma = measure.lebesgue_grid(0.0, 1.0, 2.0**-8)
        d1 = splitter.partition_to_dict(splitter.build_partition(sigma, 3))
        d2 = splitter.partition_to_dict(splitter.build_partition(sigma, 3))
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_too_coarse_resolution_raises(self):
        sigma = measure.lebesgue_grid(0.0, 1.0, 0.25)
        with pytest.raises(ResolutionError):
            splitter.build_partition(sigma, 5)

    def test_tau_validation(self):
        sigma = measure.lebesgue_grid(0.0, 1.0, 2.0**-6)
        for bad in (0.0, 1.0, 1.5, -0.25):
            with pytest.raises(ParameterError):
                splitter.build_partition(sigma, 2, tau=bad)

    def test_verify_partition_all_checks_pass(self):
        sigma = measure.lebesgue_grid(0.0, 1.0, 2.0**-10)
        part = splitter.build_partition(sigma, 3)
        checks = splitter.verify_partition(part, sigma)
        assert all(ok for ok, _ in checks.values()), checks

    def test_random_density_measure(self):
        rng = np.random.default_rng(21)
        steps = rng.uniform(0.2, 2.0, 32)
        density = lambda x: steps[
            np.clip((x[:, 0] * 32).astype(int), 0, 31)
        ]
        sigma = measure.density_grid(density, 0.0, 1.0, 2.0**-11)
        part = splitter.build_partition(sigma, 4)
        per_cube = brute_force_balance(part, sigma, 4)
        for key, (tot, m1, m2) in per_cube.items():
            assert abs(m1 - tot / 2) < 2.0**-4 * tot


    def test_verify_rejects_halves_sharing_a_cube(self):
        sigma = measure.lebesgue_grid([0.0, 0.0], 1.0, 2.0**-5, dimension=2)
        part = splitter.build_partition(sigma, 1)
        shared = dataclasses.replace(
            part, e2_indices=np.vstack([part.e2_indices, part.e1_indices[-1:]])
        )
        checks = splitter.verify_partition(shared)
        assert not checks["halves_disjoint"][0]
        assert not checks["separation"][0]

    def test_verify_rejects_overstated_separation(self):
        sigma = measure.lebesgue_grid([0.0, 0.0], 1.0, 2.0**-5, dimension=2)
        part = splitter.build_partition(sigma, 1)
        # adjacent cubes of opposite halves realize exactly (1 - tau) * delta
        overstated = dataclasses.replace(part, separation=2 * part.separation)
        checks = splitter.verify_partition(overstated, sigma)
        assert not checks["separation"][0]
        assert all(ok for name, (ok, _) in checks.items() if name != "separation")


def brute_force_cube_distance(idx1, idx2, delta, tau):
    """Oracle: minimum box gap over all pairs of shrunken fine cubes."""
    best = math.inf
    for a in idx1:
        for b in idx2:
            gaps = np.maximum(0.0, np.abs(a - b) * delta - tau * delta)
            best = min(best, float(np.linalg.norm(gaps)))
    return best


@st.composite
def cube_index_sets(draw):
    """Two index sets near 0 and near +-2^40, optionally moved >= 2 cells apart."""
    dim = draw(st.integers(1, 3))
    row = st.tuples(
        st.sampled_from([0, 2**40, -(2**40)]),
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
    ).map(lambda r: [r[0] + c for c in r[1]])
    idx1 = np.array(draw(st.lists(row, max_size=10)), dtype=np.int64).reshape(-1, dim)
    idx2 = np.array(draw(st.lists(row, max_size=10)), dtype=np.int64).reshape(-1, dim)
    apart = draw(st.sampled_from([None, None, 2, 3]))
    if apart is not None and len(idx1) and len(idx2):
        # move idx2 so every pair is at least ``apart`` cells apart on axis 0
        idx2[:, 0] += idx1[:, 0].max() - idx2[:, 0].min() + apart
    return idx1, idx2


@settings(max_examples=300, deadline=None)
@given(
    cube_index_sets(),
    st.integers(0, 12),
    st.sampled_from([splitter.DEFAULT_TAU, 0.75, 0.5, 0.125]),
)
@example((np.array([[0, 0]]), np.array([[1, 1]])), 0, 0.5)
@example((np.array([[2**40, 0, 0]]), np.array([[0, 0, 0]])), 3, 0.5)
def test_cube_set_min_distance_matches_brute_force(sets, level, tau):
    idx1, idx2 = sets
    delta = 2.0**-level
    got = splitter._cube_set_min_distance(idx1, idx2, delta, tau)
    if len(idx1) == 0 or len(idx2) == 0:
        assert got == math.inf
        return
    exact = brute_force_cube_distance(idx1, idx2, delta, tau)
    # pairs two or more cells apart on an axis are reported as the cap
    # (2 - tau) * delta, a lower bound on their distance
    assert got == min(exact, (2.0 - tau) * delta)
    assert got <= exact


@settings(max_examples=100, deadline=None)
@given(cube_index_sets())
def test_row_ids_number_distinct_rows_in_lexicographic_order(sets):
    idx1, idx2 = sets
    distinct, ids1, ids2 = splitter._row_ids(idx1, idx2)
    uniq, inverse = np.unique(
        np.vstack([idx1, idx2]), axis=0, return_inverse=True
    )
    assert np.array_equal(distinct, uniq)
    assert np.array_equal(np.concatenate([ids1, ids2]), inverse.ravel())


class TestAtomAware:
    @staticmethod
    def _mixed_pair(seed):
        rng = np.random.default_rng(seed)
        base = measure.lebesgue_grid(0.0, 1.0, 2.0**-9)
        atoms_mu = random_measure(rng, 4, atomic=True)
        atoms_nu = random_measure(rng, 3, atomic=True)
        return measure.merge(base, atoms_mu), measure.merge(base, atoms_nu)

    def test_verifies_with_atoms(self):
        mu, nu = self._mixed_pair(31)
        part = splitter.atom_aware_partition(mu, nu, 2)
        checks = splitter.verify_partition(part)
        assert all(ok for ok, _ in checks.values()), checks
        assert part.kind == "atom_aware"

    def test_atoms_adjoined_to_own_half_only(self):
        mu, nu = self._mixed_pair(32)
        part = splitter.atom_aware_partition(mu, nu, 2)
        if len(part.e1_atoms):
            in1, in2 = part.indicator(part.e1_atoms)
            assert np.all(in1) and not np.any(in2)
        if len(part.e2_atoms):
            in1, in2 = part.indicator(part.e2_atoms)
            assert np.all(in2) and not np.any(in1)

    def test_shared_atoms_rejected(self):
        atom = measure.from_points([[0.5]], [0.1], atomic=True)
        base = measure.lebesgue_grid(0.0, 1.0, 2.0**-8)
        mu = measure.merge(base, atom)
        nu = measure.merge(base, atom)
        with pytest.raises(CommonAtomsError, match=r"first at \(0\.5,\)$"):
            splitter.atom_aware_partition(mu, nu, 2)

    def test_carved_balls_stay_under_budget(self):
        mu, nu = self._mixed_pair(33)
        part = splitter.atom_aware_partition(mu, nu, 2)
        for ball in part.removed_balls:
            assert ball.sigma_mass < ball.budget


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        sigma = measure.lebesgue_grid([0.0, 0.0], 1.0, 2.0**-5, dimension=2)
        part = splitter.build_partition(sigma, 2)
        path = tmp_path / "part.json"
        splitter.save_partition(part, path)
        back = splitter.load_partition(path)
        assert np.array_equal(back.e1_indices, part.e1_indices)
        assert np.array_equal(back.e2_indices, part.e2_indices)
        assert back.grid == part.grid
        assert back.tau == part.tau
        checks = splitter.verify_partition(back, sigma)
        assert all(ok for ok, _ in checks.values())

    @pytest.mark.parametrize("whole", [True, False])
    def test_split_report_loads_as_its_partition(self, tmp_path, whole):
        # a split report nests the partition dict in its "report" body
        sigma = measure.lebesgue_grid([0.0, 0.0], 1.0, 2.0**-4, dimension=2)
        part = splitter.build_partition(sigma, 1)
        body = {"partition": splitter.partition_to_dict(part), "verification": {}}
        report = {"command": "split", "config": {}, "report": body} if whole else body
        path = tmp_path / "split.json"
        path.write_text(json.dumps(report))
        back = splitter.load_partition(path)
        assert np.array_equal(back.e1_indices, part.e1_indices)
        assert np.array_equal(back.e2_indices, part.e2_indices)
        assert (back.grid, back.tau) == (part.grid, part.tau)

    @pytest.mark.parametrize("text", ["{not json", None])
    def test_unreadable_file_is_a_schema_error(self, tmp_path, text):
        path = tmp_path / "part.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SchemaError, match="cannot read partition file"):
            splitter.load_partition(path)

    def test_save_is_deterministic(self, tmp_path):
        sigma = measure.lebesgue_grid(0.0, 1.0, 2.0**-8)
        part = splitter.build_partition(sigma, 2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        splitter.save_partition(part, a)
        splitter.save_partition(part, b)
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_separation_round_trips_as_strict_json(self, tmp_path):
        # an empty half has no nearest cube: separation is inf
        part = splitter.SeparatedPartition(
            splitter.DyadicGrid(1, 3, 2),
            0.5,
            np.array([[0, 0], [1, 3]], dtype=np.int64),
            np.empty((0, 2), dtype=np.int64),
            math.inf,
            {(0, 0): (0.0, 1.0)},
        )
        path = tmp_path / "part.json"
        splitter.save_partition(part, path)
        text = path.read_text()
        assert '"separation": "Infinity"' in text

        def reject(name):
            raise ValueError(f"bare {name} is not JSON")

        json.loads(text, parse_constant=reject)
        back = splitter.load_partition(path)
        assert back.separation == math.inf
        assert np.array_equal(back.e1_indices, part.e1_indices)
        assert back.e2_indices.shape == (0, 2)
        assert back.balance_report == part.balance_report


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_atom_measures_partition_cleanly(seed):
    rng = np.random.default_rng(seed)
    base = measure.lebesgue_grid(0.0, 1.0, 2.0**-9)
    mu = measure.merge(base, random_measure(rng, 3, atomic=True))
    nu = measure.merge(base, random_measure(rng, 2, atomic=True))
    try:
        part = splitter.atom_aware_partition(mu, nu, 2)
    except CommonAtomsError:
        return  # random draws may collide; rejection is the documented policy
    checks = splitter.verify_partition(part)
    assert all(ok for ok, _ in checks.values())
