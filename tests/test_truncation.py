"""Hard vs smooth truncations, the sign rule, and domination multipliers."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_measure
from siolab import forms, kernels, measure, mollifiers, muckenhoupt, truncation
from siolab.errors import (
    CommonAtomsError,
    NotSectorializableError,
    ParameterError,
)


class TestTruncate:
    """``truncate`` masks a sampled kernel matrix: rows are nu (s), columns
    mu (t)."""

    def test_zero_inside_closed_ball(self):
        nu = measure.from_points([[0.0]], [1.0])
        mu = measure.from_points([[0.5], [1.0], [1.5]], np.ones(3))
        km = kernels.materialize(kernels.make_hilbert(), mu, nu)
        hard = truncation.truncate(km, 1.0)
        assert hard.entries[0, 0] == 0.0
        assert hard.entries[0, 1] == 0.0  # boundary belongs to zero
        assert not np.signbit(hard.entries[0, :2]).any()
        assert hard.entries[0, 2] == pytest.approx(-2.0 / (3.0 * np.pi))

    def test_matches_base_kernel_outside(self):
        nu = measure.from_points([[0.0, 0.0]], [1.0])
        mu = measure.from_points([[1.0, 1.0], [0.25, -0.25], [-2.0, 0.5]], np.ones(3))
        km = kernels.materialize(kernels.make_cauchy(), mu, nu)
        hard = truncation.truncate(km, 0.5)
        assert np.array_equal(hard.entries[0, [0, 2]], km.entries[0, [0, 2]])
        assert np.array_equal(hard.entries[0, 1], [0.0, 0.0])
        # the layout of the sampled matrix is kept: component planes
        assert hard.entries.transpose(0, 2, 1).flags.c_contiguous
        assert (hard.mu, hard.nu, hard.value_dim) == (km.mu, km.nu, km.value_dim)

    def test_materializes_on_coincident_supports(self):
        # coincident pairs lie at distance 0, inside every ball: whatever
        # the policy wrote there, the truncation is zero
        m = measure.from_points([[0.0], [1.0]], [1, 1])
        for policy in (0.0, -2.5):
            km = kernels.materialize(kernels.make_hilbert(), m, m, diagonal_policy=policy)
            hard = truncation.truncate(km, 0.5)
            assert hard.entries[0, 0] == 0.0 and hard.entries[1, 1] == 0.0
            assert hard.entries[0, 1] == km.entries[0, 1] != 0.0

    def test_eps_validation(self):
        m = measure.from_points([[0.0], [1.0]], [1, 1])
        km = kernels.materialize(kernels.make_hilbert(), m, m, diagonal_policy=0.0)
        for eps in (0.0, -1.0, float("nan")):
            with pytest.raises(ParameterError):
                truncation.truncate(km, eps)

    def test_entries_match_kernel_masked_by_distances(self):
        # oracle: the kernel evaluated pair by pair, zeroed wherever
        # DiscreteMeasure.distances is at most eps
        rng = np.random.default_rng(8)
        mu = measure.from_points(rng.random((40, 2)), np.ones(40))
        nu = measure.from_points(rng.random((30, 2)), np.ones(30))
        k = kernels.make_ahlfors_beurling()
        km = kernels.materialize(k, mu, nu)
        d = mu.distances(nu.points)
        eps = float(np.sort(d.ravel())[200])  # one pair sits exactly on the boundary
        expected = np.where(
            (d > eps)[..., None], k(nu.points[:, None], mu.points[None]), 0.0
        )
        assert np.array_equal(truncation.truncate(km, eps).entries, expected)


class TestPlateauBump:
    def test_plateau_and_support(self):
        u = np.array([0.0, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 2.0])
        v = truncation.plateau_bump(u)
        assert v[0] == 0.0 and v[1] == 0.0
        assert v[3] == 1.0 and v[4] == 1.0 and v[5] == 1.0
        assert v[7] == 0.0 and v[8] == 0.0
        assert np.all((v >= 0.0) & (v <= 1.0))


class TestSignRule:
    """``_sign_rule`` on the scalar contractions <M_eps K>: the sign x0 and
    kappa = min x0 sign(d) over the nonzero samples d."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300)),
        min_size=1, max_size=12,
    ))
    @example([0.0, -0.0])
    @example([-2.0, 0.0, -1e-300])
    @example([3.0, 0.0, 5e-324])
    @example([1.0, -1.0, 0.0])
    def test_matches_brute_force_over_both_signs(self, values):
        samples = np.array(values)
        nonzero = [v for v in values if v != 0]
        if not nonzero:
            with pytest.raises(ParameterError, match="all samples are zero"):
                truncation._sign_rule(samples)
            return
        best = None
        for x0 in (1.0, -1.0):  # +1 first: ties go to +1
            kappa = min(x0 * math.copysign(1.0, v) for v in nonzero)
            if best is None or kappa > best[1]:
                best = (x0, kappa)
        assert truncation._sign_rule(samples) == best


class TestDominationHolds:
    def test_allowance_is_four_ulps_per_component_and_one(self):
        eps = np.finfo(float).eps
        for m in (1, 2, 3):
            allowance = 4.0 * (m + 1) * eps
            assert truncation.domination_holds(-allowance, 1.0, m)
            assert not truncation.domination_holds(-allowance * (1 + 1e-9), 1.0, m)
            assert truncation.domination_holds(1.0, 1.0, m)

    @pytest.mark.parametrize("margin, kappa", [
        (0.0, -1.0), (0.0, math.nan), (math.nan, 1.0),
    ])
    def test_kappa_one_and_a_margin_are_required(self, margin, kappa):
        assert not truncation.domination_holds(margin, kappa, 2)


class TestSectorialMultiplier:
    def test_cauchy_domination_is_exact_on_plateau(self):
        k = kernels.make_cauchy()
        M = truncation.build_sectorial_multiplier(k.profile, r=1.0, dimension=2)
        rng = np.random.default_rng(41)
        # pairs with |s - t| in the plateau [0.9, 1.0]
        s = rng.normal(size=(200, 2))
        radii = rng.uniform(0.9, 1.0, 200)
        angles = rng.uniform(0, 2 * np.pi, 200)
        t = s + radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        mk = np.sum(M(s, t) * k.evaluate(s, t), axis=-1)
        kk = np.linalg.norm(k.evaluate(s, t), axis=-1)
        # |B| = 1 on the circle, so M K = |K| exactly there
        assert np.allclose(mk, kk, rtol=1e-10)

    def test_vanishes_near_the_diagonal(self):
        k = kernels.make_cauchy()
        M = truncation.build_sectorial_multiplier(k.profile, r=1.0, dimension=2)
        s = np.array([[0.0, 0.0]])
        t = np.array([[0.1, 0.1]])  # |s - t| = 0.14 << 0.8
        assert np.allclose(M(s, t), 0.0)
        assert M.vanishes_at_zero

    def test_vanishing_spherical_profile_refused(self):
        spherical = lambda th: th[..., 0]  # vanishes at theta = (0, +-1)
        with pytest.raises(NotSectorializableError):
            truncation.build_sectorial_multiplier(spherical, r=1.0, dimension=2)


class TestCompareTruncations:
    @staticmethod
    def _interleaved_1d(h=2.0**-6):
        mu = measure.lebesgue_grid(0.0, 1.0, h)
        nu = measure.lebesgue_grid(h / 2.0, 1.0, h)
        return mu, nu

    def test_triangle_inequality_and_split(self):
        mu, nu = self._interleaved_1d()
        rows = truncation.compare_truncations(
            kernels.make_hilbert(), mu, nu, eps_list=[0.05, 0.2, 1.0]
        )
        for row in rows:
            assert row.norm_truncated <= (
                row.norm_smooth + row.norm_psi_part + 1e-9
            )
            assert row.norm_psi_part >= 0

    def test_scalar_kernel_reports_no_sector_data(self):
        mu, nu = self._interleaved_1d()
        (row,) = truncation.compare_truncations(
            kernels.make_hilbert(), mu, nu, eps_list=[0.1]
        )
        assert np.isnan(row.kappa)

    def test_vector_kernel_domination_margin(self):
        h = 2.0**-4
        mu = measure.lebesgue_grid([0.0, 0.0], 1.0, h, dimension=2)
        nu = measure.lebesgue_grid([h / 2, h / 2], 1.0, h, dimension=2)
        (row,) = truncation.compare_truncations(
            kernels.make_cauchy(), mu, nu, eps_list=[0.3]
        )
        assert row.annulus_pairs > 0
        assert row.kappa >= 1.0 - 1e-9
        assert row.domination_margin >= -1e-12

    @pytest.mark.parametrize("radius", [1.0, 1e-4])
    def test_margin_is_per_entry_relative_to_the_kernel(self, radius):
        # |K| ~ 1 / radius, so an absolute margin's rounding would grow by
        # 1e4 at the smaller radius, past any fixed allowance
        rng = np.random.default_rng(5)
        mu = measure.from_points(rng.uniform(-radius, radius, (120, 3)), np.ones(120))
        nu = measure.from_points(rng.uniform(-radius, radius, (100, 3)), np.ones(100))
        kernel = kernels.make_riesz_generalized(1.0, 3)
        (row,) = truncation.compare_truncations(kernel, mu, nu, eps_list=[radius])
        assert row.annulus_pairs > 0
        assert truncation.domination_holds(row.domination_margin, row.kappa, 3)
        # oracle: the same minimum from kernel.evaluate on the annulus pairs
        dist = mu.distances(nu.points)
        rows, cols = np.nonzero((dist >= 0.9 * radius) & (dist <= radius))
        s, t = nu.points[rows], mu.points[cols]
        values = kernel.evaluate(s, t)
        mult = truncation.build_sectorial_multiplier(kernel.profile, radius, 3)
        mags = np.linalg.norm(values, axis=-1)
        oracle = np.min((np.sum(mult(s, t) * values, axis=-1) - mags) / mags)
        assert abs(row.domination_margin - oracle) <= 8 * np.finfo(float).eps

    def test_no_annulus_pairs_gives_infinite_margin(self):
        mu = measure.from_points([[0.0, 0.0]], [1.0])
        nu = measure.from_points([[3.0, 4.0]], [1.0])
        (row,) = truncation.compare_truncations(
            kernels.make_cauchy(), mu, nu, eps_list=[0.1]
        )
        assert row.annulus_pairs == 0
        assert np.isinf(row.domination_margin)

    def test_small_eps_matches_untruncated_norm(self):
        # below the minimum support distance the hard truncation is the
        # whole kernel and the smooth one agrees on every populated pair
        mu, nu = self._interleaved_1d(h=2.0**-4)
        (row,) = truncation.compare_truncations(
            kernels.make_hilbert(), mu, nu, eps_list=[2.0**-6]
        )
        assert row.norm_truncated == pytest.approx(row.norm_smooth, rel=1e-9)
        assert row.norm_psi_part <= 1e-12

    @pytest.mark.parametrize("kind", ["hilbert", "cauchy"])
    def test_pair_at_distance_exactly_eps(self, kind):
        # the closed ball holds the pair at eps = d; just below d the hard
        # truncation is all of K, and the psi check agrees at both scales
        if kind == "hilbert":
            kernel, pts = kernels.make_hilbert(), ([[0.0]], [[0.3]])
        else:
            kernel, pts = kernels.make_cauchy(), ([[0.1, 0.2]], [[0.4, 0.6]])
        mu = measure.from_points(pts[0], [0.7])
        nu = measure.from_points(pts[1], [1.3])
        d = float(mu.distances(nu.points)[0, 0])
        at, below = truncation.compare_truncations(
            kernel, mu, nu, eps_list=[d, float(np.nextafter(d, 0.0))]
        )
        untruncated = forms.operator_norm(kernels.materialize(kernel, mu, nu)).value
        assert at.norm_truncated == 0.0
        assert below.norm_truncated == untruncated > 0.0

    def test_common_atoms_rejected(self):
        m = measure.from_points([[0.5], [0.25]], [1, 1], atomic=True)
        with pytest.raises(CommonAtomsError, match=r"first at \(0\.25,\)$"):
            truncation.compare_truncations(
                kernels.make_hilbert(), m, m, eps_list=[0.1]
            )

    def test_delta_validation(self):
        mu, nu = self._interleaved_1d()
        with pytest.raises(ParameterError):
            truncation.compare_truncations(
                kernels.make_hilbert(), mu, nu, delta=1.5
            )


def _counting(kernel):
    """The kernel with a counter of the rows of its ``sample_into`` calls."""
    calls = []

    def sample_into(s, t, out, work):
        calls.append(s.shape[1])
        kernel.sample_into(s, t, out, work)

    return dataclasses.replace(kernel, sample_into=sample_into), calls


@pytest.mark.parametrize("experiment", ["compare_truncations", "necessity_experiment"])
def test_every_scale_reweights_one_sampled_kernel(experiment):
    # one materialize per run, and the kernel evaluated only as often as
    # that one call evaluates it, however many scales the run has
    rng = np.random.default_rng(12)
    cloud = measure.from_points(rng.uniform(-0.25, 0.25, (60, 2)), np.full(60, 1 / 60))
    eps_list = [0.05, 0.1, 0.25]
    kernel, calls = _counting(kernels.make_cauchy())
    module = truncation if experiment == "compare_truncations" else muckenhoupt
    with mock.patch.object(kernels, "_CHUNK_BYTES", 2**12), mock.patch.object(
        module, "materialize", wraps=kernels.materialize
    ) as counted:
        if module is truncation:
            truncation.compare_truncations(kernel, cloud, cloud, eps_list=eps_list)
        else:
            muckenhoupt.necessity_experiment(kernel, cloud, cloud, 2.0, eps_list, max_balls=2)
        assert counted.call_count == 1
        run_calls = list(calls)
        calls.clear()
        kernels.materialize(kernel, cloud, cloud, diagonal_policy=0.0)
    assert len(calls) > 1 and run_calls == calls  # several blocks, sampled once
