"""Growth constants of Muckenhoupt type and the lower-bound experiment."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_measure, traced_peak_rise
from siolab import kernels, measure, mollifiers, muckenhoupt
from siolab.errors import (
    CommonAtomsError,
    ParameterError,
    ProfileBoundError,
    UsageError,
)


def disk_measure(seed, n=300, radius=0.25, center=(0.0, 0.0)):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, 2))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    rr = radius * np.sqrt(rng.random(n))
    return measure.from_points(
        np.asarray(center) + raw * rr[:, None], np.full(n, 1.0 / n)
    )


class TestBallValue:
    def test_manual_oracle(self):
        # mu has mass 3 and nu mass 5 inside the ball of diameter 2 around 0
        mu = measure.from_points([[0.0], [0.9], [1.5]], [1.0, 2.0, 7.0])
        nu = measure.from_points([[-0.5], [0.2], [4.0]], [2.0, 3.0, 9.0])
        v = muckenhoupt.ball_value(mu, nu, [0.0], 2.0, p=2.0, alpha=1.0)
        assert v == pytest.approx((2.0 * 2.0) ** -1.0 * np.sqrt(3.0) * np.sqrt(5.0))

    def test_point_mass_pair(self):
        mu = measure.from_points([[0.0]], [1.0], atomic=True)
        for alpha in (0.5, 1.0, 2.0):
            v = muckenhoupt.ball_value(mu, mu, [0.0], 1.0, p=2.0, alpha=alpha)
            assert v == pytest.approx(2.0**-alpha, rel=1e-14)

    def test_parameter_validation(self):
        m = measure.from_points([[0.0]], [1.0])
        with pytest.raises(ParameterError):
            muckenhoupt.ball_value(m, m, [0.0], 0.0, 2.0, 1.0)
        with pytest.raises(ParameterError):
            muckenhoupt.ball_value(m, m, [0.0], 1.0, 2.0, 0.0)


def scan_oracle(mu, nu, p, alpha, centers, radii):
    """Brute-force scan: every (center, r) through ball_value, radii
    ascending, then centers in listed order, keeping the first strict
    maximum."""
    best, witness = -1.0, None
    for r in sorted(float(x) for x in radii):
        for c in np.atleast_2d(np.asarray(centers, dtype=float)):
            value = muckenhoupt.ball_value(mu, nu, c, r, p, alpha)
            if value > best:
                best, witness = value, (tuple(float(x) for x in c), r)
    return best, witness


# Radii whose halves are distances on the half-integer lattice, so that
# lattice points sit exactly on ball boundaries.
_LATTICE_RADII = (1.0, 2.0, 3.0, 4.0, 2.0 * np.sqrt(0.5), 2.0 * np.sqrt(2.0))


@st.composite
def scan_inputs(draw):
    """Measures in 1-3 D with explicit centers and radii, duplicates
    included.  Lattice draws put weights 0.1, 0.2 or 0.3 on half-integer
    points, so many balls tie exactly and many more tie up to the rounding
    of the order in which their weights are added; one side may be empty."""
    dimension = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())
    lattice_weights = draw(st.sampled_from([(0.1,), (0.1, 0.2, 0.3)]))

    def draw_measure(n):
        if lattice:
            pts = np.unique(rng.integers(-3, 4, (n, dimension)) * 0.5, axis=0)
            return measure.from_points(pts, rng.choice(lattice_weights, len(pts)))
        pts = rng.uniform(-1.0, 1.0, (n, dimension))
        return measure.from_points(pts, rng.uniform(0.5, 1.5, n))

    mu = draw_measure(draw(st.integers(0, 12)))
    nu = draw_measure(draw(st.integers(1, 12)))
    if draw(st.booleans()):
        mu, nu = nu, mu
    support = np.vstack([mu.points, nu.points])
    picks = rng.integers(0, len(support), draw(st.integers(1, 10)))
    centers = np.vstack(
        [support[picks], np.round(rng.uniform(-2, 2, (3, dimension)) * 2) / 2]
    )
    centers = centers[rng.permutation(len(centers))]
    if lattice:
        radii = rng.choice(_LATTICE_RADII, draw(st.integers(1, 6)))
    else:
        radii = rng.uniform(0.05, 3.0, draw(st.integers(1, 6)))
        radii = np.concatenate([radii, radii[:1]])
    p = draw(st.sampled_from([1.5, 2.0, 3.0]))
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return mu, nu, p, alpha, centers, radii


class TestApAlphaConstant:
    LEBESGUE_RADII = [0.25 * 2.0 ** (k / 2.0) for k in range(7)]

    def test_lebesgue_half_constant(self):
        m = measure.lebesgue_grid(0.0, 1.0, 2.0**-8)
        rep = muckenhoupt.ap_alpha_constant(
            m, m, 2.0, 1.0, radii=self.LEBESGUE_RADII
        )
        # continuum value 1/2: interior balls of diameter r carry mass r
        assert rep.constant == pytest.approx(0.5, rel=0.05)
        assert rep.constant == pytest.approx(0.5027087272498111, rel=1e-12)

    def test_witness_reproduces_constant(self):
        m = measure.lebesgue_grid(0.0, 1.0, 2.0**-8)
        rep = muckenhoupt.ap_alpha_constant(m, m, 2.0, 1.0, radii=self.LEBESGUE_RADII)
        center, r = rep.witness_ball
        again = muckenhoupt.ball_value(m, m, np.asarray(center), r, 2.0, 1.0)
        assert again == pytest.approx(rep.constant, rel=1e-14)

    def test_one_cloud_as_both_measures_scans_one_table(self):
        # two equal measures, built apart, as ``necessity --mu a.json --nu
        # a.json`` loads them: one ball-mass table, and the report of a scan
        # that builds both tables
        mu, nu = disk_measure(3), disk_measure(3)
        assert mu is not nu
        spy = mock.patch.object(muckenhoupt, "_ball_masses", wraps=muckenhoupt._ball_masses)
        with spy as masses:
            got = muckenhoupt.ap_alpha_constant(mu, nu, 3.0, 2.0)
        assert masses.call_count == 1
        with spy as masses, mock.patch.object(np, "array_equal", return_value=False):
            want = muckenhoupt.ap_alpha_constant(mu, nu, 3.0, 2.0)
        assert masses.call_count == 2
        assert got == want

    def test_point_mass_scan(self):
        mu = measure.from_points([[0.0]], [1.0], atomic=True)
        for alpha in (0.5, 1.0, 2.0):
            rep = muckenhoupt.ap_alpha_constant(mu, mu, 2.0, alpha, radii=[1.0])
            assert rep.constant == pytest.approx(2.0**-alpha, rel=1e-14)

    def test_p_independence_for_equal_measures(self):
        # mu = nu makes the two mass factors combine to a full power of one
        m = measure.lebesgue_grid(0.0, 1.0, 2.0**-7)
        radii = self.LEBESGUE_RADII
        base = muckenhoupt.ap_alpha_constant(m, m, 2.0, 1.0, radii=radii).constant
        for p in (1.5, 3.0, 7.0):
            c = muckenhoupt.ap_alpha_constant(m, m, p, 1.0, radii=radii).constant
            assert abs(c - base) <= 1e-12 * base

    def test_dilation_scaling_law(self):
        # dilating points by c and weights by c^N scales the constant by
        # c^(N - alpha), exactly
        rng = np.random.default_rng(50)
        mu = random_measure(rng, 15)
        nu = random_measure(rng, 12)
        radii = [0.1, 0.2, 0.4, 0.8]
        c, alpha = 3.7, 1.25
        base = muckenhoupt.ap_alpha_constant(mu, nu, 2.0, alpha, radii=radii).constant
        mu_c = measure.from_points(mu.points * c, mu.weights * c)
        nu_c = measure.from_points(nu.points * c, nu.weights * c)
        scaled = muckenhoupt.ap_alpha_constant(
            mu_c, nu_c, 2.0, alpha, radii=[r * c for r in radii]
        ).constant
        assert scaled == pytest.approx(c ** (1.0 - alpha) * base, rel=1e-12)

    def test_monotone_in_added_mass(self):
        rng = np.random.default_rng(51)
        mu = random_measure(rng, 20)
        nu = random_measure(rng, 20)
        extra = random_measure(rng, 10)
        radii = [0.1, 0.3, 0.9]
        small = muckenhoupt.ap_alpha_constant(mu, nu, 2.0, 1.0, radii=radii).constant
        big = muckenhoupt.ap_alpha_constant(
            measure.merge(mu, extra), nu, 2.0, 1.0, radii=radii
        ).constant
        assert big >= small - 1e-15

    def test_empty_side_gives_zero(self):
        mu = measure.from_points([[0.0]], [1.0])
        empty = measure.from_points(np.empty((0, 1)), [])
        rep = muckenhoupt.ap_alpha_constant(mu, empty, 2.0, 1.0, radii=[1.0])
        assert rep.constant == 0.0

    def test_both_empty_rejected(self):
        empty = measure.from_points(np.empty((0, 1)), [])
        with pytest.raises(UsageError):
            muckenhoupt.ap_alpha_constant(empty, empty, 2.0, 1.0, radii=[1.0])

    def test_default_radii_need_two_points(self):
        mu = measure.from_points([[0.0]], [1.0])
        with pytest.raises(UsageError):
            muckenhoupt.ap_alpha_constant(mu, mu, 2.0, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(scan_inputs())
    def test_scan_matches_brute_force_oracle(self, case):
        mu, nu, p, alpha, centers, radii = case
        want = scan_oracle(mu, nu, p, alpha, centers, radii)
        for budget in (muckenhoupt._SCAN_BYTES, 1):
            with mock.patch.object(muckenhoupt, "_SCAN_BYTES", budget):
                rep = muckenhoupt.ap_alpha_constant(
                    mu, nu, p, alpha, centers=centers, radii=radii
                )
            assert (rep.constant, rep.witness_ball) == want

    def test_default_grid_matches_brute_force_oracle(self):
        rng = np.random.default_rng(52)
        mu = random_measure(rng, 30, dimension=2)
        nu = random_measure(rng, 25, dimension=2)
        rep = muckenhoupt.ap_alpha_constant(mu, nu, 2.0, 1.5)
        support = muckenhoupt._combined_support(mu, nu)
        centers = muckenhoupt._default_centers(
            support, measure.closest_gap(support)
        )
        assert rep.scan["centers"]["count"] == len(centers)
        want = scan_oracle(mu, nu, 2.0, 1.5, centers, rep.scan["radii"]["values"])
        assert (rep.constant, rep.witness_ball) == want

    def test_witness_does_not_depend_on_center_count(self):
        # two balls tie at exactly 1/4: diameter 1 around 0 and diameter 2
        # around 100.3; the scan order puts the smaller radius first
        far = 1e4 + np.arange(1997.0)
        points = np.concatenate([[0.0, 99.4, 101.2], far])
        weights = np.concatenate([[1.0, 2.0, 2.0], np.full(1997, 1e-9)])
        m = measure.from_points(points, weights)
        fillers = -1e4 - np.arange(9999.0)
        for centers in ([100.3, 0.0], np.concatenate([[100.3], fillers, [0.0]])):
            for budget in (muckenhoupt._SCAN_BYTES, 10**6):
                with mock.patch.object(muckenhoupt, "_SCAN_BYTES", budget):
                    rep = muckenhoupt.ap_alpha_constant(
                        m, m, 2.0, 2.0, centers=np.asarray(centers)[:, None],
                        radii=[1.0, 2.0],
                    )
                assert rep.constant == 0.25
                assert rep.witness_ball == ((0.0,), 1.0)

    @pytest.mark.parametrize("centers", [[[np.nan]], [[0.5], [np.inf]], [[0.5, -np.inf]]])
    def test_non_finite_centers_rejected(self, centers):
        # a NaN center lies in no ball, and its zero table certified 0.0
        # with the witness center NaN
        dim = len(centers[0])
        m = measure.lebesgue_grid([0.0] * dim, 1.0, 2.0**-4, dimension=dim)
        with pytest.raises(ParameterError, match="centers must be finite"):
            muckenhoupt.ap_alpha_constant(m, m, 2.0, 1.0, centers=centers, radii=[0.5])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowed_distances_lie_in_no_ball(self):
        # every distance between these points squares past the float range,
        # so it is +inf and lies in no ball: each ball holds its center alone
        points = np.array([[-1e200], [-1.0], [0.0], [1e200]])
        m = measure.from_points(points, [1.0, 2.0, 4.0, 8.0])
        rho = np.array([0.25, 1.5, 1e199, 3e200])
        want = searchsorted_ball_masses(m, points, rho)
        assert np.array_equal(want[[0, 3]], [[1.0] * 4, [8.0] * 4])
        for budget in (muckenhoupt._SCAN_BYTES, 1):
            with mock.patch.object(muckenhoupt, "_SCAN_BYTES", budget):
                assert np.array_equal(muckenhoupt._ball_masses(m, points, rho), want)
                rep = muckenhoupt.ap_alpha_constant(
                    m, m, 2.0, 1.0, centers=points, radii=2.0 * rho
                )
            assert (rep.constant, rep.witness_ball) == scan_oracle(
                m, m, 2.0, 1.0, points, 2.0 * rho
            )

    def test_scan_scratch_stays_within_its_budget(self):
        rng = np.random.default_rng(53)
        m = random_measure(rng, 2000, dimension=2)
        centers = rng.uniform(-0.5, 1.5, (4000, 2))
        rho = 0.01 * 2.0 ** (np.arange(30) / 4.0)
        table, rise = traced_peak_rise(
            lambda: muckenhoupt._ball_masses(m, centers, rho)
        )
        assert np.array_equal(table, searchsorted_ball_masses(m, centers, rho))
        assert rise <= muckenhoupt._SCAN_BYTES + table.nbytes


def searchsorted_ball_masses(m, centers, rho):
    """Oracle: the ball-mass table with every bin from ``np.searchsorted``,
    in one chunk."""
    bins = np.searchsorted(rho, m.distances(centers), "right")
    bins += (len(rho) + 1) * np.arange(len(centers))[:, None]
    hist = np.bincount(
        bins.ravel(),
        weights=np.tile(m.weights, len(centers)),
        minlength=len(centers) * (len(rho) + 1),
    ).reshape(len(centers), len(rho) + 1)
    return np.cumsum(hist, axis=1)[:, :-1]


def _floats(bits):
    return np.asarray(bits, dtype=np.int64).view(float)


@st.composite
def radii_and_distances(draw):
    """Ascending radii, with duplicates, zero, subnormals and up to 300
    radii crowded into one bucket of the lookup; and distances at and
    next to each radius, 0, +inf, NaN of either sign and arbitrary
    floats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [
        _floats(rng.integers(0, 2**63 - 2**52, draw(st.integers(0, 20)))),
        _floats(rng.integers(0, 2**52, draw(st.integers(0, 5)))),  # subnormal
        [0.0] * draw(st.integers(0, 2)),
    ]
    if draw(st.booleans()):
        bucket = int(rng.integers(0, 2**13 - 4)) << 50
        parts.append(_floats(bucket + rng.integers(0, 2**50, draw(st.integers(1, 300)))))
    rho = np.sort(np.concatenate(parts))
    if not len(rho):
        rho = np.array([1.0])
    rho = np.sort(np.concatenate([rho, rng.choice(rho, draw(st.integers(0, 5)))]))
    d = np.concatenate([
        rho,
        np.nextafter(rho, 0.0),
        np.nextafter(rho, np.inf),
        [0.0, np.inf, np.nan, -np.nan, 5e-324],
        _floats(rng.integers(0, 2**63 - 2**52, 50)),
        min(rho[-1], 1e300) * rng.uniform(0.0, 2.0, 50),
    ])
    return rho, rng.permutation(d).reshape(1, -1)  # one center's row


class TestBinLookup:
    @settings(max_examples=300, deadline=None)
    @given(radii_and_distances())
    def test_lookup_matches_searchsorted(self, case):
        rho, d = case
        got = muckenhoupt._binner(rho)(d)
        assert got.shape == d.shape
        assert np.array_equal(got, np.searchsorted(rho, d, "right"))

    def test_crowded_bucket_takes_more_steps_on_the_same_path(self):
        # 0.5 and its next 8 floats share a bucket: 9 radii need 4 halving
        # steps, the largest of them overshooting into the NaN pad
        rho = 0.5 + np.arange(9) * np.spacing(0.5)
        d = np.concatenate([rho, np.nextafter(rho, 0.0), [np.inf, 0.75, 0.25]])
        assert np.array_equal(
            muckenhoupt._binner(rho)(d), np.searchsorted(rho, d, "right")
        )


class TestNecessityExperiment:
    def test_cauchy_disk_pointwise_and_chain(self):
        mu = disk_measure(60, n=250)
        nu = disk_measure(61, n=250)
        rep = muckenhoupt.necessity_experiment(
            kernels.make_cauchy(), mu, nu, p=2.0, eps_list=[0.25], seed=1
        )
        assert rep.sphere_infimum == pytest.approx(1.0, rel=1e-12)
        assert rep.c_prime == pytest.approx(1.0, rel=1e-12)
        assert rep.pointwise_ok
        assert rep.chain_ok
        checked = [b for b in rep.balls if b.checked]
        assert checked
        for ball in checked:
            # Cauchy contraction telescopes to exactly eps^-1 on the plateau
            assert ball.bound_target == pytest.approx(4.0, rel=1e-12)
            assert ball.min_entry >= ball.bound_target * (1 - 1e-9)

    def test_riesz_equality_case(self):
        mu = disk_measure(62, n=200, radius=0.3)
        nu = disk_measure(63, n=200, radius=0.3)
        k = kernels.make_riesz_generalized(1.0, 2)
        rep = muckenhoupt.necessity_experiment(
            k, mu, nu, p=2.0, eps_list=[0.3, 0.15], seed=2
        )
        assert rep.pointwise_ok
        assert rep.chain_ok
        assert rep.degree == 1.0 and rep.alpha == 1.0

    def test_signed_zero_is_a_coincident_point(self):
        # (0, 0) and (-0, 0) are one point, so the coincident-pair deficit
        # is subtracted from chain_lhs for either spelling
        def origin(zero):
            return measure.from_points([[zero, 0.0]], [0.2])

        mu = measure.merge(disk_measure(70, n=30), origin(0.0))
        balls = [
            muckenhoupt.necessity_experiment(
                kernels.make_cauchy(), mu,
                measure.merge(disk_measure(71, n=30), origin(zero)),
                p=2.0, eps_list=[0.25], centers=[[0.0, 0.0]], seed=3,
            ).balls
            for zero in (0.0, -0.0)
        ]
        assert balls[0] == balls[1]

    def test_alpha_below_degree_rejected(self):
        mu = disk_measure(64, n=50)
        nu = disk_measure(65, n=50)
        with pytest.raises(ParameterError, match="at least the degree"):
            muckenhoupt.necessity_experiment(
                kernels.make_ahlfors_beurling(), mu, nu,
                p=2.0, eps_list=[0.25], alpha=0.5,
            )

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # NaN fails alpha < d as well as alpha >= d, so it reached the
        # profile check and failed there with exit code 1
        mu = disk_measure(64, n=50)
        nu = disk_measure(65, n=50)
        with pytest.raises(ParameterError, match="finite and at least the degree"):
            muckenhoupt.necessity_experiment(
                kernels.make_cauchy(), mu, nu, p=2.0, eps_list=[0.25], alpha=alpha,
            )

    def test_min_entry_is_the_minimum_over_every_distinct_in_ball_pair(self):
        # one cloud as both measures, so every point meets itself once
        cloud = disk_measure(74, n=120)
        kernel = kernels.make_ahlfors_beurling()
        eps_list = [0.25, 0.1]
        rep = muckenhoupt.necessity_experiment(
            kernel, cloud, cloud, p=2.0, eps_list=eps_list, seed=4
        )
        raw = kernels.materialize(kernel, cloud, cloud, diagonal_policy=0.0)
        windowed = {
            eps: kernels.reweight(raw, mollifiers.ScaledMultiplier(
                muckenhoupt.window_profile(kernel.profile), eps, True
            )).entries
            for eps in eps_list
        }
        assert sum(b.checked for b in rep.balls) == len(rep.balls) == 8
        for ball in rep.balls:
            inside = np.flatnonzero(cloud.distances([ball.center])[0] < ball.eps)
            values = [
                windowed[ball.eps][i, j]
                for i in inside for j in inside
                if not np.array_equal(cloud.points[i], cloud.points[j])
            ]
            assert ball.pairs_checked == len(values) == len(inside) * (len(inside) - 1)
            assert ball.min_entry == min(values)
            assert ball.pointwise_ok

    def test_one_low_entry_fails_the_pointwise_check(self):
        # K halved on one pair of 10,000 in the ball: a 1000-pair sample
        # drawn with this seed missed it and reported the bound as held
        mu = disk_measure(75, n=100, radius=0.2)
        nu = disk_measure(76, n=100, radius=0.2)
        cauchy = kernels.make_cauchy()
        a, b = nu.points[3], mu.points[5]

        def sample_into(s, t, out, work):
            cauchy.sample_into(s, t, out, work)
            planted = (s[0] == a[0]) & (s[1] == a[1]) & (t[0] == b[0]) & (t[1] == b[1])
            out[:, planted] *= 0.5

        kernel = dataclasses.replace(cauchy, sample_into=sample_into, name="planted")
        rep = muckenhoupt.necessity_experiment(
            kernel, mu, nu, p=2.0, eps_list=[0.25], centers=[[0.0, 0.0]], seed=0
        )
        (ball,) = rep.balls
        assert not ball.pointwise_ok and not rep.pointwise_ok
        # the Cauchy window telescopes to 1/eps = 4 on every other pair
        assert ball.min_entry == pytest.approx(2.0, rel=1e-12)
        assert ball.pairs_checked == 100 * 100

    def test_profile_lower_bound_enforced(self):
        # a capped radial factor eventually falls below r^-(d+alpha)
        capped = kernels.KernelSpec(
            dimension=2,
            value_dim=2,
            order=1.0,
            sample_into=kernels.make_cauchy().sample_into,
            profile=kernels.ConvolutionProfile(
                radial=lambda r: np.minimum(1.0 / r, 100.0) / r,
                spherical=kernels.make_cauchy().profile.spherical,
                degree=1.0,
            ),
            name="capped",
        )
        mu = disk_measure(66, n=50)
        nu = disk_measure(67, n=50)
        with pytest.raises(ProfileBoundError):
            muckenhoupt.necessity_experiment(
                capped, mu, nu, p=2.0, eps_list=[0.25]
            )

    def test_kernel_without_profile_rejected(self):
        mu = measure.from_points([[0.0]], [1.0])
        nu = measure.from_points([[0.5]], [1.0])
        with pytest.raises(ParameterError, match="factorization"):
            muckenhoupt.necessity_experiment(
                kernels.make_hilbert(), mu, nu, p=2.0, eps_list=[0.25]
            )

    def test_shared_atoms_rejected(self):
        atom = measure.from_points([[0.1, 0.1]], [0.5], atomic=True)
        mu = measure.merge(disk_measure(68, n=40), atom)
        nu = measure.merge(disk_measure(69, n=40), atom)
        with pytest.raises(CommonAtomsError, match=r"first at \(0\.1, 0\.1\)$"):
            muckenhoupt.necessity_experiment(
                kernels.make_cauchy(), mu, nu, p=2.0, eps_list=[0.25]
            )

    def test_window_multiplier_plateau_and_support(self):
        k = kernels.make_cauchy()
        mult = mollifiers.ScaledMultiplier(muckenhoupt.window_profile(k.profile), 1.0, True)
        s = np.zeros((3, 2))
        t = np.array([[1.0, 0.0], [2.5, 0.0], [3.5, 0.0]])
        vals = mult(s, t)
        # plateau: components equal the lifted spherical factor itself
        assert np.allclose(vals[0], [1.0, 0.0])
        # transition region: strictly between plateau and zero
        assert 0 < np.linalg.norm(vals[1]) < 2.5
        # beyond three scales: identically zero
        assert np.allclose(vals[2], 0.0)

    def test_vector_multiplier_bound_sums_components(self):
        # the vector Wiener norm is the component-wise sum, value and error
        window = muckenhoupt.window_profile(kernels.make_cauchy().profile)
        grid = (24.0, 128)
        parts = [
            mollifiers.wiener_norm(lambda x, j=j: window(x)[..., j], 2, *grid)
            for j in range(2)
        ]
        assert mollifiers.wiener_norm(window, 2, *grid) == (
            parts[0][0] + parts[1][0],
            parts[0][1] + parts[1][1],
        )

    def test_central_then_spread_holds_two_distance_matrices(self):
        # 2048 points, the subsample cap: two 32 MiB (n, n) arrays, not an
        # (n, n, 2) broadcast
        pts = np.random.default_rng(73).uniform(-1, 1, (2048, 2))
        centres, rise = traced_peak_rise(
            lambda: muckenhoupt._central_then_spread(pts, 4)
        )
        assert len(centres) == 4
        assert rise < 100 * 2**20

    def test_window_schur_bound_samples_in_row_blocks(self):
        # the 1024^2 grid's samples and one transform take 16 MiB each; the
        # rest is one block of the grid or of the transform, and |rho|
        _, rise = traced_peak_rise(
            lambda: muckenhoupt._multiplier_schur_bound(
                kernels.make_cauchy().profile, 2
            )
        )
        assert rise <= 48 * 2**20

    def test_dimension_above_three_rejected_before_sampling(self):
        # a 4-D window grid would take about 0.5 GB; refuse it up front
        rng = np.random.default_rng(72)
        mu = random_measure(rng, 3, dimension=4)
        nu = random_measure(rng, 3, dimension=4, low=2.0, high=3.0)
        kernel = kernels.make_riesz_generalized(1.0, 4)

        def run():
            with pytest.raises(ParameterError, match="dimension 1, 2 or 3"):
                muckenhoupt.necessity_experiment(
                    kernel, mu, nu, p=2.0, eps_list=[0.25]
                )

        _, rise = traced_peak_rise(run)
        assert rise < 10 * 2**20
