"""Growth constants of Muckenhoupt type and the lower-bound experiment."""

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
