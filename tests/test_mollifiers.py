"""Multiplier profiles, certified Schur bounds, and moment analysis."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import traced_peak_rise

from siolab import kernels, mollifiers, muckenhoupt, truncation
from siolab.errors import (
    NormalizationError,
    ParameterError,
    UnreliableEstimateError,
)


class TestSmoothStep:
    def test_endpoint_values(self):
        assert mollifiers.smooth_step(-1.0) == 0.0
        assert mollifiers.smooth_step(0.0) == 0.0
        assert mollifiers.smooth_step(1.0) == 1.0
        assert mollifiers.smooth_step(2.0) == 1.0
        assert mollifiers.smooth_step(0.5) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_monotone_and_bounded(self, a, b):
        lo, hi = min(a, b), max(a, b)
        va, vb = mollifiers.smooth_step(lo), mollifiers.smooth_step(hi)
        assert 0.0 <= va <= vb <= 1.0


class TestGaussian:
    def test_profile_formula(self):
        m = mollifiers.gaussian_mollifier()
        x = np.array([[0.5], [1.0], [-2.0]])
        expected = 1.0 - np.exp(-0.5 * x[:, 0] ** 2)
        assert np.allclose(m.profile(x), expected)

    def test_certified_bound_is_two(self):
        # 1 - m transforms to the standard Gaussian density of unit L1 mass
        sb = mollifiers.schur_bound(mollifiers.gaussian_mollifier())
        assert sb.bound == pytest.approx(2.0, abs=1e-9)
        assert sb.error_estimate < 1e-9

    def test_two_dimensional_bound_is_two(self):
        sb = mollifiers.schur_bound(mollifiers.gaussian_mollifier(dimension=2))
        assert sb.bound == pytest.approx(2.0, abs=1e-6)

    def test_power_bound_by_product_rule(self):
        cubed = mollifiers.multiplier_power(mollifiers.gaussian_mollifier(), 3)
        sb = mollifiers.schur_bound(cubed)
        assert sb.bound == pytest.approx(8.0, abs=1e-8)

    def test_power_validation(self):
        with pytest.raises(ParameterError):
            mollifiers.multiplier_power(mollifiers.gaussian_mollifier(), 0)


class TestComplexShift:
    def test_profile_formula(self):
        m = mollifiers.complex_shift_mollifier()
        s = np.array([[0.5], [-1.0], [3.0]])
        vals = m.profile(s)
        expected = s[:, 0] / (s[:, 0] - 1j)
        assert np.allclose(vals, expected)
        # 1 - m(s) = 1 / (1 + i s), the transform of a one-sided exponential
        assert np.allclose(1.0 - vals, 1.0 / (1.0 + 1j * s[:, 0]))

    def test_certified_bound_near_two(self):
        sb = mollifiers.schur_bound(mollifiers.complex_shift_mollifier())
        assert sb.bound == pytest.approx(2.0, abs=1e-3)
        assert sb.error_estimate < 1e-3


class TestAnnulus:
    def test_plateau_structure(self):
        m = mollifiers.smooth_annulus_mollifier(0.25)
        vals = m.profile(np.array([[0.0], [0.74], [1.0], [2.0]]))
        assert vals[0] == 0.0
        assert vals[1] == 0.0  # inside the vanishing ball |x| <= 1 - delta
        assert vals[2] == 1.0
        assert vals[3] == 1.0
        assert m.vanishing_radius == pytest.approx(0.75)

    def test_delta_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ParameterError):
                mollifiers.smooth_annulus_mollifier(bad)

    def test_certified_bound_frozen(self):
        # independently reproduced by direct quadrature of the transform;
        # the value is stable across grid refinement well beyond the error bar
        sb = mollifiers.schur_bound(mollifiers.smooth_annulus_mollifier(0.1))
        assert sb.bound == pytest.approx(3.3609386705560524, abs=1e-6)
        assert sb.error_estimate < 0.01

    def test_unreliable_grid_raises(self):
        with pytest.raises(UnreliableEstimateError):
            mollifiers.schur_bound(
                mollifiers.smooth_annulus_mollifier(0.1),
                half_width=24.0,
                points=256,
            )


class TestConstantOne:
    def test_bound_is_one(self):
        sb = mollifiers.schur_bound(mollifiers.constant_one_mollifier())
        assert sb.bound == pytest.approx(1.0, abs=1e-12)


class TestFromName:
    @pytest.mark.parametrize(
        "spec, expected_name",
        [
            ("gaussian", "gaussian"),
            ("complex_shift", "complex_shift"),
            ("annulus:delta=0.2", "annulus"),
            ("one", "one"),
        ],
    )
    def test_known_names(self, spec, expected_name):
        m = mollifiers.mollifier_from_name(spec)
        assert expected_name in m.name

    def test_power_spec(self):
        m = mollifiers.mollifier_from_name("power:base=gaussian,k=2")
        sb = mollifiers.schur_bound(m)
        assert sb.bound == pytest.approx(4.0, abs=1e-8)

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            mollifiers.mollifier_from_name("mystery")
        with pytest.raises(ParameterError):
            mollifiers.mollifier_from_name("annulus:delta")


def _one_shot_samples(f, dimension, half_width, points):
    # the whole (M, ..., M, N) coordinate-major mesh in one evaluation
    axis = -half_width + (2.0 * half_width / points) * np.arange(points)
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.asarray(f(np.moveaxis(np.stack(mesh), 0, -1)))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _index_box(draw, dimension, points):
    """[lo, hi) per axis in fine-grid indices: empty, a single point,
    touching a grid edge, the whole grid, or anywhere."""
    shape = draw(st.sampled_from(["empty", "point", "edge", "whole", "any"]))
    if shape == "whole":
        return [0] * dimension, [points] * dimension
    lo = [draw(st.integers(0, points - 1)) for _ in range(dimension)]
    if shape == "point":
        return lo, [k + 1 for k in lo]
    hi = [draw(st.integers(k + 1, points)) for k in lo]
    axis = draw(st.integers(0, dimension - 1))
    if shape == "empty":
        hi[axis] = lo[axis]
    elif shape == "edge" and draw(st.booleans()):
        lo[axis] = 0
    elif shape == "edge":
        hi[axis] = points
    return lo, hi


_HALF_WIDTH = 4.0


@st.composite
def _boxed_profiles(draw, dimension, kind):
    """(f, points): a random oscillation times the indicator of a box of
    fine-grid points, one box per component.  Outside its box a component
    is 0.0 or -0.0 by the sign of the oscillation."""
    points = draw(st.integers(2, {1: 40, 2: 12, 3: 7}[dimension]))
    boxes = [
        draw(_index_box(dimension, points)) for _ in range(2 if kind == "vector" else 1)
    ]
    freq = draw(st.lists(st.floats(-3, 3), min_size=dimension, max_size=dimension))
    ds = 2.0 * _HALF_WIDTH / points

    def f(x):
        phase = sum(x[..., i] * freq[i] for i in range(dimension)) + 0.3
        values = {
            "real": np.cos(phase),
            "complex": np.cos(phase) + 1j * np.sin(2.0 * phase),
            "vector": np.cos(phase),
            # real on the blocks of rows with x_1 <= 0.5, complex on later ones
            "complex-later": np.emath.sqrt(0.5 - x[..., 0]) * np.cos(phase),
        }[kind]
        parts = []
        for j, (lo, hi) in enumerate(boxes):
            low = -_HALF_WIDTH + ds * (np.asarray(lo) - 0.5)
            high = -_HALF_WIDTH + ds * (np.asarray(hi) - 0.5)
            inside = np.all((x >= low) & (x < high), axis=-1)
            parts.append((values if j == 0 else np.sin(phase)) * inside)
        return np.stack(parts, axis=-1) if kind == "vector" else parts[0]

    return f, points


def _components(samples, dimension):
    return list(np.moveaxis(samples, -1, 0)) if samples.ndim > dimension else [samples]


def _full_grid_two_resolutions(f, dimension, half_width, points, functional):
    # oracle: ``_two_resolutions`` with whole sample grids and ifftn
    values = []
    for L, M in ((half_width, points), (half_width / 2.0, max(points // 4, 2))):
        samples = _one_shot_samples(f, dimension, L, M)
        values.append([
            functional(np.abs(np.fft.ifftn(part)), L)
            for part in _components(samples, dimension)
        ])
    fine, coarse = values
    return sum(fine), sum(2.0 * abs(a - b) for a, b in zip(fine, coarse))


def _ifft_without_out(a, n=None, axis=-1, norm=None):
    # NumPy 1.x's ifft, which takes no out=
    return np.fft.ifftn(a, None if n is None else (n,), (axis,), norm)


def _table_profile(table, half_width):
    """The profile whose samples on the (L, M) grid are ``table``."""
    ds = 2.0 * half_width / table.shape[0]

    def f(x):
        index = np.rint((x + half_width) / ds).astype(int)
        return table[tuple(np.moveaxis(index, -1, 0))]

    return f


class TestGridSamples:
    @pytest.mark.parametrize("chunk", [1, kernels._CHUNK_BYTES])
    @pytest.mark.parametrize("kind", ["real", "complex", "vector", "complex-later"])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_moduli_match_full_grid_ifftn(self, dimension, kind, chunk, data):
        # one grid row per sampled block and one column per first-axis
        # block, or one block of each; NumPy's ifft with or without out=
        f, points = data.draw(_boxed_profiles(dimension, kind))
        fft_out = data.draw(st.booleans())
        L = _HALF_WIDTH
        sobolev = lambda mod, Lc: mollifiers._weighted_l2(mod, Lc, 3)
        want = [
            np.abs(np.fft.ifftn(part))
            for part in _components(_one_shot_samples(f, dimension, L, points), dimension)
        ]
        want_l1 = _full_grid_two_resolutions(f, dimension, L, points, mollifiers._l1_norm)
        want_l2 = _full_grid_two_resolutions(f, dimension, L, points, sobolev)
        ifft = np.fft.ifft if fft_out else _ifft_without_out
        with mock.patch.object(kernels, "_CHUNK_BYTES", chunk), mock.patch.object(
            np.fft, "ifft", ifft
        ):
            got = [mod.copy() for mod in mollifiers._moduli(f, dimension, L, points)]
            got_l1 = mollifiers.wiener_norm(f, dimension, L, points)
            got_l2 = mollifiers._two_resolutions(f, dimension, L, points, sobolev)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert _same_bits(g, w)
        assert got_l1 == want_l1
        assert got_l2 == want_l2

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_profile_that_does_not_vectorize_is_rejected(self, dimension):
        for chunk in (1, kernels._CHUNK_BYTES):
            with mock.patch.object(kernels, "_CHUNK_BYTES", chunk):
                with pytest.raises(ParameterError, match="vectorize"):
                    list(mollifiers._moduli(lambda x: 1.0, dimension, 4.0, 8))
                with pytest.raises(ParameterError, match="vectorize"):
                    mollifiers.wiener_norm(lambda x: np.zeros(3), dimension, 4.0, 8)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_profile_with_two_trailing_axes_is_rejected(self, dimension):
        # each component would be an (M, ..., 2) array, not an N-D grid
        def f(x):
            return np.zeros(x.shape[:-1] + (2, 3))

        with pytest.raises(ParameterError, match="vectorize"):
            mollifiers.wiener_norm(f, dimension, 4.0, 8)

    @pytest.mark.parametrize(
        "dimension, points", [(1, 64), (1, 65), (2, 16), (2, 17), (3, 8), (3, 9)]
    )
    @pytest.mark.parametrize("kind", ["real", "complex_shift", "complex"])
    def test_functionals_match_continuous_transform(self, dimension, points, kind):
        # oracle: rho from ifftn times (M ds / 2 pi)^N and each axis phase
        # e^{-iLx}, built whole; then sum |rho| dx^N and the weighted L2 norm
        L, k = 3.7, 3
        if kind == "complex":
            rng = np.random.default_rng(points)
            shape = (points,) * dimension
            samples = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            f = _table_profile(samples, L)
        else:
            m = (mollifiers.complex_shift_mollifier() if kind == "complex_shift"
                 else mollifiers.gaussian_mollifier(dimension))
            f = m.tail
            samples = _one_shot_samples(f, dimension, L, points)
        ds = 2.0 * L / points
        axis_x = 2.0 * np.pi * np.fft.fftfreq(points, d=ds)
        rho = np.fft.ifftn(samples) * (points * ds / (2.0 * np.pi)) ** dimension
        for ax in range(dimension):
            axes = [points if a == ax else 1 for a in range(dimension)]
            rho = rho * np.exp(-1j * L * axis_x).reshape(axes)
        dx = axis_x[1] - axis_x[0]
        mesh = np.meshgrid(*([axis_x] * dimension), indexing="ij", sparse=True)
        w = 1.0 + np.sqrt(sum(x**2 for x in mesh)) ** k
        l1 = np.sum(np.abs(rho)) * dx**dimension
        l2 = np.sqrt(np.sum((w * np.abs(rho)) ** 2) * dx**dimension)

        (modulus,) = mollifiers._moduli(f, dimension, L, points)
        assert abs(mollifiers._l1_norm(modulus, L) - l1) <= 1e-13 * l1
        assert abs(mollifiers._weighted_l2(modulus, L, k) - l2) <= 1e-13 * l2


class TestTransformMemory:
    def test_window_bound_holds_the_nonzero_rows_not_the_grid(self):
        # the 2-vector Cauchy window on the (24, 1024) grid is zero beyond
        # |x| = 3, in all but 129 of 1024 rows; whole samples, transform and
        # modulus took 16 + 16 + 8 MiB, a 40 MiB peak
        profile = kernels.make_cauchy().profile
        _, rise = traced_peak_rise(
            lambda: muckenhoupt._multiplier_schur_bound(profile, 2)
        )
        assert rise < 24 * 2**20

    # nonzero on the whole 2^19 grid; the samples go straight into the
    # complex array transformed in place.  Whole samples, their complex copy
    # and the modulus peaked at 22.1 MiB (complex_shift) and 16.0 (gaussian)
    @pytest.mark.parametrize("name, bound_mib", [("complex_shift", 20), ("gaussian", 16)])
    def test_full_support_bound_peaks_no_higher_than_whole_grids(self, name, bound_mib):
        mollifier = mollifiers.mollifier_from_name(name)
        _, rise = traced_peak_rise(lambda: mollifiers.schur_bound(mollifier))
        assert rise <= bound_mib * 2**20


class TestSobolevBound:
    def test_gaussian_against_quadrature_oracle(self):
        # oracle: 1 + C(1, k) ||(1 + |x|^k) rho||_2 with rho the standard
        # Gaussian density, both factors computed by adaptive quadrature
        k = 3
        c_nk = np.sqrt(2.0 * quad(lambda r: 1.0 / (1.0 + r**k) ** 2, 0, np.inf)[0])
        rho = lambda x: np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
        weighted = np.sqrt(
            quad(lambda x: ((1 + abs(x) ** k) * rho(x)) ** 2, -np.inf, np.inf)[0]
        )
        oracle = 1.0 + c_nk * weighted
        sb = mollifiers.sobolev_bound(mollifiers.gaussian_mollifier(), k)
        assert sb.bound == pytest.approx(oracle, rel=1e-6)

    def test_dominates_direct_transform_bound(self):
        m = mollifiers.gaussian_mollifier()
        direct = mollifiers.schur_bound(m)
        sobolev = mollifiers.sobolev_bound(m, 3)
        assert sobolev.bound >= direct.bound - 1e-12

    def test_smoothness_must_exceed_half_dimension(self):
        with pytest.raises(ParameterError):
            mollifiers.sobolev_weight_constant(2, 1)

    @pytest.mark.parametrize(
        "dimension, smoothness",
        [(n, k) for n in range(1, 5) for k in range(n // 2 + 1, 8)],
    )
    def test_weight_constant_against_quadrature_oracle(self, dimension, smoothness):
        # oracle: |S^(N-1)| * integral of r^(N-1) / (1 + r^k)^2 dr, by quad
        area = 2.0 * np.pi ** (dimension / 2) / math.gamma(dimension / 2)
        radial = quad(
            lambda r: r ** (dimension - 1) / (1.0 + r**smoothness) ** 2,
            0.0, np.inf, limit=200,
        )[0]
        assert mollifiers.sobolev_weight_constant(
            dimension, smoothness
        ) == pytest.approx(np.sqrt(area * radial), rel=1e-12)


class TestScale:
    def test_scaled_multiplier_evaluates_profile_of_difference(self):
        m = mollifiers.gaussian_mollifier()
        sm = mollifiers.scale(m, 0.5)
        s = np.array([[0.0], [1.0]])
        t = np.array([[0.25], [0.5]])
        expected = m.profile((t - s) / 0.5)
        assert np.allclose(sm(s, t), expected)
        assert sm.vanishes_at_zero

    def test_eps_validation(self):
        with pytest.raises(ParameterError):
            mollifiers.scale(mollifiers.gaussian_mollifier(), 0.0)

    def test_constant_one_does_not_vanish(self):
        sm = mollifiers.scale(mollifiers.constant_one_mollifier(), 1.0)
        assert not sm.vanishes_at_zero


# The three multipliers as they were written before each became a
# ``ScaledMultiplier`` of a profile, as (value(s, t), vanishes_at_zero).


def _old_scale(m, eps):
    def value(s, t):
        return m.profile((np.asarray(t, float) - np.asarray(s, float)) / eps)

    return value, m.vanishing_radius > 0 or m.vanishing_order > 0


def _old_window(profile, eps):
    def value(s, t):
        x = (np.asarray(t, dtype=float) - np.asarray(s, dtype=float)) / eps
        r = np.linalg.norm(x, axis=-1)
        safe = np.where(r > 0, r, 1.0)
        sph = np.asarray(profile.spherical(x / safe[..., None]))
        scale = np.where(r > 0, safe**profile.degree, 0.0)
        if sph.ndim == r.ndim:
            lifted = scale * np.where(r > 0, sph, 0.0)
        else:
            lifted = scale[..., None] * np.where(r[..., None] > 0, sph, 0.0)
        w = mollifiers.smooth_step(3.0 - r)
        return lifted * w[..., None] if lifted.ndim > r.ndim else lifted * w

    return value, True


def _old_sectorial(profile, r, dimension):
    C = 1.0 / truncation.sphere_infimum(profile.spherical, dimension)

    def value(s, t):
        x = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
        distance = np.linalg.norm(x, axis=-1)
        safe = np.where(distance > 0, distance, 1.0)
        sph = np.asarray(profile.spherical(x / safe[..., None]))
        bump = truncation.plateau_bump(distance / r)
        if sph.ndim > distance.ndim:
            bump, distance = bump[..., None], distance[..., None]
        return np.where(distance > 0, C * bump * sph, 0.0)

    return value, True


class TestOneMultiplierType:
    """Each constructor against its old formula: ``==`` for ``scale`` and
    the necessity window, rounding level for the sectorial multiplier,
    whose profile scales t - s before taking its length and direction."""

    CASES = {  # name: (new, old, dimension, exact)
        "gaussian": (
            lambda: mollifiers.scale(mollifiers.gaussian_mollifier(2), 0.7),
            lambda: _old_scale(mollifiers.gaussian_mollifier(2), 0.7), 2, True,
        ),
        "annulus": (
            lambda: mollifiers.scale(mollifiers.smooth_annulus_mollifier(0.1, 2), 0.6),
            lambda: _old_scale(mollifiers.smooth_annulus_mollifier(0.1, 2), 0.6), 2, True,
        ),
        "complex_shift": (
            lambda: mollifiers.scale(mollifiers.complex_shift_mollifier(), 0.5),
            lambda: _old_scale(mollifiers.complex_shift_mollifier(), 0.5), 1, True,
        ),
        "one": (
            lambda: mollifiers.scale(mollifiers.constant_one_mollifier(3), 1.3),
            lambda: _old_scale(mollifiers.constant_one_mollifier(3), 1.3), 3, True,
        ),
        "power": (
            lambda: mollifiers.scale(mollifiers.mollifier_from_name("power:base=gaussian,k=2"), 0.2),
            lambda: _old_scale(mollifiers.mollifier_from_name("power:base=gaussian,k=2"), 0.2),
            1, True,
        ),
        "window_cauchy": (
            lambda: mollifiers.ScaledMultiplier(
                muckenhoupt.window_profile(kernels.make_cauchy().profile), 0.25, True
            ),
            lambda: _old_window(kernels.make_cauchy().profile, 0.25), 2, True,
        ),
        "window_ahlfors_beurling": (
            lambda: mollifiers.ScaledMultiplier(
                muckenhoupt.window_profile(kernels.make_ahlfors_beurling().profile), 0.4, True
            ),
            lambda: _old_window(kernels.make_ahlfors_beurling().profile, 0.4), 2, True,
        ),
        "window_riesz3": (
            lambda: mollifiers.ScaledMultiplier(
                muckenhoupt.window_profile(kernels.make_riesz_generalized(1.0, 3).profile),
                0.3, True,
            ),
            lambda: _old_window(kernels.make_riesz_generalized(1.0, 3).profile, 0.3), 3, True,
        ),
        "window_riesz1": (
            lambda: mollifiers.ScaledMultiplier(
                muckenhoupt.window_profile(kernels.make_riesz_generalized(1.0, 1).profile),
                0.5, True,
            ),
            lambda: _old_window(kernels.make_riesz_generalized(1.0, 1).profile, 0.5), 1, True,
        ),
        "sectorial_cauchy": (
            lambda: truncation.build_sectorial_multiplier(kernels.make_cauchy().profile, 0.5, 2),
            lambda: _old_sectorial(kernels.make_cauchy().profile, 0.5, 2), 2, False,
        ),
        "sectorial_ahlfors_beurling": (
            lambda: truncation.build_sectorial_multiplier(
                kernels.make_ahlfors_beurling().profile, 0.3, 2
            ),
            lambda: _old_sectorial(kernels.make_ahlfors_beurling().profile, 0.3, 2), 2, False,
        ),
        "sectorial_riesz3": (
            lambda: truncation.build_sectorial_multiplier(
                kernels.make_riesz_generalized(1.5, 3).profile, 0.8, 3
            ),
            lambda: _old_sectorial(kernels.make_riesz_generalized(1.5, 3).profile, 0.8, 3),
            3, False,
        ),
        "sectorial_riesz1": (
            lambda: truncation.build_sectorial_multiplier(
                kernels.make_riesz_generalized(1.0, 1).profile, 1.0, 1
            ),
            lambda: _old_sectorial(kernels.make_riesz_generalized(1.0, 1).profile, 1.0, 1),
            1, False,
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_old_formula(self, case):
        make_new, make_old, n, exact = self.CASES[case]
        new = make_new()
        old, old_vanishes = make_old()
        assert isinstance(new, mollifiers.ScaledMultiplier)
        assert new.vanishes_at_zero == old_vanishes
        rng = np.random.default_rng(53)
        s = rng.normal(scale=0.5, size=(60, 1, n))
        t = rng.normal(scale=0.5, size=(1, 50, n))
        t[0, :5] = s[:5, 0]  # coincident pairs
        got, want = np.asarray(new(s, t)), np.asarray(old(s, t))
        assert got.shape == want.shape and got.dtype == want.dtype
        if exact:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
            assert np.all(got[range(5), range(5)] == 0.0)


class TestWienerScaleInvariance:
    def test_dilation_leaves_norm_unchanged(self):
        # ||inverse transform of f(./eps)||_1 is independent of eps
        m = mollifiers.smooth_annulus_mollifier(0.1)
        estimates = []
        for eps in (0.5, 2.0):
            est, err = mollifiers.wiener_norm(
                lambda x, e=eps: 1.0 - m.profile(x / e),
                dimension=1,
                half_width=24.0,
                points=2**17,
            )
            estimates.append((est, err))
        gap = abs(estimates[0][0] - estimates[1][0])
        assert gap <= estimates[0][1] + estimates[1][1]


class TestMomentOrder:
    @staticmethod
    def _grid(L=12.0, M=4096):
        dx = 2.0 * L / M
        return -L + dx * (np.arange(M) + 0.5), dx

    def test_gaussian_density_order_two(self):
        # oracle: first moment 0, second moment 1 (standard Gaussian)
        x, dx = self._grid()
        rho = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
        rep = mollifiers.moment_order(x, rho, dx, 6)
        assert rep.order == 2
        assert rep.moments[(1,)] == pytest.approx(0.0, abs=1e-12)
        assert rep.moments[(2,)] == pytest.approx(1.0, rel=1e-10)
        assert rep.fitted_slope == pytest.approx(2.0, abs=0.05)

    def test_one_sided_exponential_order_one(self):
        # oracle: first moment 1 (mean of the unit exponential)
        x, dx = self._grid()
        rho = np.where(x >= 0, np.exp(-np.clip(x, 0, None)), 0.0)
        rep = mollifiers.moment_order(x, rho, dx, 6)
        assert rep.order == 1
        assert rep.moments[(1,)] == pytest.approx(1.0, rel=1e-4)
        assert rep.fitted_slope == pytest.approx(1.0, abs=0.05)

    def test_three_vanishing_moments(self):
        # rho = (3 - x^2) phi(x) / 2 has vanishing moments 1..3 and fourth
        # moment -3 (phi the standard Gaussian): order 4 under a cap of 5,
        # capped at 3 when max_order = 3
        x, dx = self._grid()
        rho = 0.5 * (3.0 - x**2) * np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
        capped = mollifiers.moment_order(x, rho, dx, 3)
        assert capped.order == 3
        full = mollifiers.moment_order(x, rho, dx, 5)
        assert full.order == 4
        assert full.moments[(4,)] == pytest.approx(-3.0, rel=1e-10)
        assert full.fitted_slope == pytest.approx(4.0, abs=0.05)

    def test_unnormalized_density_rejected(self):
        x, dx = self._grid()
        rho = np.exp(-0.5 * x**2)  # mass sqrt(2 pi) != 1
        with pytest.raises(NormalizationError):
            mollifiers.moment_order(x, rho, dx, 4)

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1e-6])
    def test_tolerance_out_of_range_rejected(self, tolerance):
        # NaN compares False with every bound, so it used to report max_order
        x, dx = self._grid()
        rho = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
        with pytest.raises(ParameterError, match="tolerance"):
            mollifiers.moment_order(x, rho, dx, 6, tolerance)

    @pytest.mark.parametrize("dx", [np.nan, np.inf])
    def test_non_finite_mass_rejected(self, dx):
        x, _ = self._grid()
        rho = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
        with pytest.raises(NormalizationError):
            mollifiers.moment_order(x, rho, dx, 6)

    def test_midpoint_grid(self):
        x, dx = mollifiers.midpoint_grid(12.0, 4096)
        want_x, want_dx = self._grid()
        assert dx == want_dx
        np.testing.assert_array_equal(x, want_x)

    @pytest.mark.parametrize("half_width, points", [
        (np.nan, 64), (np.inf, 64), (0.0, 64), (-1.0, 64), (12.0, 1), (12.0, 0),
    ])
    def test_midpoint_grid_out_of_range_rejected(self, half_width, points):
        with pytest.raises(ParameterError, match="half_width"):
            mollifiers.midpoint_grid(half_width, points)

    @pytest.mark.parametrize("half_width, points", [(np.inf, 64), (np.nan, 64), (8.0, 1)])
    def test_transform_grid_out_of_range_rejected(self, half_width, points):
        # an infinite width used to sample NaN and report a NaN bound
        with pytest.raises(ParameterError, match="half_width"):
            mollifiers.schur_bound(mollifiers.gaussian_mollifier(), half_width, points)

    def test_two_dimensional_moments(self):
        L, M = 8.0, 128
        dx = 2.0 * L / M
        axis = -L + dx * (np.arange(M) + 0.5)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        rho = np.exp(-0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)) / (2 * np.pi)
        rep = mollifiers.moment_order(pts, rho, dx**2, 4)
        assert rep.order == 2
        assert rep.moments[(1, 0)] == pytest.approx(0.0, abs=1e-10)
        assert rep.moments[(0, 1)] == pytest.approx(0.0, abs=1e-10)
