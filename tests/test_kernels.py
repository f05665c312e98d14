"""Kernel families and their sampling against measure pairs."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak_rise
from siolab import forms, kernels, measure, mollifiers, muckenhoupt
from siolab.errors import DiagonalSingularityError, ParameterError, SiolabError
from siolab.truncation import build_sectorial_multiplier


class TestHilbert:
    def test_values(self):
        k = kernels.make_hilbert()
        assert k.evaluate([1.0], [0.0]) == pytest.approx(1.0 / np.pi)
        assert k.evaluate([0.0], [1.0]) == pytest.approx(-1.0 / np.pi)
        assert k.order == 1.0
        assert k.value_dim == 1

    def test_antisymmetry(self):
        k = kernels.make_hilbert()
        rng = np.random.default_rng(3)
        s, t = rng.normal(size=(2, 50, 1))
        assert np.allclose(k.evaluate(s, t), -k.evaluate(t, s))


class TestCauchy:
    def test_matches_complex_reciprocal(self):
        k = kernels.make_cauchy()
        rng = np.random.default_rng(1)
        s = rng.normal(size=(100, 2))
        t = rng.normal(size=(100, 2))
        vals = k.evaluate(s, t)
        z = (t[:, 0] - s[:, 0]) + 1j * (t[:, 1] - s[:, 1])
        expected = 1.0 / z
        assert np.allclose(vals[:, 0], expected.real, atol=1e-12)
        assert np.allclose(vals[:, 1], expected.imag, atol=1e-12)

    def test_profile_factorization_matches_evaluate(self):
        k = kernels.make_cauchy()
        rng = np.random.default_rng(2)
        x = rng.normal(size=(64, 2))
        direct = k.evaluate(np.zeros_like(x), x)
        via_profile = _via_profile(k.profile, x)
        assert np.allclose(direct, via_profile, atol=1e-12)


def _via_profile(profile, x):
    """radial(|x|) * spherical(x/|x|) for a vector-valued profile."""
    r = np.linalg.norm(x, axis=-1)
    return profile.radial(r)[..., None] * profile.spherical(x / r[..., None])


class TestAhlforsBeurling:
    def test_matches_complex_square_reciprocal(self):
        k = kernels.make_ahlfors_beurling()
        rng = np.random.default_rng(4)
        s = rng.normal(size=(100, 2))
        t = rng.normal(size=(100, 2))
        vals = k.evaluate(s, t)
        z = (t[:, 0] - s[:, 0]) + 1j * (t[:, 1] - s[:, 1])
        expected = 1.0 / z**2
        assert np.allclose(vals[:, 0], expected.real, atol=1e-10)
        assert np.allclose(vals[:, 1], expected.imag, atol=1e-10)
        assert k.order == 2.0

    def test_profile_degree_two(self):
        k = kernels.make_ahlfors_beurling()
        assert k.profile.degree == 2.0
        x = np.array([[0.6, -0.8]])
        assert np.allclose(_via_profile(k.profile, x), k.evaluate([[0, 0]], x))


class TestRiesz:
    def test_values(self):
        k = kernels.make_riesz_generalized(1.5, 3)
        x = np.array([[1.0, 2.0, -2.0]])
        r = 3.0
        expected = x / r**2.5
        assert np.allclose(k.evaluate(np.zeros((1, 3)), x), expected)
        assert k.order == 1.5
        assert k.value_dim == 3

    def test_one_dimensional_is_scalar(self):
        # on R, x / |x|^2 = 1 / x is -pi times the Hilbert kernel
        k = kernels.make_riesz_generalized(1.0, 1)
        s = np.zeros((4, 1))
        t = np.array([[1.0], [-2.0], [0.5], [3.0]])
        values = k.evaluate(s, t)
        assert k.value_dim == 1
        assert values.shape == (4,)
        np.testing.assert_allclose(values, -np.pi * kernels.make_hilbert().evaluate(s, t))
        assert k.profile.spherical(np.array([[1.0], [-1.0]])).shape == (2,)
        sectorial = build_sectorial_multiplier(k.profile, r=1.0, dimension=1)
        assert np.asarray(sectorial(s, t)).shape == (4,)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            kernels.make_riesz_generalized(-1.0, 2)
        with pytest.raises(ParameterError):
            kernels.make_riesz_generalized(1.0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.2, 3.0),
        st.floats(0.1, 10.0),
        st.integers(0, 2**31 - 1),
    )
    def test_homogeneity_property(self, alpha, c, seed):
        # K(c x) = c^(-alpha) K(x): order-(-alpha) homogeneity of the profile
        k = kernels.make_riesz_generalized(alpha, 2)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 2))
        x = x[np.linalg.norm(x, axis=1) > 1e-3]
        zero = np.zeros_like(x)
        lhs = k.evaluate(zero, c * x)
        rhs = c ** (-alpha) * k.evaluate(zero, x)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


class TestKernelFromName:
    @pytest.mark.parametrize(
        "name, expected_dim, expected_order",
        [
            ("hilbert", 1, 1.0),
            ("cauchy", 2, 1.0),
            ("ahlfors_beurling", 2, 2.0),
            ("riesz:alpha=1.5,N=3", 3, 1.5),
            ("riesz:alpha=1,N=2.0", 2, 1.0),
        ],
    )
    def test_known_names(self, name, expected_dim, expected_order):
        k = kernels.kernel_from_name(name)
        assert k.dimension == expected_dim
        assert k.order == expected_order

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            kernels.kernel_from_name("nope")
        with pytest.raises(ParameterError):
            kernels.kernel_from_name("riesz:alpha=oops")
        with pytest.raises(ParameterError, match="integer"):  # int() ran N=2.5 as 2
            kernels.kernel_from_name("riesz:alpha=1,N=2.5")

    @pytest.mark.parametrize("alpha", ["inf", "nan", "0", "-1"])
    def test_riesz_order_must_be_positive_and_finite(self, alpha):
        # alpha=inf ran as the zero kernel, alpha=nan failed as a data error
        with pytest.raises(ParameterError, match="alpha must be positive and finite"):
            kernels.kernel_from_name(f"riesz:alpha={alpha},N=1")


class TestMaterialize:
    def test_shape_rows_nu_cols_mu(self):
        k = kernels.make_hilbert()
        mu = measure.from_points([[0.0], [1.0], [2.0]], [1, 1, 1])
        nu = measure.from_points([[0.5], [1.5]], [1, 1])
        km = kernels.materialize(k, mu, nu)
        assert km.entries.shape == (2, 3)
        # entry (i, j) = K(nu_i, mu_j)
        assert km.entries[0, 0] == pytest.approx(
            float(k.evaluate([0.5], [0.0]))
        )

    def test_coincident_points_need_policy(self):
        k = kernels.make_hilbert()
        m = measure.from_points([[0.0], [1.0]], [1, 1])
        with pytest.raises(DiagonalSingularityError):
            kernels.materialize(k, m, m)

    def test_diagonal_policy_fills_value(self):
        k = kernels.make_hilbert()
        m = measure.from_points([[0.0], [1.0]], [1, 1])
        km = kernels.materialize(k, m, m, diagonal_policy=0.0)
        assert km.entries[0, 0] == 0.0
        assert km.entries[1, 1] == 0.0
        assert km.entries[0, 1] == pytest.approx(-1.0 / np.pi)

    def test_vanishing_multiplier_zero_fills_diagonal(self):
        k = kernels.make_hilbert()
        m = measure.from_points([[0.0], [1.0]], [1, 1])
        mult = mollifiers.scale(mollifiers.gaussian_mollifier(), 0.5)
        km = kernels.materialize(k, m, m, multiplier=mult)
        assert km.entries[0, 0] == 0.0
        # off-diagonal entries carry m((t-s)/eps) K(s, t)
        expected = (1.0 - np.exp(-0.5 * (1.0 / 0.5) ** 2)) * (-1.0 / np.pi)
        assert km.entries[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_vector_multiplier_contracts_vector_kernel(self):
        from siolab.truncation import build_sectorial_multiplier

        k = kernels.make_cauchy()
        mu = measure.from_points([[0.0, 0.0]], [1.0])
        nu = measure.from_points([[0.3, 0.4]], [1.0])
        M = build_sectorial_multiplier(k.profile, r=0.5, dimension=2)
        km = kernels.materialize(k, mu, nu, multiplier=M)
        assert km.entries.shape == (1, 1)
        # M K = C phi(|x|/r) |B(x/|x|)|^2 A(|x|) >= 0 for the Cauchy kernel
        assert km.entries[0, 0] >= 0.0

    @settings(max_examples=80, deadline=None)
    @given(dimension=st.integers(1, 2), data=st.data())
    def test_policy_pairs_are_exactly_equal_points(self, dimension, data):
        # coordinates with signed zeros and a gap whose square underflows
        coord = st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 0.5, 1.0])
        point = st.tuples(*[coord] * dimension)
        zero = (0.0,) * dimension
        planted_mu = [(1e-200,) + zero[1:], (-0.0,) * dimension]  # 1e-200 from
        planted_nu = [zero]  # nu's origin; -0.0 is the origin itself

        def distinct(points):  # tuples compare as floats: 0.0 == -0.0
            kept = []
            for p in points:
                if p not in kept:
                    kept.append(p)
            return kept

        mu_pts = distinct(planted_mu + data.draw(st.lists(point, max_size=8)))
        nu_pts = distinct(data.draw(st.lists(point, max_size=8)) + planted_nu)
        mu = measure.from_points(mu_pts, np.ones(len(mu_pts)))
        nu = measure.from_points(nu_pts, np.ones(len(nu_pts)))
        ones = kernels.KernelSpec(
            dimension, 1, 1.0, lambda s, t, out, work: out.fill(1.0)
        )
        same = [(i, j) for i, s in enumerate(nu_pts) for j, t in enumerate(mu_pts) if s == t]

        km = kernels.materialize(ones, mu, nu, diagonal_policy=2.5)
        assert [tuple(ij) for ij in np.argwhere(km.entries == 2.5)] == same

        with pytest.raises(DiagonalSingularityError) as err:
            kernels.materialize(ones, mu, nu)
        assert str(err.value).startswith(f"{len(same)} coincident point pair(s)")
        assert err.value.pairs == [(nu_pts[i], mu_pts[j]) for i, j in same[:10]]

    @pytest.mark.parametrize("policy", [np.nan, np.inf, -np.inf])
    def test_non_finite_diagonal_policy_rejected(self, policy):
        # filled in, it used to fail the finiteness check with a message
        # blaming the entries away from coincident pairs
        m = measure.lebesgue_grid(0.0, 1.0, 0.25)
        with pytest.raises(ParameterError, match="diagonal_policy must be finite"):
            kernels.materialize(kernels.make_hilbert(), m, m, diagonal_policy=policy)

    def test_underflowing_distance_is_not_coincident(self):
        # |(1e-200, 0)|^2 underflows to 0, yet the points are distinct, so
        # the Cauchy kernel there is not a diagonal entry to fill
        k = kernels.make_cauchy()
        m = measure.from_points([[0.0, 0.0], [1e-200, 0.0], [0.5, 0.0]], [1, 1, 1])
        with pytest.raises(DiagonalSingularityError, match="away from coincident"):
            kernels.materialize(k, m, m, diagonal_policy=0.0)

    def test_entries_read_only(self):
        k = kernels.make_hilbert()
        mu = measure.from_points([[0.0]], [1.0])
        nu = measure.from_points([[1.0]], [1.0])
        km = kernels.materialize(k, mu, nu)
        with pytest.raises(ValueError):
            km.entries[0, 0] = 5.0


# Reference formulas of the catalog kernels, each written out whole over the
# broadcast (..., N) differences and assembled with ``np.stack``; the
# kernels' in-place forms must reproduce them bit for bit.


def _hilbert_reference(s, t):
    x = (t - s)[..., 0]
    with np.errstate(divide="ignore"):
        return -1.0 / (np.pi * x)


def _cauchy_reference(s, t):
    x = t - s
    r2 = np.sum(x**2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([x[..., 0] / r2, -x[..., 1] / r2], axis=-1)


def _riesz_reference(alpha, dimension, s, t):
    x = t - s
    r = np.linalg.norm(x, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = x * (r ** (-(alpha + 1.0)))[..., None]
    return values[..., 0] if dimension == 1 else values


def _ahlfors_beurling_reference(s, t):
    x = t - s
    a, b = x[..., 0], x[..., 1]
    r4 = (a * a + b * b) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([(a * a - b * b) / r4, -2.0 * a * b / r4], axis=-1)


def _reference(kernel):
    """The reference formula of a catalog kernel, as f(s, t)."""
    if kernel.name.startswith("riesz("):
        return lambda s, t: _riesz_reference(kernel.order, kernel.dimension, s, t)
    return {
        "hilbert": _hilbert_reference,
        "cauchy": _cauchy_reference,
        "ahlfors_beurling": _ahlfors_beurling_reference,
    }[kernel.name]


def _reference_spec(kernel):
    """``kernel`` with its reference formula copied into ``out`` as its
    in-place form, so that the row-block code downstream of the form is the
    same for both."""
    formula = _reference(kernel)

    def sample_into(s, t, out, work):
        values = formula(np.moveaxis(s, 0, -1), np.moveaxis(t, 0, -1))
        out[...] = np.moveaxis(values, -1, 0) if kernel.value_dim > 1 else values

    return dataclasses.replace(kernel, sample_into=sample_into)


CATALOG = {
    "hilbert": kernels.make_hilbert,
    "cauchy": kernels.make_cauchy,
    "ahlfors_beurling": kernels.make_ahlfors_beurling,
    "riesz1": lambda: kernels.make_riesz_generalized(1.5, 1),
    "riesz2": lambda: kernels.make_riesz_generalized(1.0, 2),
    "riesz3": lambda: kernels.make_riesz_generalized(0.5, 3),
}


def _one_shot(kernel, mu, nu, multiplier, policy):
    """materialize's contract evaluated on the full (len(nu), len(mu), N)
    broadcast in one call of the kernel's reference formula, with
    coincident pairs found by brute force."""
    s, t = nu.points[:, None], mu.points[None]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(_reference(kernel)(s, t))
        if multiplier is not None:
            m = np.asarray(multiplier(s, t))
            if m.ndim == vals.ndim and kernel.value_dim > 1:
                vals = np.sum(m * vals, axis=-1)
            else:
                vals = (m[..., None] if vals.ndim > m.ndim else m) * vals
    vals = np.array(vals)
    fill = 0.0 if kernels.regular_on_diagonal(multiplier) else policy
    for i, p in enumerate(nu.points):
        for j, q in enumerate(mu.points):
            if tuple(p) == tuple(q):
                vals[i, j] = fill
    return vals


def _same_evaluation(a, b) -> bool:
    """``_same_bits`` at every number; NaN (0/0 at a coincident pair) where
    both are NaN, whatever its sign."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and _same_bits(
        np.where(nan, 0.0, a), np.where(nan, 0.0, b)
    )


def _outcome(call):
    """call()'s value, or the type of the siolab error it raises."""
    try:
        return call()
    except SiolabError as exc:
        return type(exc)


def _check_against_reference(kernel, mu, nu, multiplier, policy, rng):
    """materialize, evaluate and bilinear_form (scalar and vector g) of
    ``kernel`` against its reference formula, bit for bit; True when the
    kernel samples finitely and the matrices were compared."""
    s, t = nu.points[:, None], mu.points[None]
    assert _same_evaluation(kernel.evaluate(s, t), _reference(kernel)(s, t))

    f = np.where(rng.random(len(mu)) < 0.3, 0.0, rng.normal(size=len(mu)))
    for g in (rng.normal(size=len(nu)), rng.normal(size=(len(nu), kernel.value_dim))):
        if g.ndim == 2 and kernel.value_dim == 1:
            continue
        got, want = (
            _outcome(lambda: forms.bilinear_form(k, mu, nu, f, g, multiplier, policy))
            for k in (kernel, _reference_spec(kernel))
        )
        if isinstance(want, type):
            assert got is want
        else:
            assert _same_bits(np.asarray(got), np.asarray(want))

    same = [(tuple(p), tuple(q)) for p in nu.points for q in mu.points if tuple(p) == tuple(q)]
    if same and not (kernels.regular_on_diagonal(multiplier) or policy is not None):
        with pytest.raises(DiagonalSingularityError) as err:
            kernels.materialize(kernel, mu, nu, multiplier, policy)
        assert err.value.pairs == same[:10]
        return False
    expected = _one_shot(kernel, mu, nu, multiplier, policy)
    if not np.all(np.isfinite(expected)):  # a distance that underflows
        with pytest.raises(DiagonalSingularityError, match="away from coincident"):
            kernels.materialize(kernel, mu, nu, multiplier, policy)
        return False
    km = kernels.materialize(kernel, mu, nu, multiplier, policy)
    # scalar entries are C-ordered, vector entries component planes,
    # whose stacked matrix is a view
    if km.entries.ndim == 2:
        assert km.entries.flags.c_contiguous
    else:
        assert km.entries.transpose(0, 2, 1).flags.c_contiguous
        assert km.entries.size == 0 or np.shares_memory(km.stacked, km.entries)
    assert _same_bits(km.entries, expected)
    return True


class TestMaterializeBlocks:
    """Row blocks of ``materialize`` against the one-shot oracle; a chunk
    budget of 1 byte makes every nu-row its own block."""

    @pytest.mark.parametrize("chunk", [1, 300, kernels._CHUNK_BYTES])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_blocks_match_one_shot_oracle(self, chunk, data):
        n = data.draw(st.integers(1, 3), label="N")
        catalogue = [kernels.make_riesz_generalized(1.5, n)]
        catalogue += {
            1: [kernels.make_hilbert()],
            2: [kernels.make_cauchy(), kernels.make_ahlfors_beurling()],
        }.get(n, [])
        kernel = data.draw(st.sampled_from(catalogue), label="kernel")
        multipliers = [
            None,
            mollifiers.scale(mollifiers.gaussian_mollifier(n), 0.7),  # vanishes
            mollifiers.scale(mollifiers.constant_one_mollifier(n), 1.0),
        ]
        if kernel.profile is None:  # Hilbert: a complex scalar multiplier
            multipliers.append(mollifiers.scale(mollifiers.complex_shift_mollifier(), 0.5))
        else:  # a vector multiplier, contracted against vector kernels
            multipliers.append(build_sectorial_multiplier(kernel.profile, r=0.8, dimension=n))
        multiplier = data.draw(st.sampled_from(multipliers), label="multiplier")
        policy = data.draw(st.sampled_from([None, 0.0, -2.5]), label="policy")

        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
        n_mu = data.draw(st.integers(0, 9), label="n_mu")
        n_nu = data.draw(st.integers(0, 9), label="n_nu")
        mu_pts = rng.normal(size=(n_mu, n))
        nu_pts = rng.normal(size=(n_nu, n))
        shared = data.draw(st.integers(0, min(n_mu, n_nu)), label="shared")
        # coincident pairs sit in the last nu-rows, i.e. in later blocks
        nu_pts[n_nu - shared:] = mu_pts[rng.choice(n_mu, shared, replace=False)]
        if n_mu and n_nu > shared and data.draw(st.booleans(), label="underflow"):
            # |(1e-200, 0, ...)|^2 underflows, yet the points are distinct
            mu_pts[0] = 0.0
            nu_pts[0] = np.eye(n)[0] * 1e-200
        mu = measure.from_points(mu_pts, np.ones(n_mu))
        nu = measure.from_points(nu_pts, np.ones(n_nu))

        with mock.patch.object(kernels, "_CHUNK_BYTES", chunk):
            _check_against_reference(kernel, mu, nu, multiplier, policy, rng)

    @pytest.mark.parametrize("chunk", [1, 300, kernels._CHUNK_BYTES])
    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_matches_reference_formulas(self, name, chunk):
        # every catalog kernel, with coincident pairs under a diagonal
        # policy in several blocks, then with a distance that underflows
        kernel = CATALOG[name]()
        n = kernel.dimension
        rng = np.random.default_rng(23)
        mu_pts = rng.normal(size=(40, n))
        nu_pts = rng.normal(size=(30, n))
        nu_pts[::10] = mu_pts[:3]
        mu = measure.from_points(mu_pts.copy(), rng.uniform(0.5, 1.5, 40))
        nu = measure.from_points(nu_pts.copy(), rng.uniform(0.5, 1.5, 30))
        with mock.patch.object(kernels, "_CHUNK_BYTES", chunk):
            assert _check_against_reference(kernel, mu, nu, None, -2.5, rng)
            mu_pts[0], nu_pts[-1] = 0.0, np.eye(n)[0] * 1e-200
            mu = measure.from_points(mu_pts, mu.weights)
            nu = measure.from_points(nu_pts, nu.weights)
            sampled = _check_against_reference(kernel, mu, nu, None, 0.0, rng)
        assert sampled == (name == "hilbert")  # -1/(pi x) stays finite

    @pytest.mark.parametrize("chunk", [1, 300])
    def test_kernel_need_not_be_a_convolution(self, chunk):
        # K(s, t) = (s_0 t_0 + 1, s_1 t_1): the sampler hands the form s and
        # t themselves, not t - s
        def sample_into(s, t, out, work):
            np.multiply(s[0], t[0], out=out[0])
            out[0] += 1.0
            np.multiply(s[1], t[1], out=out[1])

        kernel = kernels.KernelSpec(2, 2, 0.0, sample_into, name="product")
        rng = np.random.default_rng(4)
        mu = measure.from_points(rng.normal(size=(50, 2)), np.ones(50))
        nu = measure.from_points(rng.normal(size=(40, 2)), np.ones(40))
        with mock.patch.object(kernels, "_CHUNK_BYTES", chunk):  # many blocks
            km = kernels.materialize(kernel, mu, nu)
        expected = kernel.evaluate(nu.points[:, None], mu.points[None])
        assert _same_bits(km.entries, expected)
        s, t = nu.points[:, None], mu.points[None]
        assert _same_bits(
            expected, np.stack([s[..., 0] * t[..., 0] + 1.0, s[..., 1] * t[..., 1]], axis=-1)
        )

    @pytest.mark.parametrize("chunk", [1, kernels._CHUNK_BYTES])
    def test_non_finite_entry_in_last_block_raises(self, chunk):
        # |(1e-200, 0)|^2 underflows: the last nu-row alone samples inf
        k = kernels.make_cauchy()
        mu = measure.from_points([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]], np.ones(3))
        nu_pts = [[1.0, 1.0], [2.0, -1.0], [-1.0, 3.0], [1e-200, 0.0]]
        with mock.patch.object(kernels, "_CHUNK_BYTES", chunk):
            kernels.materialize(k, mu, measure.from_points(nu_pts[:-1], np.ones(3)))
            with pytest.raises(DiagonalSingularityError, match="away from coincident"):
                kernels.materialize(k, mu, measure.from_points(nu_pts, np.ones(4)))

    @pytest.mark.parametrize("name", ["cauchy", "riesz3"])
    def test_vector_stacked_matrix_is_a_view(self, name):
        # component planes: the (len(nu) * m, len(mu)) matrix the norms
        # solve on shares memory with the entries and equals the one-shot
        # C-layout evaluation, stacked
        rng = np.random.default_rng(3)
        if name == "cauchy":
            kernel, n = kernels.make_cauchy(), 2
        else:
            kernel, n = kernels.make_riesz_generalized(1.0, 3), 3
        mu = measure.from_points(rng.random((70, n)), np.ones(70))
        nu = measure.from_points(rng.random((50, n)) + 2.0, np.ones(50))
        with mock.patch.object(kernels, "_CHUNK_BYTES", 300):  # many blocks
            km = kernels.materialize(kernel, mu, nu)
        expected = np.ascontiguousarray(_one_shot(kernel, mu, nu, None, None))
        assert km.entries.shape == expected.shape
        assert np.array_equal(km.entries, expected)
        stacked = km.stacked
        assert np.shares_memory(stacked, km.entries)
        assert stacked.flags.c_contiguous
        m = kernel.value_dim
        assert np.array_equal(
            stacked, np.moveaxis(expected, 2, 1).reshape(len(nu) * m, len(mu))
        )

    @pytest.mark.parametrize("n_rows", [1, 4])
    def test_stacked_matrix_is_c_ordered_for_any_layout(self, n_rows):
        # one nu-row of C-ordered (1, n, m) entries reshapes to a
        # column-major view; products with it would round otherwise than
        # with the same values laid out as component planes
        rng = np.random.default_rng(5)
        mu = measure.from_points(rng.random((7, 1)), np.ones(7))
        nu = measure.from_points(rng.random((n_rows, 1)) + 2.0, np.ones(n_rows))
        entries = rng.uniform(-1, 1, (n_rows, 7, 3))
        planes = np.empty((n_rows, 3, 7)).transpose(0, 2, 1)
        planes[...] = entries
        c_ordered = kernels.KernelMatrix(entries, mu, nu, 3, None).stacked
        from_planes = kernels.KernelMatrix(planes, mu, nu, 3, None).stacked
        assert c_ordered.flags.c_contiguous and from_planes.flags.c_contiguous
        assert np.array_equal(c_ordered, from_planes)

    def test_memory_is_entries_plus_a_few_blocks(self):
        # measured, not allocated: the broadcast (n, m, N) temporaries of a
        # one-shot evaluation would need about 3.5x the entries here
        rng = np.random.default_rng(0)
        mu = measure.from_points(rng.random((600, 2)), np.ones(600))
        nu = measure.from_points(rng.random((600, 2)), np.ones(600))
        km, rise = traced_peak_rise(
            lambda: kernels.materialize(kernels.make_cauchy(), mu, nu)
        )
        assert rise <= km.entries.nbytes + 4 * kernels._CHUNK_BYTES


def _same_bits(a, b) -> bool:
    """Equal dtype, shape, values and sign bits (of both parts, if complex)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    parts = (lambda x: (x.real, x.imag)) if np.iscomplexobj(a) else (lambda x: (x,))
    return all(
        np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
        for x, y in zip(parts(a), parts(b))
    )


class TestReweight:
    """``reweight`` of K sampled once against ``materialize`` sampling the
    kernel with the multiplier: the same entries, bit for bit."""

    CASES = {  # (kernel, multiplier, dimension)
        "cauchy_annulus": (  # vector K, scalar multiplier
            kernels.make_cauchy,
            lambda: mollifiers.scale(mollifiers.smooth_annulus_mollifier(0.1, 2), 0.6),
            2,
        ),
        "cauchy_window": (  # vector multiplier contracted with vector K
            kernels.make_cauchy,
            lambda: mollifiers.ScaledMultiplier(
                muckenhoupt.window_profile(kernels.make_cauchy().profile), 0.25, True
            ),
            2,
        ),
        "riesz3_sectorial": (
            lambda: kernels.make_riesz_generalized(1.5, 3),
            lambda: build_sectorial_multiplier(
                kernels.make_riesz_generalized(1.5, 3).profile, r=0.8, dimension=3
            ),
            3,
        ),
        "hilbert_complex_shift": (
            kernels.make_hilbert,
            lambda: mollifiers.scale(mollifiers.complex_shift_mollifier(), 0.5),
            1,
        ),
        "hilbert_one": (  # does not vanish at 0: coincident pairs keep the policy
            kernels.make_hilbert,
            lambda: mollifiers.scale(mollifiers.constant_one_mollifier(1), 1.0),
            1,
        ),
    }

    @pytest.mark.parametrize("chunk", [1, kernels._CHUNK_BYTES])
    @pytest.mark.parametrize(  # a singular K needs a policy on shared points
        "shared, policy", [(0, None), (0, 0.0), (6, 0.0), (6, -2.5)]
    )
    @pytest.mark.parametrize("case", CASES)
    def test_matches_materialize_with_the_multiplier(self, case, shared, policy, chunk):
        make_kernel, make_multiplier, n = self.CASES[case]
        kernel, multiplier = make_kernel(), make_multiplier()
        rng = np.random.default_rng(17)
        mu_pts = rng.normal(scale=0.5, size=(40, n))
        nu_pts = rng.normal(scale=0.5, size=(30, n))
        # coincident pairs spread over the rows, so over several blocks
        nu_pts[::5][:shared] = mu_pts[rng.choice(40, shared, replace=False)]
        mu = measure.from_points(mu_pts, rng.uniform(0.5, 1.5, 40))
        nu = measure.from_points(nu_pts, rng.uniform(0.5, 1.5, 30))
        with mock.patch.object(kernels, "_CHUNK_BYTES", chunk):
            km = kernels.materialize(kernel, mu, nu, diagonal_policy=policy)
            weighted = kernels.reweight(km, multiplier)
        expected = kernels.materialize(kernel, mu, nu, multiplier, policy)
        assert _same_bits(weighted.entries, expected.entries)
        assert weighted.value_dim == expected.value_dim
        assert weighted.diagonal_policy == policy
        assert (weighted.mu, weighted.nu) == (mu, nu)
        if expected.entries.ndim == 3:  # component planes, as materialize writes
            assert weighted.entries.transpose(0, 2, 1).flags.c_contiguous
        if shared and not getattr(multiplier, "vanishes_at_zero", False):
            assert np.count_nonzero(weighted.entries == policy) >= shared

    def test_non_finite_product_raises(self):
        k = kernels.make_hilbert()
        mu = measure.from_points([[0.0], [1.0]], np.ones(2))
        nu = measure.from_points([[0.5]], np.ones(1))
        km = kernels.materialize(k, mu, nu)
        with pytest.raises(DiagonalSingularityError, match="non-finite"):
            kernels.reweight(km, lambda s, t: np.full(np.broadcast_shapes(s.shape, t.shape)[:-1], np.inf))
        for multiplier in (2.0, None):  # sampled entries are never written
            with pytest.raises(ParameterError):
                kernels.reweight(km, multiplier)
