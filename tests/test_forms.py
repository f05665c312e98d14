"""Bilinear forms, operator norms, restricted norms, and the factor-2 bound."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_kernel_matrix,
    random_measure,
    random_measure_pair,
    traced_peak_rise,
)
from siolab import forms, kernels, measure, mollifiers, splitter
from siolab.errors import ParameterError, SeparationError
from siolab.kernels import KernelMatrix


def _matrix_quotient(km: KernelMatrix, f, g, p: float) -> float:
    """|B(f, g)| / (||f||_p ||g||_p') summed from the entries themselves."""
    fw = km.mu.weights * f
    if km.entries.ndim == 2:
        value = (km.nu.weights * g) @ km.entries @ fw
    else:
        value = np.einsum("ic,ijc,j->", km.nu.weights[:, None] * g, km.entries, fw)
    norms = forms.lp_norm(f, km.mu.weights, p) * forms.lp_norm(
        g, km.nu.weights, forms.dual_exponent(p)
    )
    return float(abs(value)) / norms


class TestNorms:
    def test_lp_norm_manual(self):
        v = np.array([3.0, -4.0])
        w = np.array([2.0, 1.0])
        # (2 * 27 + 64)^(1/3)
        assert forms.lp_norm(v, w, 3.0) == pytest.approx((2 * 27 + 64) ** (1 / 3))

    def test_lp_norm_vector_values_use_euclidean_magnitude(self):
        v = np.array([[3.0, 4.0]])
        w = np.array([1.0])
        assert forms.lp_norm(v, w, 2.0) == pytest.approx(5.0)

    def test_dual_exponent(self):
        assert forms.dual_exponent(2.0) == pytest.approx(2.0)
        assert forms.dual_exponent(4.0) == pytest.approx(4.0 / 3.0)
        for bad in (1.0, 0.5, np.inf):
            with pytest.raises(ParameterError):
                forms.dual_exponent(bad)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(1.1, 8.0))
    def test_lp_norm_seminorm_axioms(self, seed, p):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        w = rng.uniform(0.1, 2.0, n)
        u, v = rng.normal(size=(2, n))
        c = float(rng.uniform(-3, 3))
        assert forms.lp_norm(c * u, w, p) == pytest.approx(
            abs(c) * forms.lp_norm(u, w, p), rel=1e-9, abs=1e-12
        )
        assert forms.lp_norm(u + v, w, p) <= (
            forms.lp_norm(u, w, p) + forms.lp_norm(v, w, p) + 1e-9
        )


class TestBilinearForm:
    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(5)
        mu, nu = random_measure_pair(5)
        k = kernels.make_hilbert()
        f = rng.normal(size=len(mu))
        g = rng.normal(size=len(nu))
        res = forms.bilinear_form(k, mu, nu, f, g)
        oracle = sum(
            g[i] * nu.weights[i] * f[j] * mu.weights[j]
            * float(k.evaluate(nu.points[i], mu.points[j]))
            for i in range(len(nu))
            for j in range(len(mu))
        )
        assert res.value == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize(
        "case", ["cauchy_vector", "cauchy_paired", "hilbert_complex", "many_rows"]
    )
    def test_matches_exact_double_sum(self, case):
        # oracle: each term g_i nu_i K(s_i, t_j) m(s_i, t_j) f_j mu_j from the
        # kernel on pair lists, summed exactly by math.fsum per component; the
        # supports make every term of one component share a sign, so 1e-12 is
        # a relative bound on the summation error alone
        rng = np.random.default_rng(21)
        multiplier = None
        if case == "hilbert_complex":  # K > 0 and m = x/(x - i) has Re, Im > 0
            k = kernels.make_hilbert()
            mu = random_measure(rng, 7, low=2.0, high=3.0)
            nu = random_measure(rng, 9)
            multiplier = mollifiers.scale(mollifiers.complex_shift_mollifier(), 0.5)
        else:  # t - s > 0 in both coordinates: Re K > 0, Im K < 0
            k = kernels.make_cauchy()
            mu = random_measure(rng, 3 if case == "many_rows" else 8, 2, 1.0, 2.0)
            nu = random_measure(rng, 2100 if case == "many_rows" else 11, 2, -1.0, 0.0)
        f = rng.uniform(0.5, 1.5, len(mu))
        f[0] = 0.0  # an inactive point
        g = rng.uniform(0.5, 1.5, len(nu))
        if case == "cauchy_paired":  # g = (+, -) keeps g . K positive
            g = np.stack([g, -rng.uniform(0.5, 1.5, len(nu))], axis=1)

        rows, cols = np.divmod(np.arange(len(nu) * len(mu)), len(mu))
        values = np.asarray(k.evaluate(nu.points[rows], mu.points[cols]))
        if multiplier is not None:
            values = values * multiplier(nu.points[rows], mu.points[cols])
        weight = (f * mu.weights)[cols] * nu.weights[rows]
        if case == "cauchy_paired":
            terms = np.sum(values * g[rows], axis=-1) * weight
        else:
            terms = (values.T * (g[rows] * weight)).T
        terms = terms.reshape(len(terms), -1)
        if np.iscomplexobj(terms):
            terms = np.hstack([terms.real, terms.imag])
        oracle = np.array([math.fsum(column) for column in terms.T])

        value = np.atleast_1d(forms.bilinear_form(k, mu, nu, f, g, multiplier=multiplier).value)
        if np.iscomplexobj(value):
            value = np.array([value[0].real, value[0].imag])
        assert value.shape == oracle.shape and np.all(oracle != 0)
        np.testing.assert_allclose(value, oracle, rtol=1e-12, atol=0)

    def test_overlapping_supports_rejected_for_singular_kernel(self):
        m = measure.from_points([[0.0], [1.0]], [1, 1])
        k = kernels.make_hilbert()
        f = np.ones(2)
        with pytest.raises(SeparationError, match=r"share the point \(0\.0,\)$"):
            forms.bilinear_form(k, m, m, f, f)

    def test_first_shared_point_in_mu_order_is_reported(self):
        mu = measure.from_points([[2.0], [1.0], [0.0]], [1, 1, 1])
        nu = measure.from_points([[0.0], [1.0]], [1, 1])
        with pytest.raises(SeparationError, match=r"share the point \(1\.0,\)$"):
            forms.check_separation(mu, nu, np.ones(3), np.ones(2))

    def test_separated_supports_on_shared_measure(self):
        # indicator-disjoint functions on one support are fine
        m = measure.from_points([[0.0], [0.5], [1.0]], [1, 1, 1])
        k = kernels.make_hilbert()
        f = np.array([1.0, 0.0, 0.0])
        g = np.array([0.0, 1.0, 1.0])
        res = forms.bilinear_form(k, m, m, f, g)
        oracle = (
            1 * 1 * float(k.evaluate([0.5], [0.0]))
            + 1 * 1 * float(k.evaluate([1.0], [0.0]))
        )
        assert res.value == pytest.approx(oracle, rel=1e-12)

    def test_form_quotient_definition(self):
        rng = np.random.default_rng(6)
        mu, nu = random_measure_pair(6)
        k = kernels.make_hilbert()
        f = rng.normal(size=len(mu))
        g = rng.normal(size=len(nu))
        q = forms.form_quotient(k, mu, nu, f, g, p=3.0)
        b = forms.bilinear_form(k, mu, nu, f, g).value
        expected = abs(b) / (
            forms.lp_norm(f, mu.weights, 3.0) * forms.lp_norm(g, nu.weights, 1.5)
        )
        assert q == pytest.approx(expected, rel=1e-12)

    def test_form_holds_a_block_not_the_kernel_matrix(self):
        # each row block is contracted with f and dropped; 64 KiB blocks
        # (6 rows here) make one block small beside the 5.5 MiB of K
        rng = np.random.default_rng(0)
        mu = measure.from_points(rng.random((600, 2)), np.full(600, 1 / 600))
        nu = measure.from_points(rng.random((600, 2)) + 1.5, np.full(600, 1 / 600))
        f = rng.standard_normal(600)
        g = rng.standard_normal((600, 2))
        k = kernels.make_cauchy()
        with mock.patch.object(kernels, "_CHUNK_BYTES", 2**16):
            quotient, rise = traced_peak_rise(lambda: forms.form_quotient(k, mu, nu, f, g))
        km = kernels.materialize(k, mu, nu)
        assert quotient == pytest.approx(_matrix_quotient(km, f, g, 2.0), rel=1e-12)
        assert rise <= km.entries.nbytes / 8


def _svd_oracle_case(rng, name):
    """Kernel matrices on both solver paths, including awkward spectra."""
    if name.startswith("pair"):
        mu, nu = random_measure_pair(100 + int(name[-1]))
        return random_kernel_matrix(rng, mu, nu)
    kind, shape = name.split("-")
    rows, cols = (int(n) for n in shape.split("x"))
    mu = random_measure(rng, cols)
    nu = random_measure(rng, rows)
    entries = rng.uniform(-1, 1, (rows, cols))
    if kind == "complex":
        entries = entries + 1j * rng.uniform(-1, 1, (rows, cols))
    elif kind == "repeated":
        # weighted matrix with singular values 3, 3, 1, 1/2, 1/3, ...
        left, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
        right, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
        k = min(rows, cols)
        sigma = np.concatenate([[3.0, 3.0], 1.0 / np.arange(1, k - 1)])
        weighted = (left[:, :k] * sigma) @ right[:, :k].T
        entries = weighted / np.sqrt(nu.weights)[:, None] / np.sqrt(mu.weights)
    return KernelMatrix(entries, mu, nu, 1, None)


class TestOperatorNormP2:
    def test_weighting_copies_the_entries_once(self):
        rng = np.random.default_rng(0)
        mu = measure.from_points(rng.random((600, 2)), np.ones(600))
        nu = measure.from_points(rng.random((600, 2)), np.ones(600))
        km = kernels.materialize(kernels.make_cauchy(), mu, nu)
        _, rise = traced_peak_rise(lambda: forms.operator_norm_p2(km))
        assert rise <= 1.5 * km.entries.nbytes

    def test_finiteness_is_checked_without_a_full_mask(self):
        rng = np.random.default_rng(0)
        mu = measure.from_points(rng.random((600, 2)), np.ones(600))
        nu = measure.from_points(rng.random((600, 2)) + 1.5, np.ones(600))
        km = kernels.materialize(kernels.make_cauchy(), mu, nu)
        _, rise = traced_peak_rise(lambda: forms._finite_or_raise(km))
        assert rise <= km.entries.nbytes / 16  # a boolean mask of K is 1/8
        entries = km.entries.copy(order="K")
        entries[-1, -1, 1] = np.nan  # in the last block
        with pytest.raises(ParameterError, match="non-finite"):
            forms.operator_norm_p2(KernelMatrix(entries, mu, nu, 2))

    def test_operator_norm_holds_no_weighted_copy(self):
        # above _DENSE_MAX the weights are applied as vectors around K
        rng = np.random.default_rng(0)
        mu = measure.from_points(rng.random((600, 2)), np.ones(600))
        nu = measure.from_points(rng.random((600, 2)), np.ones(600))
        km = kernels.materialize(kernels.make_cauchy(), mu, nu)
        est, rise = traced_peak_rise(lambda: forms.operator_norm_p2(km))
        assert est.detail["solver"] == "lanczos"
        assert rise <= 0.25 * km.entries.nbytes

    @pytest.mark.parametrize("case", ["real", "complex", "vector"])
    def test_operator_solve_matches_dense_svd_oracle(self, case):
        # oracle: the top singular value of the dense weighted matrix
        rng = np.random.default_rng(31)
        dimension = 2 if case == "vector" else 1
        mu = random_measure(rng, 90, dimension=dimension)
        nu = random_measure(rng, 80, dimension=dimension, low=2.0, high=3.0)
        kernel = kernels.make_cauchy() if case == "vector" else kernels.make_hilbert()
        multiplier = None
        if case == "complex":
            multiplier = mollifiers.scale(mollifiers.complex_shift_mollifier(), 0.5)
        km = kernels.materialize(kernel, mu, nu, multiplier)
        assert min(km.stacked.shape) > forms._DENSE_MAX
        assert np.iscomplexobj(km.entries) == (case == "complex")
        est = forms.operator_norm_p2(km, seed=4)
        assert est.detail["solver"] == "lanczos"
        root_nu = np.repeat(np.sqrt(nu.weights), km.value_dim)
        weighted = root_nu[:, None] * km.stacked * np.sqrt(mu.weights)
        oracle = np.linalg.svd(weighted, compute_uv=False)[0]
        assert est.value == pytest.approx(oracle, rel=1e-12)
        quotient = forms.form_quotient(
            kernel, mu, nu, est.witness_f, est.witness_g, 2.0, multiplier
        )
        assert forms.quotient_reproduces(quotient, est.value)

    def test_all_zero_operator_is_not_solved(self):
        # a zero operator has no top singular vector; the guard answers first
        rng = np.random.default_rng(32)
        mu = random_measure(rng, 100, dimension=2)
        nu = random_measure(rng, 100, dimension=2, low=2.0, high=3.0)
        km = KernelMatrix(np.zeros((100, 100, 2)), mu, nu, 2, None)
        est = forms.operator_norm_p2(km)
        assert est.value == 0.0
        assert est.detail["solver"] == "none"

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(7)
        cases = [f"pair{seed}" for seed in range(5)] + [
            "real-1x9",
            "real-9x1",
            "complex-7x5",
            "repeated-6x6",
            "complex-40x90",
            "real-150x80",
            "complex-80x150",
            "repeated-150x80",
        ]
        for case in cases:
            km = _svd_oracle_case(rng, case)
            mu, nu = km.mu, km.nu
            est = forms.operator_norm_p2(km)
            # oracle: largest singular value of diag(w_nu^1/2) K diag(w_mu^1/2)
            weighted = (
                np.sqrt(nu.weights)[:, None] * km.entries * np.sqrt(mu.weights)
            )
            oracle = np.linalg.svd(weighted, compute_uv=False)[0]
            assert est.value == pytest.approx(oracle, rel=1e-10), case
            dense = min(km.entries.shape) <= forms._DENSE_MAX
            assert est.detail["solver"] == ("lapack" if dense else "lanczos"), case
            pairing = (
                est.witness_g @ (nu.weights[:, None] * km.entries * mu.weights)
                @ est.witness_f
            )
            denom = forms.lp_norm(est.witness_f, mu.weights, 2.0) * forms.lp_norm(
                est.witness_g, nu.weights, 2.0
            )
            assert abs(pairing) / denom == pytest.approx(est.value, rel=1e-10), case

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.integers(0, 40),
    )
    def test_matches_svd_oracle_random(self, seed, dense, complex_, tall, extra):
        # short side on both sides of _DENSE_MAX: LAPACK up to it, Lanczos above
        rng = np.random.default_rng(seed)
        short = (
            int(rng.integers(1, forms._DENSE_MAX + 1))
            if dense
            else int(rng.integers(forms._DENSE_MAX + 1, forms._DENSE_MAX + 33))
        )
        rows, cols = (short + extra, short) if tall else (short, short + extra)
        mu = random_measure(rng, cols)
        nu = random_measure(rng, rows)
        entries = rng.uniform(-1, 1, (rows, cols))
        if complex_:
            entries = entries + 1j * rng.uniform(-1, 1, (rows, cols))
        km = KernelMatrix(entries, mu, nu, 1, None)
        est = forms.operator_norm_p2(km, seed=seed)
        weighted = np.sqrt(nu.weights)[:, None] * entries * np.sqrt(mu.weights)
        oracle = np.linalg.svd(weighted, compute_uv=False)[0]
        assert est.value == pytest.approx(oracle, rel=1e-10)
        assert est.detail["solver"] == ("lapack" if dense else "lanczos")
        pairing = (
            est.witness_g @ (nu.weights[:, None] * entries * mu.weights)
            @ est.witness_f
        )
        denom = forms.lp_norm(est.witness_f, mu.weights, 2.0) * forms.lp_norm(
            est.witness_g, nu.weights, 2.0
        )
        assert abs(pairing) / denom == pytest.approx(est.value, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["repeated", "gap", "rank-one"]),
        st.booleans(),
        st.booleans(),
    )
    def test_lanczos_matches_svd_on_planted_spectra(self, seed, spectrum, complex_, tall):
        # above _DENSE_MAX, W = L diag(sigma) R^H with a planted top: a
        # repeated top singular value, a top gap of 1e-4, or rank one
        rng = np.random.default_rng(seed)
        short = int(rng.integers(forms._DENSE_MAX + 1, forms._DENSE_MAX + 60))
        long = short + int(rng.integers(0, 60))
        rows, cols = (long, short) if tall else (short, long)

        def orthonormal_columns(n):
            a = rng.normal(size=(n, short))
            if complex_:
                a = a + 1j * rng.normal(size=(n, short))
            return np.linalg.qr(a)[0]

        sigma = {
            "repeated": np.r_[1.0, 1.0, rng.uniform(0.0, 0.9, short - 2)],
            "gap": np.r_[1.0, 1.0 - 1e-4, rng.uniform(0.0, 0.9, short - 2)],
            "rank-one": np.r_[1.0, np.zeros(short - 1)],
        }[spectrum]
        weighted = (orthonormal_columns(rows) * sigma) @ orthonormal_columns(cols).conj().T
        root_nu = rng.uniform(0.5, 2.0, rows)
        root_mu = rng.uniform(0.5, 2.0, cols)
        stacked = weighted / root_nu[:, None] / root_mu
        value, u, v, residual, solver, steps = forms._top_singular(
            stacked, root_nu, root_mu, seed
        )
        oracle = np.linalg.svd(root_nu[:, None] * stacked * root_mu, compute_uv=False)[0]
        assert solver == "lanczos" and steps > 0
        assert value == pytest.approx(oracle, rel=1e-12)
        pairing = u.conj() @ (root_nu[:, None] * stacked * root_mu) @ v
        assert abs(pairing) == pytest.approx(value, rel=1e-12)

    def test_one_product_per_lanczos_step(self):
        # a kept Gram matrix takes one product per step; a whole matrix S
        # one with S and one with S^T, and after the solve one more with S
        # for the value, one with S^T for the residual and, when S is wide,
        # one with S^T for v = W^H y; a solved vector only those last two
        rng = np.random.default_rng(35)
        calls = {}

        class Counted(np.ndarray):
            def __matmul__(self, other):
                calls[self.shape] = calls.get(self.shape, 0) + 1
                return np.asarray(self) @ other

        for shape in ((150, 100), (100, 150)):
            calls.clear()
            stacked = rng.uniform(-1, 1, shape).view(Counted)
            root_nu, root_mu = rng.uniform(0.5, 2.0, shape[0]), rng.uniform(0.5, 2.0, shape[1])
            *_, solver, steps = forms._top_singular(stacked, root_nu, root_mu)
            assert solver == "lanczos" and steps > 0
            wide = shape[1] > shape[0]
            assert calls == {shape: steps + 1, shape[::-1]: steps + 1 + wide}
        weighted = root_nu[:, None] * np.asarray(stacked) * root_mu
        kept = np.asarray(weighted.T @ weighted).view(Counted)
        calls.clear()
        solved = forms._lanczos(kept.__matmul__, rng.standard_normal(150))
        assert calls == {kept.shape: solved[1]}
        calls.clear()
        *_, solver, steps = forms._top_singular(stacked, root_nu, root_mu, solved=solved)
        assert (solver, steps) == ("lanczos", solved[1])
        assert calls == {shape: 1, shape[::-1]: 1}

    @pytest.mark.parametrize("complex_", [False, True])
    def test_orthogonalize_copies_no_basis(self, complex_):
        # one expression serves real and complex data: conj() of a real
        # array is the array itself, so a pass allocates vectors, not a
        # conjugate basis (160 x 4000, 5.1 MB real and 10.2 MB complex)
        rng = np.random.default_rng(36)
        shape = (4000, forms._LANCZOS_CAP)
        basis = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0)
        basis = np.ascontiguousarray(np.linalg.qr(basis)[0].T)
        w = rng.normal(size=4000) + (1j * rng.normal(size=4000) if complex_ else 0)
        norm, rise = traced_peak_rise(lambda: forms._orthogonalize(w, basis))
        assert rise <= 2 * w.nbytes
        assert np.max(np.abs(basis.conj() @ w)) <= 1e-12 * norm
        assert norm == pytest.approx(np.linalg.norm(w), rel=1e-12)

    def test_witnesses_achieve_value(self):
        rng = np.random.default_rng(8)
        mu, nu = random_measure_pair(17)
        km = random_kernel_matrix(rng, mu, nu)
        est = forms.operator_norm_p2(km)
        pairing = float(
            est.witness_g @ (nu.weights[:, None] * km.entries * mu.weights)
            @ est.witness_f
        )
        denom = forms.lp_norm(est.witness_f, mu.weights, 2.0) * forms.lp_norm(
            est.witness_g, nu.weights, 2.0
        )
        assert abs(pairing) / denom == pytest.approx(est.value, rel=1e-9)

    def test_vector_kernel_witness_shapes(self):
        k = kernels.make_cauchy()
        rng = np.random.default_rng(9)
        mu = random_measure(rng, 7, dimension=2)
        nu = random_measure(rng, 6, dimension=2, low=2.0, high=3.0)
        km = kernels.materialize(k, mu, nu)
        est = forms.operator_norm_p2(km)
        assert est.witness_f.shape == (7,)
        assert est.witness_g.shape == (6, 2)
        assert est.value > 0


class TestOperatorNormP:
    def test_p2_agrees_with_exact(self):
        rng = np.random.default_rng(10)
        mu, nu = random_measure_pair(11)
        km = random_kernel_matrix(rng, mu, nu)
        exact = forms.operator_norm_p2(km)
        at_two = forms.operator_norm_p(km, 2.0)
        assert at_two.kind == exact.kind == "operator_exact_p2"
        assert at_two.value == exact.value
        assert np.array_equal(at_two.witness_f, exact.witness_f)
        # the power iteration itself is sharp at p = 2, from any start
        lower = forms._boyd_lower_bound(
            km.stacked, None, mu.weights, nu.weights, 2.0, np.ones(len(mu)), 16, 60, 0
        )[0]
        assert lower <= exact.value * (1 + 1e-9)
        assert lower >= exact.value * (1 - 1e-6)

    def test_p2_agrees_with_exact_on_vector_kernels(self):
        rng = np.random.default_rng(13)
        mu = random_measure(rng, 9, dimension=2)
        nu = random_measure(rng, 8, dimension=2, low=2.0, high=3.0)
        for kernel in (
            kernels.make_cauchy(),
            kernels.make_ahlfors_beurling(),
            kernels.make_riesz_generalized(1.0, 2),
        ):
            km = kernels.materialize(kernel, mu, nu)
            exact = forms.operator_norm_p2(km)
            at_two = forms.operator_norm_p(km, 2.0)
            assert at_two.value == exact.value
            assert np.array_equal(at_two.witness_g, exact.witness_g)
            # the power iteration from the p = 2 maximizer reproduces the norm
            lower = forms._boyd_lower_bound(
                km.stacked, forms._components(km), mu.weights, nu.weights, 2.0,
                exact.witness_f, 16, 60, 0,
            )[0]
            assert lower == pytest.approx(exact.value, rel=1e-12)

    def test_dominates_random_search_oracle(self):
        rng = np.random.default_rng(11)
        mu, nu = random_measure_pair(12)
        km = random_kernel_matrix(rng, mu, nu)
        p = 3.0
        est = forms.operator_norm_p(km, p)
        # oracle: certified lower bound from random trial functions
        best = 0.0
        for _ in range(400):
            f = rng.normal(size=len(mu))
            image = km.entries @ (f * mu.weights)
            denom = forms.lp_norm(f, mu.weights, p)
            if denom > 0:
                best = max(best, forms.lp_norm(image, nu.weights, p) / denom)
        assert est.value >= best * (1 - 1e-9)

    @pytest.mark.parametrize("kind, n", [("scalar", 70), ("complex", 9), ("vector", 9)])
    def test_operator_norm_is_the_estimator_for_p(self, kind, n):
        # 70 points take the Lanczos path, whose start the seed draws
        rng = np.random.default_rng(22)
        mu = random_measure(rng, n, dimension=2)
        nu = random_measure(rng, n + 3, dimension=2, low=2.0, high=3.0)
        if kind == "vector":
            km = kernels.materialize(kernels.make_riesz_generalized(1.0, 2), mu, nu)
        else:
            entries = rng.uniform(-1, 1, (n + 3, n))
            if kind == "complex":
                entries = entries + 1j * rng.uniform(-1, 1, entries.shape)
            km = KernelMatrix(entries, mu, nu, 1, None)
        for p, expected in (
            (2.0, forms.operator_norm_p2(km, 3)),
            (3.0, forms.operator_norm_p(km, 3.0, 5, 20, 3)),
        ):
            est = forms.operator_norm(km, p, seed=3, seeds=5, iterations=20)
            assert est.kind == expected.kind
            assert est.value == expected.value
            assert np.array_equal(est.witness_f, expected.witness_f)
            assert np.array_equal(est.witness_g, expected.witness_g)
            assert est.detail == expected.detail


class TestRestrictedNorm:
    def test_no_shared_support_equals_full_norm(self):
        rng = np.random.default_rng(12)
        mu, nu = random_measure_pair(13)
        km = random_kernel_matrix(rng, mu, nu)
        restricted = forms.restricted_norm_exact(km)
        full = forms.operator_norm_p2(km)
        assert restricted.value == pytest.approx(full.value, abs=1e-12)

    def test_shared_atoms_reduce_norm_via_identity_kernel(self):
        # the identity-like kernel pairs each point with itself only, and
        # separated supports never pair a point with itself, so the
        # restricted norm collapses to zero while the full norm is 1
        pts = [[0.0], [1.0], [2.0]]
        m = measure.from_points(pts, [1.0, 1.0, 1.0])
        km = KernelMatrix(np.eye(3), m, m, 1, None)
        restricted = forms.restricted_norm_exact(km)
        full = forms.operator_norm_p2(km)
        assert full.value == pytest.approx(1.0, rel=1e-12)
        assert restricted.value == pytest.approx(0.0, abs=1e-12)
        assert restricted.detail["shared_points"] == 3

    def test_exact_matches_brute_force_assignments(self):
        # oracle: enumerate every separated support assignment directly
        rng = np.random.default_rng(13)
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        m = measure.from_points(pts, rng.uniform(0.5, 1.5, 4))
        real = rng.uniform(-1, 1, (4, 4))
        for entries in (real, real + 1j * rng.uniform(-1, 1, (4, 4))):
            km = KernelMatrix(entries, m, m, 1, None)
            est = forms.restricted_norm_exact(km)
            best = 0.0
            for mask in range(16):
                cols = [j for j in range(4) if (mask >> j) & 1]
                rows = [i for i in range(4) if not (mask >> i) & 1]
                if not cols or not rows:
                    continue
                sub = entries[np.ix_(rows, cols)]
                weighted = (
                    np.sqrt(m.weights[rows])[:, None] * sub * np.sqrt(m.weights[cols])
                )
                best = max(best, np.linalg.svd(weighted, compute_uv=False)[0])
            assert est.value == pytest.approx(best, rel=1e-12)

    def test_cap_enforced(self):
        # one measure on both sides: 26 points, all 13 shared
        rng = np.random.default_rng(14)
        m = random_measure(rng, 13)
        km = random_kernel_matrix(rng, m, m)
        with pytest.raises(ParameterError, match="cap"):
            forms.restricted_norm_exact(km, cap=24)

    def test_disjoint_supports_above_cap_are_one_exact_solve(self):
        # 140 points share none: one block, the same Lanczos solve as the
        # operator norm with the same seed
        rng = np.random.default_rng(19)
        mu = random_measure(rng, 70)
        nu = random_measure(rng, 70, low=2.0, high=3.0)
        km = random_kernel_matrix(rng, mu, nu)
        est = forms.restricted_norm(km, cap=24, seed=5)
        assert est.kind == "restricted_exact"
        assert est.iterations == 1
        assert est.value == forms.operator_norm_p2(km, seed=5).value

    def test_disjoint_supports_solve_w_without_a_copy(self):
        # the one block is all of W: no more memory than the operator norm
        rng = np.random.default_rng(23)
        mu = random_measure(rng, 600, dimension=2)
        nu = random_measure(rng, 600, dimension=2, low=3.0, high=4.0)
        km = kernels.materialize(kernels.make_cauchy(), mu, nu)
        w_bytes = km.entries.nbytes
        _, p2_peak = traced_peak_rise(lambda: forms.operator_norm_p2(km))
        est, peak = traced_peak_rise(lambda: forms.restricted_norm(km))
        assert est.kind == "restricted_exact"
        assert peak < p2_peak + w_bytes / 2

    def test_shared_points_above_cap_are_searched(self):
        rng = np.random.default_rng(20)
        m = random_measure(rng, 13)
        km = random_kernel_matrix(rng, m, m)
        assert forms.restricted_norm(km, cap=24).kind == "restricted_heuristic"
        below = forms.restricted_norm(km, cap=26)
        assert below.kind == "restricted_exact"
        assert below.value == forms.restricted_norm_exact(km, cap=26).value

    @pytest.mark.parametrize("cap", [4, 24])
    def test_enumeration_at_p3_is_a_lower_bound(self, cap):
        rng = np.random.default_rng(21)
        m = random_measure(rng, 5)
        km = random_kernel_matrix(rng, m, m)
        est = forms.restricted_norm(km, 3.0, cap=cap)
        assert est.kind != "restricted_exact"
        assert math.isnan(est.residual)
        if cap == 24:
            assert est.kind == "restricted_lower_p"
            assert est.iterations == 2**5

    def test_heuristic_never_exceeds_exact(self):
        for seed in range(6):
            rng = np.random.default_rng(200 + seed)
            pts = rng.uniform(0, 1, (5, 1))
            m = measure.from_points(pts, rng.uniform(0.5, 1.5, 5))
            km = random_kernel_matrix(rng, m, m)
            exact = forms.restricted_norm_exact(km).value
            heur = forms.restricted_norm_heuristic(km, trials=64, seed=seed).value
            assert heur <= exact * (1 + 1e-9)
            assert heur >= 0.0

    def test_heuristic_deterministic_per_seed(self):
        rng = np.random.default_rng(15)
        mu, nu = random_measure_pair(16, max_points=30)
        km = random_kernel_matrix(rng, mu, nu)
        a = forms.restricted_norm_heuristic(km, trials=16, seed=3)
        b = forms.restricted_norm_heuristic(km, trials=16, seed=3)
        assert a.value == b.value
        assert np.array_equal(a.witness_f, b.witness_f)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kind=st.sampled_from(["real", "complex", 2, 3]),
        large=st.booleans(),
        p=st.sampled_from([2.0, 3.0]),
    )
    def test_block_solve_matches_sub_matrix_oracle(self, seed, kind, large, p):
        # oracle: the public estimators on a KernelMatrix of the block,
        # embedded into zeros, bit for bit; short sides on both sides of
        # _DENSE_MAX, so LAPACK and Lanczos blocks alike
        rng = np.random.default_rng(seed)
        low, high = (
            (forms._DENSE_MAX + 1, forms._DENSE_MAX + 16) if large else (0, forms._DENSE_MAX)
        )
        n_rows, n_cols = rng.integers(low, high + 1, 2)
        mu = random_measure(rng, n_cols + int(rng.integers(0, 4)))
        nu = random_measure(rng, n_rows + int(rng.integers(0, 4)))
        m = kind if isinstance(kind, int) else 1
        shape = (len(nu), len(mu)) + ((m,) if m > 1 else ())
        entries = rng.uniform(-1, 1, shape)
        if kind == "complex":
            entries = entries + 1j * rng.uniform(-1, 1, shape)
        km = KernelMatrix(entries, mu, nu, m, None)
        rows = np.sort(rng.choice(len(nu), n_rows, replace=False))
        cols = np.sort(rng.choice(len(mu), n_cols, replace=False))

        _, _, solve = forms._separated_blocks(km, p, seed)
        value, witness_f, witness_g = solve(rows, cols)

        expected_f = np.zeros_like(witness_f)
        expected_g = np.zeros_like(witness_g)
        expected = 0.0
        if n_rows and n_cols:
            sub = KernelMatrix(
                entries[np.ix_(rows, cols)],
                forms._submeasure(mu, cols),
                forms._submeasure(nu, rows),
                m,
                None,
            )
            if p == 2.0:
                est = forms.operator_norm_p2(sub, seed=seed)
            else:
                est = forms.operator_norm_p(sub, p, seeds=6, iterations=40, seed=seed)
            expected = est.value
            expected_f[cols] = est.witness_f
            expected_g[rows] = est.witness_g
        assert value == expected
        assert np.array_equal(witness_f, expected_f)
        assert np.array_equal(witness_g, expected_g)

    def test_non_finite_entries_raise_only_off_coincident_pairs(self):
        pts = [[0.0], [1.0], [2.0]]
        m = measure.from_points(pts, [1.0, 1.0, 1.0])
        entries = np.ones((3, 3))
        np.fill_diagonal(entries, np.inf)  # never in a separated block
        km = KernelMatrix(entries, m, m, 1, None)
        assert forms.restricted_norm_exact(km).value > 0
        entries = entries.copy()
        entries[0, 2] = np.nan
        km = KernelMatrix(entries, m, m, 1, None)
        for search in (forms.restricted_norm_exact, forms.restricted_norm_heuristic):
            with pytest.raises(ParameterError, match="non-finite"):
                search(km)

    def test_separated_blocks_check_finiteness_without_a_full_mask(self):
        # one cloud as both measures: the coincident pairs are the policy's
        # zeros, skipped by index inside each row block
        rng = np.random.default_rng(0)
        m = measure.from_points(rng.random((600, 2)), np.ones(600))
        km = kernels.materialize(kernels.make_cauchy(), m, m, diagonal_policy=0.0)
        _, rise = traced_peak_rise(lambda: forms._separated_blocks(km, 2.0, 0))
        assert rise <= km.entries.nbytes / 16  # a boolean mask of K is 1/8

    def test_witness_supports_are_separated(self):
        rng = np.random.default_rng(16)
        pts = rng.uniform(0, 1, (6, 1))
        m = measure.from_points(pts, rng.uniform(0.5, 1.5, 6))
        km = random_kernel_matrix(rng, m, m)
        est = forms.restricted_norm_exact(km)
        f_active = {j for j in range(6) if abs(est.witness_f[j]) > 0}
        g_active = {i for i in range(6) if abs(est.witness_g[i]) > 0}
        assert not (f_active & g_active)


def _shared_cloud(rng, kind, shared, mu_only, nu_only, coincident=np.inf):
    """A KernelMatrix with random entries on two 1-D supports that share
    ``shared`` points, in shuffled order, with ``coincident`` on every
    coincident pair (all components); ``kind`` as in the block oracle."""
    pts = rng.uniform(0, 1, (shared + mu_only + nu_only, 1))
    mu_pts = rng.permutation(pts[: shared + mu_only])
    nu_pts = rng.permutation(np.vstack([pts[:shared], pts[shared + mu_only :]]))
    mu = measure.from_points(mu_pts, rng.uniform(0.5, 1.5, len(mu_pts)))
    nu = measure.from_points(nu_pts, rng.uniform(0.5, 1.5, len(nu_pts)))
    m = kind if isinstance(kind, int) else 1
    shape = (len(nu), len(mu)) + ((m,) if m > 1 else ())
    entries = rng.uniform(-1, 1, shape)
    if kind == "complex":
        entries = entries + 1j * rng.uniform(-1, 1, shape)
    idx_mu, idx_nu = measure.shared_point_indices(mu.points, nu.points)
    entries[idx_nu, idx_mu] = coincident
    return KernelMatrix(entries, mu, nu, m, None)


def _flip_cloud(rng, kind, size, nu_side):
    """(km, c): a ``_shared_cloud`` with c shared points sized for the flip
    tests.  When ``small`` every separated block has at most _DENSE_MAX
    columns and rows; otherwise every flip has more than _DENSE_MAX stacked
    rows, and more than _DENSE_MAX columns when ``large``, or columns that
    cross it when ``mixed``.  ``nu_side`` makes m len(nu) < len(mu)."""
    m = kind if isinstance(kind, int) else 1
    c = int(rng.integers(2, 10))
    if size != "small":  # more than _DENSE_MAX stacked rows in every flip
        nu_only = -(-(forms._DENSE_MAX + 1) // m) + int(rng.integers(0, 4))
    if size == "large":  # and more than _DENSE_MAX columns
        mu_only = forms._DENSE_MAX + 1 + int(rng.integers(0, 8))
    elif size == "mixed":  # more than _DENSE_MAX columns with all c shared
        mu_only = forms._DENSE_MAX + 1 - c + int(rng.integers(0, c - 1))
    else:  # at most _DENSE_MAX columns, the shared ones included
        mu_only = int(rng.integers(0, forms._DENSE_MAX - c + 1))
        nu_only = int(rng.integers(0, 8))
    if nu_side:  # m len(nu) < len(mu)
        mu_only = max(mu_only, (m - 1) * c + 1)
        nu_only = max(0, (c + mu_only - 1) // m - c)
    else:  # len(mu) <= m len(nu)
        nu_only = max(nu_only, -(-(c + mu_only) // m) - c)
    return _shared_cloud(rng, kind, c, mu_only, nu_only), c


class TestFlipGram:
    """Greedy flips of the restricted search solved on the kept Gram matrix."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kind=st.sampled_from(["real", "complex", 2, 3]),
        size=st.sampled_from(["small", "mixed", "large"]),
        nu_side=st.booleans(),
    )
    def test_flip_matches_the_block_solve(self, seed, kind, size, nu_side):
        # oracle: ``_estimate`` on the block cut from K (``solve`` without a
        # solved vector).  A flipped block whose short side is above
        # _DENSE_MAX is solved from the top vector of Lanczos on G'; one at
        # most that by LAPACK on the cut block.  A flip screened out against
        # a random ``best`` gives None, and its block's value is below it.
        # When ``small`` no Gram matrix is kept; when ``mixed`` short flips
        # are screened, solved and accepted between long ones on the kept
        # Gram matrix.  A shorter nu side keeps no Gram matrix, so those
        # flips are cold solves.
        rng = np.random.default_rng(seed)
        m = kind if isinstance(kind, int) else 1
        km, c = _flip_cloud(rng, kind, size, nu_side)
        assert (m * len(km.nu) < len(km.mu)) == nu_side
        finite = KernelMatrix(np.where(np.isinf(km.entries), 0, km.entries), km.mu, km.nu, m)
        shared, assign, solve = forms._separated_blocks(km, 2.0, seed)
        to_f = rng.random(c) < 0.5
        base = solve(*assign(to_f))
        flips = solve.flips(assign(to_f)[0], base)
        assert (flips is None) == (nu_side or size == "small")
        assert forms._separated_blocks(km, 3.0, seed)[2].flips(assign(to_f)[0], base) is None
        for k in rng.permutation(c):
            flipped = to_f.copy()
            flipped[k] = not flipped[k]
            rows, cols = assign(flipped)
            best = base[0] * rng.uniform(0.0, 1.2)
            with mock.patch.object(forms, "_top_singular", wraps=forms._top_singular) as top:
                got = flips.solve(k, rows, cols, best) if flips else solve(rows, cols)
            want, want_f, want_g = solve(rows, cols)
            if got is None:
                assert flips and want < best
                continue
            value, witness_f, witness_g = got
            solved = top.call_args.args[4] if top.called else None  # an empty side
            assert (solved is None) == (flips is None or len(cols) <= forms._DENSE_MAX)
            if solved is None:
                assert value == want
            else:
                assert len(solved[0]) == len(cols)
                assert value == pytest.approx(want, rel=1e-12)
            assert np.array_equal(witness_f != 0, want_f != 0)
            assert np.array_equal(witness_g != 0, want_g != 0)
            if value > 0:  # an empty side gives 0 and zero witnesses
                quotient = _matrix_quotient(finite, witness_f, witness_g, 2.0)
                assert forms.quotient_reproduces(quotient, value)
            if flips and rng.random() < 0.5:
                flips.accept(got)
                to_f = flipped

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kind=st.sampled_from(["real", "complex", 2, 3]),
        size=st.sampled_from(["small", "mixed", "large"]),
    )
    def test_screen_changes_no_search(self, seed, kind, size):
        # the search equals one whose slack rejects no flip, bit for bit:
        # every flip the screen rejects would have lost
        km, _ = _flip_cloud(np.random.default_rng(seed), kind, size, False)
        got = forms.restricted_norm_heuristic(km, trials=8, seed=seed)
        with mock.patch.object(forms, "_SCREEN_SLACK", math.inf):
            want = forms.restricted_norm_heuristic(km, trials=8, seed=seed)
        assert got.value == want.value
        assert got.iterations == want.iterations
        assert np.array_equal(got.witness_f, want.witness_f)
        assert np.array_equal(got.witness_g, want.witness_g)

    def test_rejected_flips_lose_when_solved_cold(self, monkeypatch):
        # every flip the screen rejects, solved from its block cut from K,
        # is below the best value it was screened against; both screens,
        # eigvalsh at most _DENSE_MAX columns and Lanczos above, reject
        rejected, screen = [], forms._FlipGram.solve

        def spy(flips, k, rows, cols, best):
            got = screen(flips, k, rows, cols, best)
            if got is None:
                rejected.append((rows, cols, best))
            return got

        monkeypatch.setattr(forms._FlipGram, "solve", spy)
        widths = set()
        for kind in ("real", "complex", 2, 3):
            km = _shared_cloud(np.random.default_rng(37), kind, 100, 40, 60)
            rejected.clear()
            forms.restricted_norm_heuristic(km, trials=8, seed=2)
            solve = forms._separated_blocks(km, 2.0, 2)[2]
            assert rejected
            for rows, cols, best in rejected:
                assert solve(rows, cols)[0] < best
                widths.add(len(cols) > forms._DENSE_MAX)
        assert widths == {False, True}

    def test_flips_to_an_empty_side(self):
        # one cloud as both measures: flipping the only point in f leaves no
        # column, and flipping the only point in g no row; both solve to 0
        km = _shared_cloud(np.random.default_rng(38), "real", 150, 0, 0)
        _, assign, solve = forms._separated_blocks(km, 2.0, 0)
        for alone in (False, True):
            to_f = np.full(150, not alone)
            to_f[3] = alone
            flips = solve.flips(assign(to_f)[0], solve(*assign(to_f)))
            to_f[3] = not alone
            value, witness_f, witness_g = flips.solve(3, *assign(to_f), 0.0)
            assert value == 0.0 and not np.any(witness_f) and not np.any(witness_g)

    @pytest.mark.parametrize("kind", ["real", "complex", 2])
    def test_kept_gram_matches_a_rebuilt_one(self, kind):
        rng = np.random.default_rng(31)
        c = 150  # some blocks above _DENSE_MAX, so that a Gram matrix is kept
        km = _shared_cloud(rng, kind, c, 0, 5)
        shared, assign, solve = forms._separated_blocks(km, 2.0, 0)
        to_f = rng.random(c) < 0.5
        base = solve(*assign(to_f))
        flips = solve.flips(assign(to_f)[0], base)
        for k in rng.integers(0, c, 30):  # accepted flips, some points twice
            to_f[k] = not to_f[k]
            rows, cols = assign(to_f)
            flips.accept(flips.solve(k, rows, cols, 0.0))
        rebuilt = solve.flips(assign(to_f)[0], base).h
        assert np.linalg.norm(flips.h - rebuilt) <= 1e-13 * np.linalg.norm(rebuilt)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("nu_side", [False, True])
    def test_coincident_entries_never_leak(self, kind, nu_side):
        # 0, 5 and inf on the coincident pairs give the same search, bit for
        # bit; an inf times a zero would raise under errstate
        results = []
        for coincident in (0.0, 5.0, np.inf):
            rng = np.random.default_rng(32)
            km = _shared_cloud(rng, kind, 150, 20 if nu_side else 0, 0, coincident)
            if nu_side:  # K has fewer rows than columns: every flip a cold solve
                assert len(km.nu) < len(km.mu)
            assert not forms._enumerates(km, 24)
            with np.errstate(invalid="raise"):
                results.append(forms.restricted_norm_heuristic(km, trials=8, seed=4))
        first = results[0]
        assert first.value > 0
        for est in results[1:]:
            assert est.value == first.value
            assert est.iterations == first.iterations
            assert np.array_equal(est.witness_f, first.witness_f)
            assert np.array_equal(est.witness_g, first.witness_g)


    def test_no_gram_matrix_when_no_flip_can_use_it(self, monkeypatch):
        # one 80-point cloud as both measures, m = 2: every separated block
        # has a short side of at most _DENSE_MAX, so a kept H would serve no
        # flip; a 200-point cloud still keeps one
        rng = np.random.default_rng(33)
        for c, keeps in ((80, False), (200, True)):
            km = _shared_cloud(rng, 2, c, 0, 0)
            _, assign, solve = forms._separated_blocks(km, 2.0, 0)
            rows, cols = assign(rng.random(c) < 0.5)
            flips = solve.flips(rows, solve(rows, cols))
            assert isinstance(flips, forms._FlipGram) if keeps else flips is None
        small = _shared_cloud(rng, 2, 80, 0, 0)
        want = forms.restricted_norm_heuristic(small, trials=8, seed=4)
        separated_blocks = forms._separated_blocks

        def keeping(km, p, seed):  # solve.flips without the short-side rule
            shared, assign, solve = separated_blocks(km, p, seed)
            idx_mu, idx_nu = measure.shared_point_indices(km.mu.points, km.nu.points)
            solve.flips = lambda rows, base: forms._FlipGram(
                solve, km.stacked, 2, idx_mu, idx_nu, km.mu.weights, km.nu.weights,
                rows, base, seed,
            )
            return shared, assign, solve

        monkeypatch.setattr(forms, "_separated_blocks", keeping)
        got = forms.restricted_norm_heuristic(small, trials=8, seed=4)
        assert got.value == want.value
        assert got.iterations == want.iterations
        assert np.array_equal(got.witness_f, want.witness_f)
        assert np.array_equal(got.witness_g, want.witness_g)


class TestSeminormAxioms:
    def test_restricted_norm_is_a_seminorm(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            pts = rng.uniform(0, 1, (5, 1))
            m = measure.from_points(pts, rng.uniform(0.5, 1.5, 5))
            k1 = rng.uniform(-1, 1, (5, 5))
            k2 = rng.uniform(-1, 1, (5, 5))
            c = float(rng.uniform(-3, 3))
            n = lambda e: forms.restricted_norm_exact(
                KernelMatrix(e, m, m, 1, None)
            ).value
            assert n(k1) >= 0
            assert n(c * k1) == pytest.approx(abs(c) * n(k1), abs=1e-9)
            assert n(k1 + k2) <= n(k1) + n(k2) + 1e-9
        assert forms.restricted_norm_exact(
            KernelMatrix(np.zeros((5, 5)), m, m, 1, None)
        ).value == 0.0


class TestFactor2:
    def test_disjoint_supports_give_ratio_one(self):
        mu = measure.lebesgue_grid(0.0, 1.0, 2.0**-5)
        nu = measure.lebesgue_grid(2.0**-6, 1.0, 2.0**-5)
        rep = forms.factor2_check(
            kernels.make_hilbert(), mu, nu,
            multiplier=mollifiers.scale(mollifiers.gaussian_mollifier(), 0.1),
        )
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.operator.value == pytest.approx(rep.restricted.value, rel=1e-12)

    def test_nonzero_policy_on_shared_points_is_refused(self):
        # policy 100 filled K's diagonal, which enters the operator norm
        # (12.52) but never the restricted one (0.591): a ToleranceError,
        # exit 1, for an input the inequality does not cover
        grid = measure.lebesgue_grid(0.0, 1.0, 0.125)  # lebesgue_grid:h=0.125
        hilbert = kernels.make_hilbert()
        with pytest.raises(ParameterError, match="diagonal_policy 100"):
            forms.factor2_check(hilbert, grid, grid, diagonal_policy=100.0)
        rep = forms.factor2_check(hilbert, grid, grid, diagonal_policy=0.0)
        assert 1.0 < rep.ratio <= 2.0
        far = measure.lebesgue_grid(3.0, 1.0, 0.125)  # no shared point: policy unused
        assert forms.factor2_check(hilbert, grid, far, diagonal_policy=100.0).ratio <= 2.0

    def test_ratio_bounded_by_two(self):
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            pts = rng.uniform(0, 1, (6, 1))
            m = measure.from_points(pts, rng.uniform(0.5, 1.5, 6))
            mu, nu = m, m
            k = kernels.make_hilbert()
            rep = forms.factor2_check(
                k, mu, nu, diagonal_policy=0.0, cap=24, seed=seed
            )
            assert rep.ratio <= 2.0 + 1e-9


class TestProjectionConvergence:
    def test_reference_matches_bilinear_form(self):
        h = 2.0**-8
        sigma = measure.lebesgue_grid(0.0, 1.0, h)
        rng = np.random.default_rng(18)
        f = rng.uniform(-1, 1, len(sigma))
        g = rng.uniform(-1, 1, len(sigma))
        parts = [splitter.build_partition(sigma, n) for n in (1, 2)]
        k = kernels.make_hilbert()
        rep = forms.projection_convergence_test(
            k, sigma, f, g, parts, diagonal_policy=0.0
        )
        direct = forms.bilinear_form(k, sigma, sigma, f, g, diagonal_policy=0.0)
        assert rep.reference == pytest.approx(direct.value, rel=1e-12)
        assert set(rep.quarter_deviations) == {1, 2}
        assert all(v >= 0 for v in rep.norm_deviations.values())
