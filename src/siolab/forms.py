"""Bilinear forms, operator norms, and restricted norms on discrete measures.

The pairing throughout is

    B(f, g) = sum_{j, i} g(s_j) K(s_j, t_i) f(t_i) nu_j mu_i,

with f defined on supp(mu) (the input variable t) and g on supp(nu) (the
output variable s); no complex conjugation is applied, so witnesses carry
their own phases.  The operator norm at exponent p is the best constant C
in |B(f, g)| <= C ||f||_{L^p(mu)} ||g||_{L^p'(nu)}; the restricted norm
takes the same supremum over pairs whose supports are at positive distance,
which on finite supports means exactly that they share no point.

The two entry points are ``operator_norm`` and ``restricted_norm``; each
picks its estimator from the input.  Every norm, of a whole matrix or of a
separated block, is one ``_estimate`` of the weighted matrix
W = diag(sqrt(nu)) K diag(sqrt(mu)): exact at p = 2 from the top singular
value of W, the top eigenvalue of the Gram matrix of W's short side (LAPACK
for small matrices, a Hermitian Lanczos solve in numpy for large ones), and
otherwise a certified lower bound from a nonlinear power iteration started
from W's maximizer (every evaluated quotient is a true lower bound).
``_estimate`` takes the unweighted K, or a block cut from it, with its
weights; ``_top_singular`` weights a dense copy only for LAPACK's short
matrices and otherwise composes two closures, ``apply`` and ``adjoint``,
that apply the two weight vectors around K, into the Gram operator that
``_lanczos`` runs on, so W is never stored at that size.  The restricted
norm enumerates the maximal separated support pairs or searches geometric
cuts and then greedy flips of single shared points, and solves each block
the same way.  At p = 2, when len(mu) <= m len(nu), a flip is first
decided on its block's Gram matrix, a rank-m update of one Gram matrix on
the mu side kept across the flips (one extra len(mu)^2 matrix, never more
than K): a flip that cannot win is rejected without cutting its block from
K, and every value is still ||W v|| from K's entries.
``bilinear_form`` contracts the kernel's row blocks as they are sampled,
without K; with a singular kernel, ``check_separation`` first refuses
supports that share a point, the one rule separation needs on finite
supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy loads it on first use: here, not inside a command

from .errors import (
    InconclusiveError,
    NonConvergenceError,
    ParameterError,
    SeparationError,
    ToleranceError,
)
from .kernels import _CHUNK_BYTES, KernelMatrix, KernelSpec, _sampled_blocks, _stacked
from .kernels import materialize, regular_on_diagonal
from .measure import (
    DiscreteMeasure,
    _point_tuple,
    pairwise_distances,
    reject_common_atoms,
    shared_point_indices,
)

__all__ = [
    "BilinearFormResult",
    "NormEstimate",
    "Factor2Report",
    "ProjectionReport",
    "lp_norm",
    "dual_exponent",
    "shared_active_points",
    "check_separation",
    "bilinear_form",
    "form_quotient",
    "quotient_reproduces",
    "operator_norm",
    "operator_norm_p2",
    "operator_norm_p",
    "restricted_norm",
    "restricted_norm_exact",
    "restricted_norm_heuristic",
    "factor2_check",
    "factor2_holds",
    "factor2_ratio",
    "projection_convergence_test",
]


@dataclass(frozen=True)
class BilinearFormResult:
    """Value of B(f, g): scalar for scalar kernels, and an m-vector for
    vector kernels paired with scalar g."""

    value: float | complex | np.ndarray


@dataclass(frozen=True)
class NormEstimate:
    """A norm value together with the pair of functions that certifies it.

    ``kind`` is one of "operator_exact_p2", "operator_lower_p",
    "restricted_exact", "restricted_lower_p" (the enumeration at p != 2,
    whose blocks are lower bounds), "restricted_heuristic".  The witnesses
    have unit norms in L^p(mu) and L^p'(nu), and re-evaluating the form on
    them reproduces ``value`` to relative 1e-9 (exactly, for the exact kinds).
    ``detail`` carries estimator-specific diagnostics.

    For "operator_exact_p2", ``detail["solver"]`` names the solver that
    found the top singular pair: "lapack" (dense eigendecomposition of the
    Gram matrix of the short side), "lanczos" (``_lanczos``), or "none" for
    an empty or all-zero matrix.  ``iterations`` counts the Lanczos steps,
    each one product with A and one with A^H, or one with G on a Gram
    matrix G that the caller kept (0 for "lapack" and "none"), and
    ``residual`` is ||A^H u - value v|| for the returned unit singular pair
    (u, v) of the weighted matrix A.
    """

    kind: str
    value: float
    p: float
    witness_f: np.ndarray
    witness_g: np.ndarray
    iterations: int
    residual: float
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Factor2Report:
    """Outcome of the comparison operator_norm <= 2 * restricted_norm."""

    operator: NormEstimate
    restricted: NormEstimate
    ratio: float
    tolerance: float


@dataclass(frozen=True)
class ProjectionReport:
    """Deviations of partition-projected forms from their limit values.

    For each partition level n, ``quarter_deviations`` holds
    |<T P^1_n f, P^2_n g> - (1/4) <T f, g>| and ``norm_deviations`` holds
    |  ||P^1_n f||_p - 2^(-1/p) ||f||_p  |; ``fitted_exponent`` is the
    least-squares decay rate of the quarter deviation per level in base 2
    (1.0 means the deviation halves per level).
    """

    reference: float | complex | np.ndarray
    quarter_deviations: dict
    norm_deviations: dict
    fitted_exponent: float


# -- norms and separation ---------------------------------------------------


def dual_exponent(p: float) -> float:
    """p' with 1/p + 1/p' = 1; requires 1 < p < infinity."""
    if not 1.0 < p < math.inf:
        raise ParameterError(f"exponent must lie in (1, inf), got {p}")
    return p / (p - 1.0)


def _magnitudes(values: np.ndarray) -> np.ndarray:
    """|f| per support point; vector-valued samples use Euclidean length."""
    v = np.asarray(values)
    if v.ndim == 2:
        return np.linalg.norm(v, axis=1)
    return np.abs(v)


def lp_norm(values, weights, p: float) -> float:
    """Weighted norm (sum |f_i|^p w_i)^(1/p) for 1 < p < infinity."""
    dual_exponent(p)  # validates the range
    mags = _magnitudes(values)
    w = np.asarray(weights, dtype=float)
    if mags.shape[0] != w.shape[0]:
        raise ParameterError("values and weights must have equal length")
    return float(np.sum(mags**p * w) ** (1.0 / p))


def _support_mask(values) -> np.ndarray:
    v = np.asarray(values)
    if v.ndim == 2:
        return np.any(v != 0, axis=1)
    return v != 0


def shared_active_points(mu: DiscreteMeasure, nu: DiscreteMeasure, f, g):
    """The points of both active supports, in mu's order.

    The active support of f is the set of mu-points where f is nonzero, and
    likewise for g on nu; shared points are the ones ``shared_point_indices``
    finds.
    """
    return _shared_rows(mu.points[_support_mask(f)], nu.points[_support_mask(g)])


def _shared_rows(pa, pb) -> np.ndarray:
    shared, _ = shared_point_indices(pa, pb)
    return pa[np.sort(shared)]


def check_separation(mu: DiscreteMeasure, nu: DiscreteMeasure, f, g) -> None:
    """Raise when the active supports of f and g share a point
    (``shared_active_points``), naming the first in mu's order.  On finite
    supports that is the whole of separation: supports that share no point
    are at positive distance.
    """
    shared = shared_active_points(mu, nu, f, g)
    if len(shared):
        offender = _point_tuple(shared[0])
        raise SeparationError(
            f"supports share the point {offender}", pair=(offender, offender)
        )


def _submeasure(measure: DiscreteMeasure, index) -> DiscreteMeasure:
    return DiscreteMeasure(
        measure.dimension,
        measure.points[index],
        measure.weights[index],
        measure.atomic[index],
        measure.cell_size,
    )


# -- bilinear forms ---------------------------------------------------------


def bilinear_form(
    kernel: KernelSpec,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    f,
    g,
    multiplier=None,
    diagonal_policy: float | None = None,
) -> BilinearFormResult:
    """Evaluate B(f, g) from the kernel sampled on the active supports.

    Only the active supports of f and g are sampled, in ``materialize``'s
    row blocks, into one reused block buffer; each block is contracted with
    f, one gemv on its stacked rows, so the memory is about a block's
    workspace, not the kernel matrix.  When the kernel is singular on
    the diagonal and nothing regularizes it (no vanishing multiplier, no
    diagonal policy), supports that share a point raise up front with that
    point (``check_separation``); regularized kernels evaluate on any
    supports.  No distance between the supports is measured.
    Scalar g against a vector-valued kernel produces a vector value, one
    component per kernel component; a (len(nu), m) vector-valued g
    contracts the components to a scalar (the pairing witnesses use).
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.ndim != 1 or f.shape[0] != len(mu):
        raise ParameterError("f must be a 1-D array indexed like supp(mu)")
    if g.ndim == 2:
        if g.shape != (len(nu), kernel.value_dim):
            raise ParameterError(
                "vector-valued g must have shape (len(nu), value_dim)"
            )
    elif g.ndim != 1 or g.shape[0] != len(nu):
        raise ParameterError("g must be indexed like supp(nu)")

    if not (regular_on_diagonal(multiplier) or diagonal_policy is not None):
        check_separation(mu, nu, f, g)
    fm = _support_mask(f)
    gm = _support_mask(g)
    if not np.any(fm) or not np.any(gm):
        zero = np.zeros(kernel.value_dim) if g.ndim == 1 and kernel.value_dim > 1 else 0.0
        return BilinearFormResult(zero)
    fw = f[fm] * mu.weights[fm]
    blocks = _sampled_blocks(
        kernel, _submeasure(mu, fm), _submeasure(nu, gm), multiplier, diagonal_policy
    )
    images = []
    for _, vals, _ in blocks:  # each block as rows of KernelMatrix.stacked, a view
        images.append(_apply(_stacked(vals), fw, vals.shape[2] if vals.ndim == 3 else None))
    transformed = np.concatenate(images)
    if g.ndim == 2 and transformed.ndim != 2:
        raise ParameterError("vector-valued g requires a vector-valued kernel")
    nu_w = nu.weights[gm]
    gw = g[gm] * (nu_w[:, None] if g.ndim == 2 else nu_w)
    if g.ndim == 1 and transformed.ndim == 2:
        total = gw @ transformed  # one value component per kernel component
    else:
        total = np.sum(gw * transformed)

    value = np.asarray(total)
    if value.ndim == 0:
        value = complex(value) if np.iscomplexobj(value) else float(value)
    return BilinearFormResult(value)


def form_quotient(
    kernel: KernelSpec,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    f,
    g,
    p: float = 2.0,
    multiplier=None,
    diagonal_policy: float | None = None,
) -> float:
    """|B(f, g)| / (||f||_p ||g||_p'): the lower bound this pair certifies."""
    nf = lp_norm(f, mu.weights, p)
    ng = lp_norm(g, nu.weights, dual_exponent(p))
    if nf == 0.0 or ng == 0.0:
        return 0.0
    result = bilinear_form(
        kernel, mu, nu, f, g, multiplier=multiplier, diagonal_policy=diagonal_policy
    )
    return float(np.linalg.norm(np.atleast_1d(result.value))) / (nf * ng)


def quotient_reproduces(quotient: float, value: float) -> bool:
    """A witness pair's ``form_quotient`` reproduces ``value`` to relative 1e-8."""
    return abs(quotient - value) <= 1e-8 * max(value, 1e-30) + 1e-30


# -- exact p = 2 operator norms ---------------------------------------------


def _finite_or_raise(km: KernelMatrix, skip=(np.empty(0, int), np.empty(0, int))):
    """Raise on a non-finite entry, except at the (nu-rows, mu-columns)
    pairs in ``skip``, checked in row blocks of about
    ``kernels._CHUNK_BYTES``: the mask is one block's, not K's."""
    e = km.entries
    rows, cols = skip
    step = max(1, _CHUNK_BYTES // max(e[:1].nbytes, 1))
    mask = np.empty(e[:step].shape, dtype=bool)
    for start in range(0, len(e), step):
        finite = np.isfinite(e[start:start + step], out=mask[:len(e) - start])
        here = (rows >= start) & (rows < start + step)
        finite[rows[here] - start, cols[here]] = True
        if not np.all(finite):
            raise ParameterError("kernel matrix has non-finite entries")


_DENSE_MAX = 64

# ``_lanczos`` keeps at most _LANCZOS_CAP basis vectors, then restarts from
# its top Ritz vector, at most _LANCZOS_RESTARTS times.  At basis size k it
# tests for convergence, an O(k^3) ``eigh`` of the k x k tridiagonal, every
# max(_LANCZOS_CHECK, k // 8) steps, and stops when the Ritz residual is at
# most _LANCZOS_TOL times the Ritz value.
_LANCZOS_CAP = 160
_LANCZOS_RESTARTS = 8
_LANCZOS_CHECK = 4
_LANCZOS_TOL = 8.0 * np.finfo(float).eps


def _top_singular(stacked: np.ndarray, root_nu, root_mu, seed: int = 0, solved=None):
    """Largest singular value of W = diag(root_nu) S diag(root_mu) for a
    stacked matrix S, and a unit pair certifying it.

    It solves one Gram matrix for its top eigenvector: W^H W on the mu side
    when S is not wider than tall or ``solved`` is given, else W W^H, whose
    top vector y gives v = W^H y.  A short side of at most ``_DENSE_MAX``
    takes LAPACK ``eigh`` of it from a dense weighted copy of S.  Larger
    matrices take ``_lanczos`` on ``adjoint(apply(x))`` or
    ``apply(adjoint(y))`` from a Gaussian start drawn from ``seed``; the
    closures apply the weights as vectors around S, so W is never stored,
    and one ``adjoint`` serves real and complex S alike.
    ``solved = (t, steps)`` is a top eigenvector t of W^H W that the caller
    found by ``_lanczos`` on a Gram matrix it kept, with its step count; v is
    t normalized, with no further solve.  Either way value = ||W v|| for the
    normalized v and u = W v / value, so u^H W v = value holds to rounding
    whatever the solver's accuracy.  Returns (value, u, v, residual, solver,
    steps) with residual = ||W^H u - value v|| and the Lanczos step count (0
    for LAPACK); a Lanczos solve that does not converge raises.
    """
    rows, cols = stacked.shape
    dense = min(rows, cols) <= _DENSE_MAX
    if dense:
        matrix = np.multiply(stacked, root_nu[:, None], order="C")
        matrix *= root_mu
        adjoint_matrix = matrix.conj().T
        apply, adjoint = matrix.__matmul__, adjoint_matrix.__matmul__
    else:
        def apply(x):
            return root_nu * (stacked @ (root_mu * x))

        def adjoint(y):
            # W^H y = root_mu * conj(S^T conj(root_nu * y)): no conjugate copy
            # of S, and no copy at all for real data, whose conj() is itself
            return root_mu * (stacked.T @ (root_nu * y).conj()).conj()

    # weights are positive, so the operator W vanishes exactly when S does
    if not np.any(matrix if dense else stacked):
        return 0.0, np.zeros(rows), np.zeros(cols), 0.0, "none", 0
    mu_side = solved is not None or cols <= rows
    solver = "lapack" if dense else "lanczos"
    if dense:
        gram_matrix = adjoint_matrix @ matrix if mu_side else matrix @ adjoint_matrix
        top, steps = np.linalg.eigh(gram_matrix)[1][:, -1], 0
    elif solved is not None:
        top, steps = solved
    else:
        first, then = (apply, adjoint) if mu_side else (adjoint, apply)
        start = np.random.default_rng(seed).standard_normal(min(rows, cols))
        top, steps = _lanczos(lambda x: then(first(x)), start)
    v = top if mu_side else adjoint(top)
    v = v / np.linalg.norm(v)
    image = apply(v)
    value = float(np.linalg.norm(image))
    u = image / value
    residual = float(np.linalg.norm(adjoint(u) - value * v))
    return value, u, v, residual, solver, steps


def _lanczos(op, start: np.ndarray):
    """Top eigenvector of the Hermitian positive semidefinite operator
    ``op`` by Lanczos from ``start``, one ``op`` per step.

    Step j extends an orthonormal basis Q by
    op q_j = beta_{j-1} q_{j-1} + alpha_j q_j + beta_j q_{j+1}, the new
    vector made orthogonal to the whole basis by two classical Gram–Schmidt
    passes.  So op Q_k = Q_k T_k + beta_k q_{k+1} e_k^T with T_k real
    tridiagonal, and T_k's top eigenpair (lambda, s) gives the Ritz vector
    Q_k s with residual beta_k |s_k|.  Returns (Q_k s, steps) once that is
    at most ``_LANCZOS_TOL`` * lambda; a full basis restarts from Q_k s,
    and the last allowed restart running full raises.  Each restart
    allocates its whole basis once; rows it never writes are never touched,
    so they hold no resident memory.  On op = A^H A this is
    Golub–Kahan–Lanczos on A, with T_k = B_k^H B_k and the same test, as
    lambda = theta^2 (Golub & Van Loan, Matrix Computations, 10.4).
    """
    q = start / np.linalg.norm(start)
    steps = 0
    for _ in range(_LANCZOS_RESTARTS + 1):
        w = op(q)
        basis = np.empty((_LANCZOS_CAP + 1, len(q)), w.dtype)
        basis[0] = q
        alphas, betas = [], []
        check = _LANCZOS_CHECK
        for k in range(1, _LANCZOS_CAP + 1):
            steps += 1
            if k > 1:
                w = op(basis[k - 1]) - betas[-1] * basis[k - 2]
            alpha = np.vdot(basis[k - 1], w).real
            w -= alpha * basis[k - 1]
            beta = _orthogonalize(w, basis[:k])
            alphas.append(alpha)
            betas.append(beta)
            if beta > 0:
                basis[k] = w / beta
            if k < check and k < _LANCZOS_CAP and beta > 0:
                continue
            check = k + max(_LANCZOS_CHECK, k // 8)
            ritz, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(betas[:-1], -1))
            q = vectors[:, -1] @ basis[:k]
            if beta * abs(vectors[-1, -1]) <= _LANCZOS_TOL * ritz[-1]:
                return q, steps
        q = q / np.linalg.norm(q)
    raise NonConvergenceError(
        f"Lanczos found no top eigenvector in {steps} steps "
        f"({_LANCZOS_RESTARTS} restarts of {_LANCZOS_CAP} vectors)"
    )


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> float:
    """Make w orthogonal to the orthonormal rows of ``basis`` in place, by two
    classical Gram–Schmidt passes, and return its remaining norm.  A pass
    allocates only vector-sized temporaries, never a copy of the basis; on
    real data conj() is the array itself and copies nothing."""
    for _ in range(2):
        w -= (basis @ w.conj()).conj() @ basis
    return float(np.linalg.norm(w))


def _components(km: KernelMatrix):
    return km.entries.shape[2] if km.entries.ndim == 3 else None


def _estimate(
    stacked: np.ndarray, mu_w, nu_w, components, seed: int,
    p: float = 2.0, seeds: int = 16, iterations: int = 60, solved=None,
) -> NormEstimate:
    """The norm at p of a stacked matrix S between the weights ``mu_w`` and
    ``nu_w``; the one solve behind every norm, and the one place that takes
    the weights' square roots for W = diag(sqrt(nu)) S diag(sqrt(mu)).

    At p = 2 the exact norm: W's top singular value from a start drawn from
    ``seed``.  Otherwise the power iteration's lower bound at p, started
    from W's maximizer (Lanczos seed 0), its random starts drawn from
    ``seed``.  ``components`` is m when each nu-point holds m stacked rows
    of S, else None.  A ``solved`` vector goes to ``_top_singular``.
    """
    root_nu = np.repeat(np.sqrt(nu_w), components or 1)
    root_mu = np.sqrt(mu_w)
    value, u, v, residual, solver, steps = _top_singular(
        stacked, root_nu, root_mu, seed if p == 2.0 else 0, solved
    )
    witness_f = v / root_mu
    if p != 2.0:
        best, witness_f, witness_g, steps, n_seeds = _boyd_lower_bound(
            stacked, components, mu_w, nu_w, p, witness_f, seeds, iterations, seed
        )
        return NormEstimate("operator_lower_p", best, float(p), witness_f, witness_g,
                            steps, math.nan, {"seeds": n_seeds, "p2_reference": value})
    witness_g = np.conj(u) / root_nu
    if components is not None:
        witness_g = witness_g.reshape(len(nu_w), components)
    return NormEstimate("operator_exact_p2", value, 2.0, witness_f, witness_g, steps,
                        residual, {"solver": solver})


def operator_norm(
    km: KernelMatrix,
    p: float = 2.0,
    seed: int = 0,
    seeds: int = 16,
    iterations: int = 60,
) -> NormEstimate:
    """The operator norm at p: ``operator_norm_p2`` at p = 2, otherwise the
    lower bound of ``operator_norm_p`` with ``seeds`` and ``iterations``."""
    # operator_norm_p(km, 2.0) is the same solve; perfbench traces this name
    if p == 2.0:
        return operator_norm_p2(km, seed)
    return operator_norm_p(km, p, seeds, iterations, seed)


def operator_norm_p2(km: KernelMatrix, seed: int = 0) -> NormEstimate:
    """Exact L^2(mu) -> L^2(nu) norm of a materialized kernel matrix.

    The norm equals the top singular value of diag(sqrt(nu)) K diag(sqrt(mu)),
    computed by LAPACK or Lanczos (see ``_top_singular``); vector-valued
    kernels stack their components into extra rows, giving the norm into
    L^2(nu; R^m).  Above ``_DENSE_MAX`` the weights are applied as vectors
    around K, so the memory beyond the entries is a few vectors.  The
    witnesses satisfy B(witness_f, witness_g) = value with unit L^2 norms on
    both sides (witness_g is vector-valued exactly when the kernel is).
    """
    _finite_or_raise(km)
    return _estimate(km.stacked, km.mu.weights, km.nu.weights, _components(km), seed)


# -- lower bounds for general p ---------------------------------------------


def _duality_map(values: np.ndarray, q: float, weights: np.ndarray) -> np.ndarray:
    """J(u) with <J(u), u>_w = ||u||_{q,w} and ||J(u)||_{q',w} = 1.

    Vector-valued u uses the Euclidean magnitude pointwise; the complex
    conjugate makes the bilinear (unconjugated) pairing real and maximal.
    """
    mags = _magnitudes(values)
    norm = float(np.sum(mags**q * weights) ** (1.0 / q))
    if norm == 0.0:
        return np.zeros_like(values)
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(mags > 0, mags ** (q - 2.0), 0.0)
    if values.ndim == 2:
        factor = factor[:, None]
    return np.conj(values) * factor * norm ** (1.0 - q)


def _apply(stacked: np.ndarray, fw: np.ndarray, components) -> np.ndarray:
    """K fw, as one (len(nu), m) row per nu-point when ``components`` is m."""
    image = stacked @ fw
    return image if components is None else image.reshape(-1, components)


def _apply_transpose(stacked: np.ndarray, gw: np.ndarray) -> np.ndarray:
    """K^T gw for gw indexed like the nu-points, or like (nu-point, component)."""
    return stacked.T @ gw.ravel()


# ``_boyd_lower_bound`` stops a seed after three steps whose back-norm moved
# by at most this, relative to max(back_norm, 1).
_STALL_TOL = 1e-12


def _boyd_lower_bound(
    stacked: np.ndarray,
    components,
    mu_w: np.ndarray,
    nu_w: np.ndarray,
    p: float,
    start: np.ndarray,
    seeds: int,
    iterations: int,
    seed: int,
):
    """Best evaluated quotient of the nonlinear power iteration.

    ``stacked`` is K as ``KernelMatrix.stacked`` lays it out, with
    ``components`` as in ``_estimate``.  Starts from ``start`` (the p = 2
    maximizer), the constant one and random signs drawn from ``seed``,
    ``seeds`` vectors in all.  Alternates the duality maps of L^p'(nu) and
    L^p'(mu) around the kernel; every iterate evaluates
    |B(f, g)| / (||f||_p ||g||_p'), and the running maximum is returned as
    (value, witness_f, witness_g, step at which it was found, seed count),
    so it is certified before the iteration settles.
    """
    q = dual_exponent(p)
    rng = np.random.default_rng(seed)
    seed_vectors = [start, np.ones(len(mu_w))]
    for _ in range(max(int(seeds) - len(seed_vectors), 0)):
        seed_vectors.append(rng.choice([-1.0, 1.0], size=len(mu_w)))
    best = (0.0, np.zeros(len(mu_w)), np.zeros(len(nu_w)), 0)
    total_iterations = 0
    for seed_vec in seed_vectors:
        seed_vec = np.asarray(seed_vec)
        wants_complex = np.iscomplexobj(stacked) or np.iscomplexobj(seed_vec)
        f = seed_vec.astype(complex if wants_complex else float)
        nf = lp_norm(f, mu_w, p)
        if nf == 0.0:
            continue
        f = f / nf
        last = -math.inf
        stalled = 0
        for _ in range(iterations):
            total_iterations += 1
            transformed = _apply(stacked, f * mu_w, components)
            quotient = lp_norm(transformed, nu_w, p)
            if quotient <= 0.0:
                break
            g = _duality_map(transformed, p, nu_w)
            if quotient > best[0]:
                best = (quotient, f.copy(), g, total_iterations)
            pulled_back = _apply_transpose(
                stacked, g * (nu_w[:, None] if g.ndim == 2 else nu_w)
            )
            back_norm = lp_norm(pulled_back, mu_w, q)
            if back_norm <= 0.0:
                break
            f = _duality_map(pulled_back, q, mu_w)
            if back_norm > best[0]:
                best = (back_norm, f.copy(), g, total_iterations)
            if abs(back_norm - last) <= _STALL_TOL * max(back_norm, 1.0):
                stalled += 1
                if stalled >= 3:
                    break
            else:
                stalled = 0
            last = back_norm
    return (*best, len(seed_vectors))


def operator_norm_p(
    km: KernelMatrix,
    p: float,
    seeds: int = 16,
    iterations: int = 60,
    seed: int = 0,
) -> NormEstimate:
    """Certified lower bound for the L^p -> L^p norm; at p = 2 the exact
    norm of ``operator_norm_p2``.

    Seeds are the p = 2 maximizer, the constant-one function, and seeded
    random-sign vectors, 16 in total by default.  The value is the best
    quotient evaluated anywhere along the nonlinear power iterations, hence
    always a valid lower bound.
    """
    dual_exponent(p)
    _finite_or_raise(km)
    return _estimate(
        km.stacked, km.mu.weights, km.nu.weights, _components(km), seed,
        p, seeds, iterations,
    )


# -- restricted norms --------------------------------------------------------


def _separated_blocks(km: KernelMatrix, p: float, seed: int):
    """(shared, assign, solve) for the separated blocks of one matrix.

    ``shared`` indexes the mu-points that nu also holds.  ``assign(to_f)``
    is the maximal block (rows, cols) that puts shared point k in f when
    to_f[k] and in g otherwise.  ``solve(rows, cols, solved=None)`` is the
    norm of the block on integer arrays of nu-rows and mu-columns, as
    (value, witness_f, witness_g) with witnesses zero off the block, from
    ``_estimate`` on the block cut from ``KernelMatrix.stacked`` (or on all
    of it) and the block's weights, exactly as ``operator_norm_p2`` and ``operator_norm_p`` solve a
    matrix of that size: exact at p = 2, and otherwise the power iteration's
    lower bound with 6 seeds of at most 40 steps; a ``solved`` vector from
    ``_FlipGram.solve`` goes to ``_top_singular``.  ``solve.flips(rows,
    base)`` is a ``_FlipGram`` for greedy flips from the block on ``rows``
    that ``solve`` gave ``base``: at p = 2 when len(mu) <= m len(nu), so that
    its Gram matrix on the mu side is never larger than K, and some
    separated block's short side is above ``_DENSE_MAX``, so that a flip
    can use it; None otherwise.  No block pairs a shared point with itself,
    so those entries are never checked or used.
    """
    if p != 2.0:
        dual_exponent(p)
    mu, nu = km.mu, km.nu
    idx_mu, idx_nu = shared_point_indices(mu.points, nu.points)
    mu_only, nu_only = _others(len(mu), idx_mu), _others(len(nu), idx_nu)
    _finite_or_raise(km, skip=(idx_nu, idx_mu))

    components = _components(km)
    m = components or 1
    stacked = km.stacked
    dtype = complex if np.iscomplexobj(km.entries) else float
    g_shape = (len(nu),) if components is None else (len(nu), components)

    def assign(to_f: np.ndarray):
        cols = np.concatenate([mu_only, idx_mu[to_f]]).astype(int)
        rows = np.concatenate([nu_only, idx_nu[~to_f]]).astype(int)
        return rows, cols

    def solve(rows, cols, solved=None):
        witness_f = np.zeros(len(mu), dtype=dtype)
        witness_g = np.zeros(g_shape, dtype=dtype)
        if len(rows) == 0 or len(cols) == 0:
            return 0.0, witness_f, witness_g
        # a full-size block shares no point, so assign and the cuts give its
        # rows and cols in order: it is all of K, solved without a cut copy
        if len(rows) == len(nu) and len(cols) == len(mu):
            block = stacked
        else:  # two gathers, C-ordered as an np.ix_ cut, in 60% of its time
            block = stacked[_lines(rows, m)].take(cols, axis=1)
        est = _estimate(
            block, mu.weights[cols], nu.weights[rows], components, seed,
            p, seeds=6, iterations=40, solved=solved,
        )
        witness_f[cols] = est.witness_f
        witness_g[rows] = est.witness_g
        return est.value, witness_f, witness_g

    c = len(idx_mu)  # a block with a shared points in g has m (len(nu_only) + a) rows
    largest = max(min(m * (len(nu_only) + a), len(mu_only) + c - a) for a in range(c + 1))

    def flips(rows, base):
        if p != 2.0 or len(mu) > m * len(nu) or largest <= _DENSE_MAX:
            return None
        return _FlipGram(solve, stacked, m, idx_mu, idx_nu, mu.weights, nu.weights, rows, base, seed)

    solve.flips = flips
    return idx_mu, assign, solve


def _lines(points: np.ndarray, m: int) -> np.ndarray:
    """The rows of ``KernelMatrix.stacked`` that hold the nu-points
    ``points``, m component rows each, in order."""
    return (points[:, None] * m + np.arange(m)).ravel()


def _others(count: int, index: np.ndarray) -> np.ndarray:
    """The integers below ``count`` not in ``index``, ascending (what
    ``np.setdiff1d`` gives, without its ``np.unique``, which imports numpy.ma)."""
    keep = np.ones(count, dtype=bool)
    keep[index] = False
    return np.flatnonzero(keep)


def _enumerates(km: KernelMatrix, cap: int) -> bool:
    """Whether to enumerate: at most ``cap`` support points, or none shared."""
    shared, _ = shared_point_indices(km.mu.points, km.nu.points)
    return len(km.mu) + len(km.nu) <= cap or len(shared) == 0


def restricted_norm(
    km: KernelMatrix, p: float = 2.0, cap: int = 24, trials: int = 32, seed: int = 0
) -> NormEstimate:
    """Enumeration where ``_enumerates`` allows it, else the search's lower bound."""
    if _enumerates(km, cap):
        return restricted_norm_exact(km, p, cap=cap, seed=seed)
    return restricted_norm_heuristic(km, p, trials=trials, seed=seed)


def restricted_norm_exact(
    km: KernelMatrix,
    p: float = 2.0,
    cap: int = 24,
    seed: int = 0,
) -> NormEstimate:
    """Restricted norm by enumeration of the maximal separated support pairs.

    On finite supports, separation means the supports of f and g share no
    point, and enlarging supports never decreases the supremum; so the
    extreme support pairs assign every shared point to exactly one side
    while mu-only points always belong to f and nu-only points to g.  Each
    of the 2^c assignments (c shared points) is an unconstrained norm
    problem on the corresponding sub-block, solved exactly at p = 2 (kind
    "restricted_exact") and as a certified lower bound otherwise (kind
    "restricted_lower_p").  Shared points never pair with themselves, so
    entries filled by a diagonal policy are never used.  More than ``cap``
    support points are refused unless they share none.
    """
    if not _enumerates(km, cap):
        raise ParameterError(f"shared points above the enumeration cap of {cap} points")
    shared, assign, solve = _separated_blocks(km, p, seed)
    c = len(shared)

    best = None
    for mask in range(2**c):
        to_f = np.array([(mask >> k) & 1 == 1 for k in range(c)], dtype=bool)
        value, wf, wg = solve(*assign(to_f))
        if best is None or value > best[0]:
            best = (value, wf, wg, mask)

    value, witness_f, witness_g, mask = best
    return NormEstimate(
        kind="restricted_exact" if p == 2.0 else "restricted_lower_p",
        value=value,
        p=float(p),
        witness_f=witness_f,
        witness_g=witness_g,
        iterations=2**c,
        residual=0.0 if p == 2.0 else math.nan,
        detail={"shared_points": c, "best_assignment": int(mask)},
    )


def restricted_norm_heuristic(
    km: KernelMatrix,
    p: float = 2.0,
    trials: int = 32,
    seed: int = 0,
) -> NormEstimate:
    """Lower bound for the restricted norm by randomized separated cuts.

    Candidates are the two one-sided splits of the shared support points,
    random hyperplane cuts, and random ball/complement cuts of the joint
    support (each tried with both orientations); the best candidate is then
    improved by greedy single-point flips of the shared points, in at most
    two passes over them (fewer when a pass flips nothing).  Every candidate
    evaluates a genuinely separated pair, so the result is a certified lower
    bound, though it may undershoot the exact restricted norm.

    At p = 2, when len(mu) <= m len(nu), each pass keeps ``_FlipGram``: the
    Gram matrix of the base block on the mu side, built from scratch when
    the pass starts and updated by a rank-m term on each accepted flip.  On
    the flip's own Gram matrix, that one cut and updated by its rank-m term,
    it rejects a flip whose solve could not beat the best value so far, with
    no cut of K; the others are solved from the block cut from K, so every
    value is ||W v|| as in every solve, and every flip counts as an
    evaluation.  The extra memory is that one Gram matrix, len(mu)^2
    entries, never more than K.  Other p, a wider K and flips whose nu side
    is at most ``_DENSE_MAX`` rows are solved from scratch; when every
    separated block is that short, no Gram matrix is kept.
    """
    mu, nu = km.mu, km.nu
    shared, assign, solve = _separated_blocks(km, p, seed)
    c = len(shared)
    rng = np.random.default_rng(seed)
    joint = np.vstack([mu.points, nu.points])

    candidates = [assign(np.zeros(c, dtype=bool)), assign(np.ones(c, dtype=bool))]
    for _ in range(max(int(trials) - len(candidates), 0)):
        if rng.integers(2) == 0:
            direction = rng.standard_normal(mu.dimension)
            offsets = joint @ direction
            level = rng.uniform(np.min(offsets), np.max(offsets))
            side_mu = mu.points @ direction - level
            side_nu = nu.points @ direction - level
        else:
            center = joint[rng.integers(len(joint))]
            radius = rng.uniform(0.0, np.max(pairwise_distances(joint, [center])))
            side_mu = mu.distances([center])[0] - radius
            side_nu = nu.distances([center])[0] - radius
        orientation = 1.0 if rng.integers(2) == 0 else -1.0
        in_f = orientation * side_mu < 0
        in_g = orientation * side_nu > 0
        candidates.append((np.flatnonzero(in_g), np.flatnonzero(in_f)))

    best, best_cols = (-1.0, None, None), None
    for rows, cols in candidates:
        value, wf, wg = solve(rows, cols)
        if value > best[0]:
            best, best_cols = (value, wf, wg), cols
    evaluations = len(candidates)

    # Greedy single flips of the shared points from the best candidate; a
    # kept Gram matrix (``solve.flips``) rejects the flips that cannot win.
    if c > 0:
        to_f = np.isin(shared, best_cols)
        base = solve(*assign(to_f))
        evaluations += 1
        if base[0] > best[0]:
            best = base
        for _ in range(2):
            flips = solve.flips(assign(to_f)[0], base)
            improved = False
            for k in range(c):
                flipped = to_f.copy()
                flipped[k] = not flipped[k]
                rows, cols = assign(flipped)
                trial = flips.solve(k, rows, cols, best[0]) if flips else solve(rows, cols)
                evaluations += 1
                if trial is not None and trial[0] > best[0]:
                    best = base = trial
                    to_f = flipped
                    improved = True
                    if flips:
                        flips.accept(base)
            if not improved:
                break

    value, witness_f, witness_g = best
    return NormEstimate(
        kind="restricted_heuristic",
        value=float(max(value, 0.0)),
        p=float(p),
        witness_f=witness_f,
        witness_g=witness_g,
        iterations=evaluations,
        residual=math.nan,
        detail={"shared_points": c},
    )


# A flip is rejected when the top eigenvalue of its G', or a Rayleigh
# quotient of G', is below best^2 (1 - _SCREEN_SLACK).  G' is the block's
# Gram matrix up to the rounding of the kept H and its updates, which the
# kept-vs-rebuilt H test holds to 1e-13 of the Frobenius norm; rank r gives
# ||G'||_F <= sqrt(r) lambda_1, so below best with up to 10^4 columns that
# is at most 1e-11 best^2 (3e-15 measured on 300- to 600-point clouds).  At
# 100 times that, a rejected flip's own solve, at most sigma_1 of its block,
# stays below best and would have been rejected too.
_SCREEN_SLACK = 1e-9


class _FlipGram:
    """The Gram matrix H of one separated block of W0 on the mu side, kept
    for the greedy flips of ``restricted_norm_heuristic`` at p = 2.

    W0 is W = diag(sqrt(nu)) K diag(sqrt(mu)) with its coincident-pair
    entries read as 0, whatever K holds there, and H = W0^H D W0 with D
    selecting the block's nu-rows.  A separated block holds no coincident
    pair, so its Gram matrix is H cut to its columns.  Flipping shared
    point k moves its m rows L_k into or out of D and its column out of or
    into the cut: the flipped block's Gram matrix is H[C', C'] +- T^H T
    with T = W0[L_k, C'], a rank-m term.  ``solve(k, rows, cols, best)``
    forms it and rejects the flip when G' puts it below ``best`` (see
    ``_SCREEN_SLACK``): by ``eigvalsh`` up to ``_DENSE_MAX`` columns, else by
    the Rayleigh quotient of ``_lanczos`` on G' from the base block's top
    vector cut to C', whose result then solves the block.  ``accept(result)``
    adds the last flip's term to H and makes its block the base, solved as
    ``result``.
    """

    def __init__(self, solve, stacked, m, idx_mu, idx_nu, mu_w, nu_w, rows, base, seed):
        self._solve, self._stacked, self._m, self._seed = solve, stacked, m, seed
        self._root_nu = np.repeat(np.sqrt(nu_w), m)
        self._root_mu = np.sqrt(mu_w)
        self._col_of, self._lines_of = idx_mu, _lines(idx_nu, m).reshape(-1, m)
        self.in_rows = np.isin(idx_nu, rows)  # shared points whose rows D holds
        lines = _lines(rows, m)
        where = np.empty(len(stacked), dtype=int)
        where[lines] = np.arange(len(lines))
        held = where[self._lines_of[self.in_rows]]
        self.h = _gram(self._weighted(lines, (held, idx_mu[self.in_rows][:, None])))
        self._vector = base[1] * self._root_mu

    def _weighted(self, lines: np.ndarray, coincident) -> np.ndarray:
        """W0's rows at ``lines``: K's rows, copied, with the entries at the
        index pair ``coincident`` set to 0 before any product, so an inf
        there never meets one."""
        rows = self._stacked[lines]  # a copy, scaled in place
        rows[coincident] = 0
        rows *= self._root_nu[lines, None]
        rows *= self._root_mu
        return rows

    def solve(self, k: int, rows, cols, best: float):
        """``solve(rows, cols)`` for the block that flips shared point k of
        the base block, or None when G' shows its value is below ``best``."""
        term = self._weighted(self._lines_of[k], (slice(None), self._col_of[k]))
        sign = -1.0 if self.in_rows[k] else 1.0
        self._last = (k, sign, term)
        if len(cols) == 0 or len(cols) > _DENSE_MAX >= len(rows) * self._m:
            return self._solve(rows, cols)  # an empty block, or a short nu side
        matrix = self.h[cols][:, cols]
        matrix += sign * _gram(term[:, cols])
        floor = best * best * (1.0 - _SCREEN_SLACK)
        if len(cols) <= _DENSE_MAX:
            return None if np.linalg.eigvalsh(matrix)[-1] < floor else self._solve(rows, cols)
        start = self._vector[cols]
        if not np.any(start):
            start = np.random.default_rng(self._seed).standard_normal(len(cols))
        top, steps = _lanczos(matrix.__matmul__, start)
        if np.vdot(top, matrix @ top).real < floor * np.vdot(top, top).real:
            return None
        return self._solve(rows, cols, (top, steps))

    def accept(self, result) -> None:
        """Make the last flip's block the base, with its solve ``result``."""
        k, sign, term = self._last
        self.h += sign * _gram(term)
        self.in_rows[k] = not self.in_rows[k]
        self._vector = result[1] * self._root_mu


def _gram(rows: np.ndarray) -> np.ndarray:
    """rows^H rows; real rows are their own conj(), so they are not copied."""
    return rows.conj().T @ rows


# -- comparisons -------------------------------------------------------------


def factor2_check(
    kernel: KernelSpec,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float = 2.0,
    multiplier=None,
    diagonal_policy: float | None = None,
    tolerance: float = 1e-9,
    cap: int = 24,
    trials: int = 32,
    seed: int = 0,
) -> Factor2Report:
    """Check operator_norm <= 2 * restricted_norm and report the ratio.

    The comparison requires the measures to share no atoms (shared grid
    cells of continuous discretizations are fine, shared atoms are not) and
    the kernel to be finite on all evaluated pairs -- finite on the
    diagonal, regularized, or with disjoint supports.  A violation of the
    factor-2 inequality raises ToleranceError when ``restricted_norm`` is
    exact; any other kind is a lower bound that may have undershot (the
    search, or any p != 2), and raises InconclusiveError instead.  A NaN or
    negative ``tolerance`` is refused, and so is a nonzero
    ``diagonal_policy`` on supports that share a point: the entries it fills
    enter the operator norm but never the restricted one, so the inequality
    does not cover them.
    """
    if not tolerance >= 0:
        raise ParameterError(f"tolerance must be nonnegative, got {tolerance}")
    reject_common_atoms(mu, nu)
    if diagonal_policy and len(shared_point_indices(mu.points, nu.points)[0]):
        raise ParameterError(
            f"diagonal_policy {diagonal_policy} on shared points is outside the "
            "factor-2 inequality, which needs 0 there"
        )
    km = materialize(kernel, mu, nu, multiplier, diagonal_policy)
    operator = operator_norm(km, p, seed=seed)
    restricted = restricted_norm(km, p, cap=cap, trials=trials, seed=seed)
    if not factor2_holds(operator.value, restricted.value, tolerance):
        message = (
            f"operator norm {operator.value} exceeds twice the restricted "
            f"norm {restricted.value} beyond tolerance {tolerance}"
        )
        if restricted.kind != "restricted_exact":
            raise InconclusiveError(
                message + "; the restricted norm is only a lower bound, "
                "so it may have undershot"
            )
        raise ToleranceError(message)
    return Factor2Report(
        operator=operator,
        restricted=restricted,
        ratio=factor2_ratio(operator.value, restricted.value),
        tolerance=tolerance,
    )


def factor2_holds(operator: float, restricted: float, tolerance: float) -> bool:
    """The factor-2 inequality operator <= 2 * restricted + tolerance."""
    return operator <= 2.0 * restricted + tolerance


def factor2_ratio(operator: float, restricted: float) -> float:
    """operator / restricted; 1 when both vanish, infinite when only the
    restricted norm does.  Recomputing it from the stored norms is exact."""
    if restricted > 0:
        return operator / restricted
    return 1.0 if operator == 0 else math.inf


# -- partition projections ---------------------------------------------------


def projection_convergence_test(
    kernel: KernelSpec,
    sigma: DiscreteMeasure,
    f,
    g,
    partitions,
    p: float = 2.0,
    multiplier=None,
    diagonal_policy: float | None = None,
) -> ProjectionReport:
    """Convergence of <T P^1_n f, P^2_n g> to (1/4) <T f, g> along partitions.

    ``partitions`` is a sequence of separated partitions (each exposing
    ``level`` and ``indicator(points)``); P^1_n multiplies by the indicator
    of the first set and P^2_n by the second, both on the supports of the
    same measure sigma.  Also reports, per level, the deviation of
    ||P^1_n f||_p from 2^(-1/p) ||f||_p, the mass-halving signature of the
    partitions.  The fitted exponent is the base-2 least-squares decay rate
    of the quarter deviation across levels.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)

    def form(f, g):
        return bilinear_form(kernel, sigma, sigma, f, g, multiplier, diagonal_policy).value

    reference = form(f, g)
    f_norm = lp_norm(f, sigma.weights, p)

    quarter_deviations: dict = {}
    norm_deviations: dict = {}
    for partition in partitions:
        in_first, in_second = partition.indicator(sigma.points)
        fn = np.where(in_first, f, 0.0)
        gn = np.where(in_second, g, 0.0)
        value = form(fn, gn)
        level = int(partition.level)
        quarter_deviations[level] = float(
            np.linalg.norm(np.atleast_1d(value - 0.25 * reference))
        )
        norm_deviations[level] = abs(
            lp_norm(fn, sigma.weights, p) - 2.0 ** (-1.0 / p) * f_norm
        )

    xs = np.array(sorted(quarter_deviations))
    ys = np.array([quarter_deviations[n] for n in xs])
    positive = ys > 0
    if np.count_nonzero(positive) >= 2:
        slope = np.polyfit(xs[positive], np.log(ys[positive]), 1)[0]
        fitted = float(-slope / math.log(2.0))
    else:
        fitted = math.inf
    return ProjectionReport(
        reference=reference,
        quarter_deviations=quarter_deviations,
        norm_deviations=norm_deviations,
        fitted_exponent=fitted,
    )
