"""Singular convolution kernels and their discretization against measures.

A kernel is a map K(s, t) defined off the diagonal with values in R^m
(m = 2 encodes complex values as (real, imag) pairs; complex multiplication
is the corresponding real 2x2 action).  Convolution kernels carry a profile
K1 with K(s, t) = K1(t - s) and K1(x) = A(|x|) * B(x/|x|), where B is a
spherical factor that lifts to a homogeneous map of declared degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DiagonalSingularityError, ParameterError
from .measure import DiscreteMeasure, _point_tuple, shared_point_indices, spec_arguments

__all__ = [
    "ConvolutionProfile",
    "KernelSpec",
    "KernelMatrix",
    "make_hilbert",
    "make_cauchy",
    "make_riesz_generalized",
    "make_ahlfors_beurling",
    "materialize",
    "regular_on_diagonal",
    "kernel_from_name",
]


@dataclass(frozen=True)
class ConvolutionProfile:
    """Factorization K1(x) = radial(|x|) * spherical(x/|x|).

    ``degree`` is the homogeneity order of the lifted spherical factor
    B(x) = |x|**degree * spherical(x/|x|), used by constructions that need a
    continuous homogeneous profile rather than one living on the sphere.
    """

    radial: Callable[[np.ndarray], np.ndarray]
    spherical: Callable[[np.ndarray], np.ndarray]
    degree: float

    def kernel_values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = x / r[..., None]
        sph = np.asarray(self.spherical(theta))
        rad = np.asarray(self.radial(r))
        if sph.ndim == rad.ndim:  # scalar spherical factor
            return rad * sph
        return rad[..., None] * sph

    def lifted_spherical(self, x: np.ndarray) -> np.ndarray:
        """Homogeneous lift B(x) = |x|**degree * spherical(x/|x|); B(0) = 0."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        safe = np.where(r > 0, r, 1.0)
        sph = np.asarray(self.spherical(x / safe[..., None]))
        scale = np.where(r > 0, safe**self.degree, 0.0)
        if sph.ndim == r.ndim:
            return scale * np.where(r > 0, sph, 0.0)
        return scale[..., None] * np.where(r[..., None] > 0, sph, 0.0)

    def lifted_radial(self, r: np.ndarray) -> np.ndarray:
        """A(r) / r**degree, so kernel_values = lifted_radial * lifted_spherical."""
        r = np.asarray(r, dtype=float)
        return np.asarray(self.radial(r)) * r ** (-self.degree)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel K(s, t) on R^N x R^N minus the diagonal.

    ``evaluate(s, t)`` is vectorized over leading axes of (..., N) inputs and
    returns (...,) for scalar kernels or (..., m) for vector values.  It must
    be elementwise over the leading axes (an output entry depends only on
    its own s and t) and accept inputs of any strides: ``materialize`` calls
    it on row blocks of coordinate-major views.  ``order`` is the
    singularity order d, meaning |K(s,t)| * |s-t|**d stays bounded.
    """

    dimension: int
    value_dim: int
    order: float
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    profile: ConvolutionProfile | None = None
    finite_on_diagonal: bool = False
    name: str = "custom"

    def __call__(self, s, t):
        return self.evaluate(np.asarray(s, float), np.asarray(t, float))


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel sampled against a measure pair.

    Rows follow the support of nu (the output variable s), columns the
    support of mu (the input variable t).  ``entries`` has shape
    (len(nu), len(mu)) for scalar kernels and (len(nu), len(mu), m) for
    vector values; complex dtype encodes complex scalar kernels.  Vector
    entries from ``materialize`` are stored as component planes, i.e. as a
    (len(nu), m, len(mu)) array in memory, so ``stacked`` is free.
    """

    entries: np.ndarray
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    value_dim: int
    diagonal_policy: float | None = None

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.shape[0] != len(self.nu) or e.shape[1] != len(self.mu):
            raise ParameterError("entry shape does not match the supports")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def stacked(self) -> np.ndarray:
        """The entries as one (len(nu) * m, len(mu)) matrix whose rows
        j*m, ..., j*m + m - 1 are the components of nu-row j; the entries
        themselves for scalar kernels.  A view of component planes, and a
        C-ordered copy of vector entries in any other layout, so products
        with it round alike whatever the entries' strides (one nu-row of
        (1, n, m) entries would otherwise reshape to a column-major view)."""
        e = self.entries
        if e.ndim == 2:
            return e
        rows, cols, m = e.shape
        return np.ascontiguousarray(np.moveaxis(e, 2, 1).reshape(rows * m, cols))


# -- catalog --------------------------------------------------------------


def _coords_diff(s, t):
    """t - s with broadcasting, final axis the coordinate axis."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return t - s


def make_hilbert() -> KernelSpec:
    """K(s, t) = 1 / (pi (s - t)) on R; scalar, order 1."""

    def evaluate(s, t):
        x = _coords_diff(s, t)[..., 0]
        with np.errstate(divide="ignore"):
            return -1.0 / (np.pi * x)

    return KernelSpec(1, 1, 1.0, evaluate, profile=None, name="hilbert")


def make_cauchy() -> KernelSpec:
    """K1(z) = 1/z = conj(z)/|z|^2 on R^2, stored as a real pair; order 1."""

    profile = ConvolutionProfile(
        radial=lambda r: 1.0 / r,
        spherical=lambda th: np.stack([th[..., 0], -th[..., 1]], axis=-1),
        degree=1.0,
    )

    def evaluate(s, t):
        x = _coords_diff(s, t)
        r2 = np.sum(x**2, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.stack([x[..., 0] / r2, -x[..., 1] / r2], axis=-1)

    return KernelSpec(2, 2, 1.0, evaluate, profile=profile, name="cauchy")


def make_riesz_generalized(alpha: float, dimension: int) -> KernelSpec:
    """K1(x) = x / |x|**(alpha+1) on R^N, order alpha; vector-valued, scalar on R."""
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if dimension < 1:
        raise ParameterError("dimension must be at least 1")

    def components(x):
        return x[..., 0] if dimension == 1 else x

    profile = ConvolutionProfile(
        radial=lambda r: r ** (-float(alpha)),
        spherical=components,
        degree=1.0,
    )

    def evaluate(s, t):
        x = _coords_diff(s, t)
        r = np.linalg.norm(x, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return components(x * (r ** (-(alpha + 1.0)))[..., None])

    return KernelSpec(
        dimension,
        dimension,
        float(alpha),
        evaluate,
        profile=profile,
        name=f"riesz(alpha={alpha},N={dimension})",
    )


def make_ahlfors_beurling() -> KernelSpec:
    """K1(z) = 1/z^2 = conj(z)^2/|z|^4 on R^2; order 2."""

    def _sph(th):
        a, b = th[..., 0], th[..., 1]
        return np.stack([a * a - b * b, -2.0 * a * b], axis=-1)

    profile = ConvolutionProfile(
        radial=lambda r: r ** (-2.0), spherical=_sph, degree=2.0
    )

    def evaluate(s, t):
        x = _coords_diff(s, t)
        a, b = x[..., 0], x[..., 1]
        r4 = (a * a + b * b) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.stack([(a * a - b * b) / r4, -2.0 * a * b / r4], axis=-1)

    return KernelSpec(2, 2, 2.0, evaluate, profile=profile, name="ahlfors_beurling")


def kernel_from_name(spec: str) -> KernelSpec:
    """Parse 'hilbert', 'cauchy', 'ahlfors_beurling' or 'riesz:alpha=A,N=D'."""
    name, _, arg_str = spec.partition(":")
    args = {}
    for key, val in spec_arguments(arg_str, "kernel").items():
        try:
            args[key.lower()] = float(val)
        except ValueError as exc:
            raise ParameterError(
                f"kernel argument {key!r} must be numeric, got {val!r}"
            ) from exc
    if name == "hilbert":
        return make_hilbert()
    if name == "cauchy":
        return make_cauchy()
    if name == "ahlfors_beurling":
        return make_ahlfors_beurling()
    if name == "riesz":
        try:
            return make_riesz_generalized(args["alpha"], int(args["n"]))
        except KeyError as exc:
            raise ParameterError("riesz kernel needs alpha=...,N=...") from exc
    raise ParameterError(f"unknown kernel {name!r}")


# -- discretization -------------------------------------------------------

# Byte budget of one row block of ``materialize``: rows x len(mu) x
# max(N, m) float entries, so that a block's temporaries stay in cache.
_CHUNK_BYTES = 2 * 2**20


def regular_on_diagonal(kernel: KernelSpec, multiplier=None) -> bool:
    """Whether ``multiplier * K`` is finite on coincident pairs without a
    diagonal policy: the kernel is finite there or the multiplier vanishes."""
    return kernel.finite_on_diagonal or bool(
        getattr(multiplier, "vanishes_at_zero", False)
    )


def _sample_block(kernel: KernelSpec, multiplier, s, t):
    """``multiplier * K`` on the (s, t) grid; returns (values, value_dim)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(kernel.evaluate(s, t))
    if multiplier is None:
        return vals, kernel.value_dim
    mult_vals = np.asarray(multiplier(s, t))
    if mult_vals.ndim == vals.ndim and kernel.value_dim > 1:
        # vector multiplier paired with vector kernel: contract
        with np.errstate(invalid="ignore"):
            return np.sum(mult_vals * vals, axis=-1), 1
    if np.iscomplexobj(mult_vals) and vals.ndim > mult_vals.ndim:
        raise ParameterError("complex multipliers pair with scalar kernels only")
    with np.errstate(invalid="ignore"):
        if vals.ndim > mult_vals.ndim:
            return mult_vals[..., None] * vals, kernel.value_dim
        return mult_vals * vals, kernel.value_dim


def materialize(
    kernel: KernelSpec,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    multiplier=None,
    diagonal_policy: float | None = None,
) -> KernelMatrix:
    """Sample ``multiplier * K`` on supp(nu) x supp(mu).

    Coincident point pairs, found by ``shared_point_indices``, are only
    legal when the kernel is finite on the diagonal, the multiplier vanishes
    there, or ``diagonal_policy`` supplies an explicit value; otherwise the
    offending pairs are reported.  Every other pair must sample finitely,
    including distinct points so close that their distance underflows.

    When both the kernel and the multiplier are vector-valued (matching m),
    the entries are their pointwise inner products (scalar kernel matrix).

    Rows are sampled in blocks of about ``_CHUNK_BYTES`` on coordinate-major
    point views, so each coordinate of a block's differences t - s is one
    contiguous plane; every block is filled and checked as it is written,
    and the memory beyond the entries is one block.  Vector entries are
    written into component planes (see ``KernelMatrix``), so the stacked
    matrix the norms solve on is a view, not a second copy.
    """
    if kernel.dimension != mu.dimension or kernel.dimension != nu.dimension:
        raise ParameterError("kernel and measures must share a dimension")
    if multiplier is not None and not callable(multiplier):
        raise ParameterError("multiplier must be callable as multiplier(s, t)")
    cols, rows = shared_point_indices(mu.points, nu.points)
    by_row = np.argsort(rows)  # each nu-row meets at most one mu-column
    rows, cols = rows[by_row], cols[by_row]

    regular = regular_on_diagonal(kernel, multiplier)
    if len(rows) and not (regular or diagonal_policy is not None):
        pairs = [
            (_point_tuple(nu.points[i]), _point_tuple(mu.points[j]))
            for i, j in zip(rows[:10], cols[:10])
        ]
        raise DiagonalSingularityError(
            f"{len(rows)} coincident point pair(s) under a "
            "singular kernel; supply a vanishing multiplier or a diagonal "
            f"policy (first offenders: {pairs})",
            pairs=pairs,
        )
    # a singular kernel is zero there under a vanishing multiplier; a kernel
    # finite on the diagonal keeps its own values
    fill = 0.0 if regular else diagonal_policy

    s_all = np.asfortranarray(nu.points)  # rows: output variable
    t = np.asfortranarray(mu.points)[None]  # cols: input variable
    row_bytes = 8 * len(mu) * max(kernel.dimension, kernel.value_dim)
    step = max(1, _CHUNK_BYTES // max(row_bytes, 1))
    entries = None
    for start in range(0, max(len(nu), 1), step):
        stop = min(start + step, len(nu))
        vals, value_dim = _sample_block(kernel, multiplier, s_all[start:stop, None], t)
        if entries is None:
            if vals.ndim == 3:  # component planes: (len(nu), m, len(mu)) in memory
                entries = np.empty(
                    (len(nu), vals.shape[2], len(mu)), vals.dtype
                ).transpose(0, 2, 1)
            else:
                entries = np.empty((len(nu), len(mu)), vals.dtype)
        block = entries[start:stop]
        block[...] = vals
        del vals  # freed before the next block is sampled
        lo, hi = np.searchsorted(rows, (start, stop))
        if hi > lo and not kernel.finite_on_diagonal:
            block[rows[lo:hi] - start, cols[lo:hi]] = fill
        if not np.all(np.isfinite(block)):
            raise DiagonalSingularityError(
                "kernel produced non-finite entries away from coincident pairs"
            )
    return KernelMatrix(entries, mu, nu, value_dim, diagonal_policy)
