"""Singular convolution kernels and their discretization against measures.

A kernel is a map K(s, t) defined off the diagonal with values in R^m
(m = 2 encodes complex values as (real, imag) pairs; complex multiplication
is the corresponding real 2x2 action).  Convolution kernels carry a profile
K1 with K(s, t) = K1(t - s) and K1(x) = A(|x|) * B(x/|x|), where B is a
spherical factor that lifts to a homogeneous map of declared degree.
``windowed`` builds every multiplier made of B: its lift times a window.

Each kernel's arithmetic exists once, as an in-place form
``sample_into(s, t, out, work)``: it reads the coordinate planes of s and
t, uses the float planes of ``work`` as scratch, and writes component c of
K(s, t) into the plane ``out[c]`` with ``out=``.  The row-block sampler
behind ``materialize`` calls it on workspace it allocates once per call,
so sampling allocates nothing per block; ``KernelSpec.evaluate`` allocates
and calls the same form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DiagonalSingularityError, ParameterError
from .measure import REQUIRED, DiscreteMeasure, _point_tuple, from_spec, integral
from .measure import shared_point_indices

__all__ = [
    "ConvolutionProfile",
    "windowed",
    "KernelSpec",
    "KernelMatrix",
    "make_hilbert",
    "make_cauchy",
    "make_riesz_generalized",
    "make_ahlfors_beurling",
    "materialize",
    "reweight",
    "regular_on_diagonal",
    "kernel_from_name",
]


@dataclass(frozen=True)
class ConvolutionProfile:
    """Factorization K1(x) = radial(|x|) * spherical(x/|x|).

    ``degree`` is the homogeneity order of the lifted spherical factor
    B(x) = |x|**degree * spherical(x/|x|), used by constructions that need a
    continuous homogeneous profile rather than one living on the sphere
    (``windowed(spherical, window, degree)``).
    """

    radial: Callable[[np.ndarray], np.ndarray]
    spherical: Callable[[np.ndarray], np.ndarray]
    degree: float


def windowed(spherical, window, degree: float = 0.0):
    """The multiplier profile m(x) = (|x|**degree * spherical(x/|x|)) *
    window(|x|), with m(0) = 0, valued like ``spherical`` (one scalar or a
    trailing axis of components) on difference vectors (..., N).  The lift
    and the spherical factor are evaluated only where x != 0 and the window
    is nonzero; every other value is 0."""

    def m(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        w = window(r)
        on = (r > 0) & (w != 0)
        r_on, w_on = r[on], w[on]
        sph = np.asarray(spherical(x[on] / r_on[:, None]))
        if sph.ndim > 1:
            r_on, w_on = r_on[:, None], w_on[:, None]
        values = r_on**degree * sph * w_on
        out = np.zeros(r.shape + values.shape[1:], dtype=values.dtype)
        out[on] = values
        return out

    return m


@dataclass(frozen=True)
class KernelSpec:
    """A kernel K(s, t) on R^N x R^N minus the diagonal, with m = value_dim
    real components.

    ``sample_into(s, t, out, work)`` is the kernel's one in-place form.  s
    and t are (N, ...) float arrays of coordinate planes (s[k] is the k-th
    coordinate of the output points), broadcasting to the planes' shape.
    ``work`` holds N + 1 float planes of that shape, scratch whose contents
    are undefined on entry and exit; ``out`` holds m planes, and the form
    writes component c into ``out[c]``, which may be a strided view.  It
    must be elementwise (an entry depends only on its own s and t) and
    allocate no array of the planes' shape.  Callers ignore divide and
    invalid floating-point warnings around it.  ``order`` is the
    singularity order d, meaning |K(s,t)| * |s-t|**d stays bounded.
    """

    dimension: int
    value_dim: int
    order: float
    sample_into: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]
    profile: ConvolutionProfile | None = None
    name: str = "custom"

    def evaluate(self, s, t) -> np.ndarray:
        """K(s, t) for (..., N) inputs broadcast over their leading axes:
        (...,) for scalar kernels, (..., m) for vector values; a fresh
        C-ordered array built by ``sample_into``."""
        s = np.asarray(s, dtype=float)[None]  # a leading axis: planes stay arrays
        t = np.asarray(t, dtype=float)[None]
        values = np.empty((*np.broadcast_shapes(s.shape[:-1], t.shape[:-1]), self.value_dim))
        work = np.empty((self.dimension + 1, *values.shape[:-1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            self.sample_into(
                np.moveaxis(s, -1, 0), np.moveaxis(t, -1, 0), np.moveaxis(values, -1, 0), work
            )
        return values[0] if self.value_dim > 1 else values[0, ..., 0]

    def __call__(self, s, t):
        return self.evaluate(s, t)


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
        return _stacked(self.entries)


def _stacked(e: np.ndarray) -> np.ndarray:
    if e.ndim == 2:
        return e
    rows, cols, m = e.shape
    return np.ascontiguousarray(np.moveaxis(e, 2, 1).reshape(rows * m, cols))


# -- catalog --------------------------------------------------------------


def _differences(s, t, work):
    """t - s into the first N planes of ``work``, which it returns."""
    x = work[: len(s)]
    for k in range(len(s)):
        np.subtract(t[k], s[k], out=x[k])
    return x


def _squared_norm(x, out, tmp):
    """sum_k x[k]**2 into ``out``, accumulated from k = 0 up, as NumPy's
    ``np.sum(x**2, axis=-1)`` rounds it; ``tmp`` is scratch."""
    np.multiply(x[0], x[0], out=out)
    for k in range(1, len(x)):
        np.multiply(x[k], x[k], out=tmp)
        out += tmp
    return out


def make_hilbert() -> KernelSpec:
    """K(s, t) = 1 / (pi (s - t)) on R; scalar, order 1."""

    def sample_into(s, t, out, work):
        x = np.subtract(t[0], s[0], out=work[0])
        np.multiply(x, np.pi, out=x)
        np.divide(-1.0, x, out=out[0])

    return KernelSpec(1, 1, 1.0, sample_into, profile=None, name="hilbert")


def make_cauchy() -> KernelSpec:
    """K1(z) = 1/z = conj(z)/|z|^2 on R^2, stored as a real pair; order 1."""

    profile = ConvolutionProfile(
        radial=lambda r: 1.0 / r,
        spherical=lambda th: np.stack([th[..., 0], -th[..., 1]], axis=-1),
        degree=1.0,
    )

    def sample_into(s, t, out, work):
        x = _differences(s, t, work)
        r2 = _squared_norm(x, work[2], out[0])
        np.divide(x[0], r2, out=out[0])
        np.divide(x[1], r2, out=out[1])
        np.negative(out[1], out=out[1])

    return KernelSpec(2, 2, 1.0, sample_into, profile=profile, name="cauchy")


def make_riesz_generalized(alpha: float, dimension: int) -> KernelSpec:
    """K1(x) = x / |x|**(alpha+1) on R^N, order alpha; vector-valued, scalar on R."""
    if not 0 < alpha < np.inf:
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    if dimension < 1:
        raise ParameterError("dimension must be at least 1")

    def components(x):
        return x[..., 0] if dimension == 1 else x

    profile = ConvolutionProfile(
        radial=lambda r: r ** (-float(alpha)),
        spherical=components,
        degree=1.0,
    )

    def sample_into(s, t, out, work):
        x = _differences(s, t, work)
        r = _squared_norm(x, work[dimension], out[0])
        np.sqrt(r, out=r)
        np.power(r, -(alpha + 1.0), out=r)
        np.multiply(x, r, out=out)

    return KernelSpec(
        dimension,
        dimension,
        float(alpha),
        sample_into,
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

    def sample_into(s, t, out, work):
        a, b = _differences(s, t, work)
        r4 = work[2]
        np.multiply(a, a, out=out[0])
        np.multiply(b, b, out=out[1])
        np.add(out[0], out[1], out=r4)
        np.multiply(r4, r4, out=r4)
        np.subtract(out[0], out[1], out=out[0])
        np.divide(out[0], r4, out=out[0])
        np.multiply(a, -2.0, out=out[1])
        np.multiply(out[1], b, out=out[1])
        np.divide(out[1], r4, out=out[1])

    return KernelSpec(2, 2, 2.0, sample_into, profile=profile, name="ahlfors_beurling")


_CATALOG = {
    "hilbert": (make_hilbert, {}),
    "cauchy": (make_cauchy, {}),
    "ahlfors_beurling": (make_ahlfors_beurling, {}),
    "riesz": (make_riesz_generalized,
              {"alpha": (REQUIRED, float), "n": (REQUIRED, integral)}),
}


def kernel_from_name(spec: str) -> KernelSpec:
    """Parse 'hilbert', 'cauchy', 'ahlfors_beurling' or 'riesz:alpha=A,N=D'."""
    return from_spec(spec, _CATALOG, "kernel")


# -- discretization -------------------------------------------------------

# Byte budget of one row block: rows x len(mu) x max(N, m) floats.  It
# bounds the sampler's workspace, allocated once per call: N + 1 coordinate
# and scratch planes, a (rows, m, len(mu)) block buffer and its finiteness
# mask take at most about three budgets (one row when a row alone is more).
_CHUNK_BYTES = 2 * 2**20


def regular_on_diagonal(multiplier=None) -> bool:
    """Whether ``multiplier * K`` is finite on coincident pairs without a
    diagonal policy: the multiplier vanishes there."""
    return bool(getattr(multiplier, "vanishes_at_zero", False))


def _pair(values: np.ndarray, mult_vals: np.ndarray, value_dim: int):
    """``multiplier * K`` from both sampled on the same pairs, and its
    value_dim: vector multipliers contract with vector kernels, scalar ones
    scale every component, and complex ones pair with scalar kernels only."""
    if mult_vals.ndim == values.ndim and value_dim > 1:
        with np.errstate(invalid="ignore"):
            return np.sum(mult_vals * values, axis=-1), 1
    if np.iscomplexobj(mult_vals) and values.ndim > mult_vals.ndim:
        raise ParameterError("complex multipliers pair with scalar kernels only")
    if values.ndim > mult_vals.ndim:
        mult_vals = mult_vals[..., None]
    with np.errstate(invalid="ignore"):
        return mult_vals * values, value_dim


def _entries_of(planes: np.ndarray, vector: bool) -> np.ndarray:
    """(rows, m, cols) component planes as ``KernelMatrix`` entries:
    (rows, cols, m) for vector values, else the first plane (rows, cols)."""
    return np.moveaxis(planes, 1, 2) if vector else planes[:, 0]


def _row_blocks(source, mu, nu, multiplier, policy, into=None):
    """Yield (start, values, value_dim) per row block of ``multiplier * K``
    on supp(nu) x supp(mu), filled and checked as ``materialize``
    describes.  K is ``source``: a ``KernelSpec``, sampled by its
    ``sample_into``, or a ``KernelMatrix`` on these supports read by rows,
    which needs a multiplier (its entries are read-only).  The workspace,
    sized by ``_CHUNK_BYTES``, is allocated once: kernel values land in the
    rows of ``into`` ((len(nu), m, len(mu)) component planes) when it is
    given and there is no multiplier, else in one reused block buffer, so
    ``values`` is valid until the next block.  The multiplier is sampled on
    point views s (rows, 1, N) and t (1, len(mu), N) and returns fresh
    arrays.
    """
    sampled = isinstance(source, KernelSpec)
    if not (callable(multiplier) or multiplier is None and sampled):
        raise ParameterError("multiplier must be callable as multiplier(s, t)")
    if policy is not None and not np.isfinite(float(policy)):
        raise ParameterError(f"diagonal_policy must be finite, got {policy}")
    cols, rows = shared_point_indices(mu.points, nu.points)
    by_row = np.argsort(rows)  # each nu-row meets at most one mu-column
    rows, cols = rows[by_row], cols[by_row]
    fill = 0.0 if regular_on_diagonal(multiplier) else policy
    if len(rows) and fill is None:
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
    s_all = np.asfortranarray(nu.points)  # rows: output variable
    t = np.asfortranarray(mu.points)[None]  # cols: input variable
    t_planes = np.moveaxis(t, -1, 0)
    value_dim = source.value_dim
    step = max(1, _CHUNK_BYTES // max(8 * len(mu) * max(mu.dimension, value_dim), 1))
    shape = (min(step, len(nu)), value_dim, len(mu))
    finite = np.empty(shape, dtype=bool)
    if sampled:
        work = np.empty((mu.dimension + 1, shape[0], shape[2]))
        buffer = np.empty(shape) if into is None or multiplier is not None else None
    for start in range(0, max(len(nu), 1), step):
        stop = min(start + step, len(nu))
        s = s_all[start:stop, None]
        if sampled:
            planes = into[start:stop] if buffer is None else buffer[: stop - start]
            with np.errstate(divide="ignore", invalid="ignore"):
                source.sample_into(
                    np.moveaxis(s, -1, 0), t_planes, planes.swapaxes(0, 1),
                    work[:, : stop - start],
                )
            vals = _entries_of(planes, value_dim > 1)
        else:
            vals = source.entries[start:stop]
        dim = value_dim
        if multiplier is not None:
            vals, dim = _pair(vals, np.asarray(multiplier(s, t)), value_dim)
        lo, hi = np.searchsorted(rows, (start, stop))
        if hi > lo:
            vals[rows[lo:hi] - start, cols[lo:hi]] = fill
        mask = _entries_of(finite[: stop - start], vals.ndim == 3)
        if not np.isfinite(vals, out=mask).all():
            raise DiagonalSingularityError(
                "kernel produced non-finite entries away from coincident pairs"
            )
        yield start, vals, dim


def _assemble(mu, nu, blocks, diagonal_policy) -> KernelMatrix:
    """``multiplier * K`` from its row blocks, copied into component planes
    (len(nu), m, len(mu)) shaped and typed after the first block."""
    entries = None
    for start, vals, value_dim in blocks:
        if entries is None:
            entries = np.empty((len(nu), *vals.shape[2:], len(mu)), vals.dtype)
            entries = np.moveaxis(entries, -1, 1)
        entries[start:start + len(vals)] = vals
        del vals
    return KernelMatrix(entries, mu, nu, value_dim, diagonal_policy)


def _sampled_blocks(kernel: KernelSpec, mu, nu, multiplier, diagonal_policy, into=None):
    """``materialize``'s row blocks, in the kernel's layout; the inputs and
    the coincident pairs are checked before any block is sampled."""
    if kernel.dimension != mu.dimension or kernel.dimension != nu.dimension:
        raise ParameterError("kernel and measures must share a dimension")
    return _row_blocks(kernel, mu, nu, multiplier, diagonal_policy, into)


def materialize(
    kernel: KernelSpec,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    multiplier=None,
    diagonal_policy: float | None = None,
) -> KernelMatrix:
    """Sample ``multiplier * K`` on supp(nu) x supp(mu); a vector
    multiplier contracts a vector kernel to scalar entries.

    Coincident point pairs, found by ``shared_point_indices``, are 0 under
    a multiplier vanishing there and ``diagonal_policy`` (finite) otherwise;
    with neither, the offending pairs are reported.  Every other pair must
    sample finitely, including distinct points so close that their distance
    underflows.  Rows are sampled in blocks of about ``_CHUNK_BYTES``, each
    filled and checked as it is sampled, so the memory beyond the entries
    is one block's workspace.  Without a multiplier each block is
    sampled straight into the entries' component planes (see
    ``KernelMatrix``), so the stacked matrix the norms solve on is a view,
    not a second copy.
    """
    if multiplier is not None:
        blocks = _sampled_blocks(kernel, mu, nu, multiplier, diagonal_policy)
        return _assemble(mu, nu, blocks, diagonal_policy)
    planes = np.empty((len(nu), kernel.value_dim, len(mu)))
    for _ in _sampled_blocks(kernel, mu, nu, None, diagonal_policy, into=planes):
        pass  # each block is sampled, filled and checked in place
    entries = _entries_of(planes, kernel.value_dim > 1)
    return KernelMatrix(entries, mu, nu, kernel.value_dim, diagonal_policy)


def reweight(km: KernelMatrix, multiplier) -> KernelMatrix:
    """``multiplier * K`` for K sampled without a multiplier, and without
    sampling the kernel again: bit for bit ``materialize(kernel, km.mu,
    km.nu, multiplier, km.diagonal_policy)``, coincident pairs included.
    """
    blocks = _row_blocks(km, km.mu, km.nu, multiplier, km.diagonal_policy)
    return _assemble(km.mu, km.nu, blocks, km.diagonal_policy)
