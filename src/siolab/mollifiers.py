"""Mollifying multipliers and certified bounds for their Schur norms.

A mollifier is a function m on R^N that vanishes identically near the
origin and tends to 1 at infinity, so that M_eps(s, t) = m((t - s) / eps)
kills a neighbourhood of the diagonal when multiplied onto a kernel.  Every
multiplier in siolab has that form and is one type, ``ScaledMultiplier(m,
eps, vanishes_at_zero)``: ``scale`` builds it from a ``Mollifier``, and
``muckenhoupt`` (the necessity window ``window_profile``) and
``truncation.build_sectorial_multiplier`` from the profile that
``kernels.windowed`` makes of a spherical factor and a window.  The
certified Schur bound comes from the Fourier side: if 1 - m is the Fourier
transform of an integrable rho, the Schur norm of M_eps is at most
1 + ||rho||_1 at every scale eps.  Sampled on s_k = -L + k ds, ds = 2L/M,
rho on the dual grid x_j (axes 2 pi fftfreq(M, ds), spacing pi/L) is
(L/pi)^N e^{-iL(x_j1 + ... + x_jN)} ifftn(samples)_j, and both functionals
used read only |rho|: ||rho||_1 is sum_j |ifftn_j| and ||(1 + |x|^k) rho||_2
is (L/pi)^(N/2) sqrt(sum_j ((1 + |x_j|^k) |ifftn_j|)^2).  Each is computed
at two resolutions so that the disagreement provides an error estimate.
One helper samples a profile on both grids and transforms it;
``wiener_norm`` (scalar or vector-valued profiles, components summed),
``schur_bound`` and ``sobolev_bound`` all go through it.  Each component is
one real plane, or two for a complex one, and each plane gets a real-input
FFT: only the half spectrum, M // 2 + 1 columns on the last axis, is
computed, since every other coefficient mirrors a stored one (the moduli of
ifftn are those of fftn / M^N at negated indices).  Both functionals are
read off the stored moduli one block of columns at a time, so no full-grid
modulus or weight is held.  Above 1-D the helper keeps only the grid rows
that hold a nonzero: the 2-vector Cauchy window on the 1024^2 grid of
[-24, 24)^2, zero for |x| >= 3, keeps 129 rows of 513 columns (1 MiB per
component) and transforms them along the first axis 128 columns (2 MiB) at
a time, where whole samples, transform and modulus took 16, 16 and 8 MiB.
In 1-D the 2^19 real samples (4 MiB) give a 2^18 + 1 column half spectrum
(4 MiB), where their complex copy took 8 MiB and its modulus 4 more.

The transform convention is rho_hat(s) = integral of rho(x) e^{-i s.x} dx.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import numpy.fft  # numpy loads it on first use: here, not inside a command

from . import kernels
from .errors import (
    NormalizationError,
    ParameterError,
    UnreliableEstimateError,
)
from .measure import REQUIRED, from_spec, integral

__all__ = [
    "Mollifier",
    "ScaledMultiplier",
    "SchurBound",
    "MomentOrderReport",
    "gaussian_mollifier",
    "complex_shift_mollifier",
    "smooth_annulus_mollifier",
    "constant_one_mollifier",
    "scale",
    "wiener_norm",
    "schur_bound",
    "bound_reproduces",
    "sobolev_bound",
    "sobolev_weight_constant",
    "midpoint_grid",
    "moment_order",
    "slope_reproduces",
    "multiplier_power",
    "smooth_step",
    "mollifier_from_name",
]

_DEFAULT_POINTS = {1: 8192, 2: 1024}
# Relative disagreement of the two resolutions above which ``schur_bound``
# refuses to certify.
_INSTABILITY_TOL = 0.05


@dataclass(frozen=True)
class Mollifier:
    """A multiplier profile m with m = 0 on a ball around the origin.

    ``vanishing_radius`` is the radius of that ball (0 when m only vanishes
    at the origin itself, as for profiles with a zero of finite order).
    ``tail_type`` records whether 1 - m is compactly supported or merely
    integrable-after-transform, which sets the default transform grid.
    Powers keep a reference to their base so certified bounds can use the
    product rule.
    """

    dimension: int
    profile: Callable[[np.ndarray], np.ndarray]
    vanishing_radius: float
    vanishing_order: float
    tail_type: str  # "one_minus_compact" | "one_minus_integrable"
    name: str = "custom"
    base: "Mollifier | None" = None
    exponent: int = 1

    def __post_init__(self):
        if self.tail_type not in ("one_minus_compact", "one_minus_integrable"):
            raise ParameterError(f"unknown tail_type {self.tail_type!r}")
        if self.vanishing_radius < 0:
            raise ParameterError("vanishing_radius must be nonnegative")
        if self.dimension < 1:
            raise ParameterError(f"dimension must be at least 1, got {self.dimension}")

    def __call__(self, x):
        return self.profile(np.asarray(x, dtype=float))

    def tail(self, x):
        """1 - m, the part whose inverse transform must be integrable."""
        return 1.0 - self.profile(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ScaledMultiplier:
    """M_eps(s, t) = m((t - s) / eps), callable on broadcast point grids.

    ``profile`` is m on difference vectors (..., N), scalar, complex or
    vector valued; ``vanishes_at_zero`` records m(0) = 0, which lets
    ``kernels.materialize`` zero-fill coincident pairs.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    eps: float
    vanishes_at_zero: bool

    def __post_init__(self):
        if not self.eps > 0:
            raise ParameterError("eps must be positive")

    def __call__(self, s, t):
        x = (np.asarray(t, float) - np.asarray(s, float)) / self.eps
        return self.profile(x)


@dataclass(frozen=True)
class SchurBound:
    """A certified upper bound for the Schur norm of a multiplier family.

    ``bound`` dominates the Schur norm of m((t-s)/eps) uniformly in eps.
    ``method`` names the certification route; ``error_estimate`` is the
    disagreement between the two grid resolutions actually computed.
    """

    bound: float
    method: str  # "wiener_dft" | "sobolev"
    grid: tuple
    error_estimate: float


def smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly monotone
    between, NaN for NaN.  The exponentials are evaluated between only."""
    u = np.asarray(u, dtype=float)
    out = np.where(u <= 0, 0.0, u)
    np.minimum(out, 1.0, out=out)  # NaN stays NaN
    band = (u > 0) & (u < 1)
    v = u[band]
    with np.errstate(over="ignore"):  # -1/v overflows to -inf for subnormal v
        left = np.exp(-1.0 / v)
        out[band] = left / (left + np.exp(-1.0 / (1.0 - v)))
    return out


# -- catalog --------------------------------------------------------------


def gaussian_mollifier(dimension: int = 1) -> Mollifier:
    """m(x) = 1 - exp(-|x|^2 / 2); zero of order 2 at the origin.

    1 - m is the transform of the standard Gaussian density, whose L1 norm
    is exactly 1, so the certified Schur bound is exactly 2.
    """

    def profile(x):
        x = np.asarray(x, dtype=float)
        return 1.0 - np.exp(-0.5 * np.sum(x**2, axis=-1))

    return Mollifier(
        dimension=dimension,
        profile=profile,
        vanishing_radius=0.0,
        vanishing_order=2.0,
        tail_type="one_minus_integrable",
        name="gaussian",
    )


def complex_shift_mollifier() -> Mollifier:
    """m(s) = s / (s - i) on R; the multiplier that shifts a simple pole.

    1 - m(s) = 1 / (1 + i s) is the transform of the one-sided exponential
    density, so the certified Schur bound is again exactly 2.  Values are
    complex; pair it with scalar kernels.
    """

    def profile(x):
        x = np.asarray(x, dtype=float)[..., 0]
        return x / (x - 1j)

    return Mollifier(
        dimension=1,
        profile=profile,
        vanishing_radius=0.0,
        vanishing_order=1.0,
        tail_type="one_minus_integrable",
        name="complex_shift",
    )


def smooth_annulus_mollifier(delta: float, dimension: int = 1) -> Mollifier:
    """Radial C-infinity profile: 0 for |x| <= 1 - delta, 1 for |x| >= 1.

    1 - m is smooth and compactly supported in the closed unit ball, so it
    lies in every Sobolev space and the transform-side machinery applies.
    """
    if not 0 < delta < 1:
        raise ParameterError("delta must lie in (0, 1)")

    def profile(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        return smooth_step((r - (1.0 - delta)) / delta)

    return Mollifier(
        dimension=dimension,
        profile=profile,
        vanishing_radius=1.0 - delta,
        vanishing_order=np.inf,
        tail_type="one_minus_compact",
        name=f"annulus(delta={delta})",
    )


def constant_one_mollifier(dimension: int = 1) -> Mollifier:
    """m = 1: no regularization at all; Schur bound 1."""

    def profile(x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

    return Mollifier(
        dimension=dimension,
        profile=profile,
        vanishing_radius=0.0,
        vanishing_order=0.0,
        tail_type="one_minus_compact",
        name="one",
    )


def mollifier_from_name(spec: str) -> Mollifier:
    """Parse 'gaussian', 'complex_shift', 'annulus:delta=D', 'one' or
    'power:base=B,k=K', with B's own commas written ';'."""
    if isinstance(spec, list):  # B, which ``spec_arguments`` split at its ';'
        spec = ",".join(map(str, spec))
    return from_spec(spec, _CATALOG, "mollifier")


# -- scaling and powers ----------------------------------------------------


def scale(mollifier: Mollifier, eps: float) -> ScaledMultiplier:
    """The multiplier M_eps(s, t) = m((t - s)/eps)."""
    vanishes = mollifier.vanishing_radius > 0 or mollifier.vanishing_order > 0
    return ScaledMultiplier(mollifier.profile, float(eps), vanishes)


def multiplier_power(mollifier: Mollifier, k: int) -> Mollifier:
    """Pointwise k-th power; k = 1 returns the mollifier unchanged.

    The vanishing order multiplies by k and the certified Schur bound is the
    k-th power of the base bound (Schur norms are submultiplicative under
    pointwise products of multipliers).
    """
    if k < 1 or k != int(k):
        raise ParameterError("power must be a positive integer")
    if k == 1:
        return mollifier
    base_profile = mollifier.profile

    def profile(x):
        return base_profile(np.asarray(x, dtype=float)) ** k

    return replace(
        mollifier,
        profile=profile,
        vanishing_order=mollifier.vanishing_order * k,
        name=f"power({mollifier.name},{k})",
        base=mollifier,
        exponent=k,
    )


_CATALOG = {
    "gaussian": (gaussian_mollifier, {"n": (1, integral)}),
    "complex_shift": (complex_shift_mollifier, {}),
    "annulus": (smooth_annulus_mollifier, {"delta": (REQUIRED, float), "n": (1, integral)}),
    "one": (constant_one_mollifier, {"n": (1, integral)}),
    "power": (multiplier_power,
              {"base": (REQUIRED, mollifier_from_name), "k": (REQUIRED, integral)}),
}


# -- transform-side estimates ----------------------------------------------


def _grid(
    dimension: int,
    half_width: float | None,
    points: int | None,
    tail_type: str = "one_minus_compact",
) -> tuple[float, int]:
    """The fine grid (L, M), with the default for the dimension and tail
    type wherever half_width or points is None."""
    # Slowly decaying transforms need a very wide sampling window; the dual
    # grid stays adequate because its spacing is pi / half_width.
    wide = tail_type == "one_minus_integrable" and dimension == 1
    L0, M0 = (16384.0, 2**19) if wide else (16.0, _DEFAULT_POINTS.get(dimension, 64))
    return (
        L0 if half_width is None else float(half_width),
        M0 if points is None else int(points),
    )


def _fft_in_place(a, axis: int = -1) -> None:
    """``a[...] = np.fft.fft(a, axis=axis, norm="forward")``, in place where
    NumPy's FFT takes ``out=`` (NumPy >= 2.0)."""
    try:
        np.fft.fft(a, axis=axis, norm="forward", out=a)
    except TypeError:  # NumPy 1.x: no out= argument
        a[...] = np.fft.fft(a, axis=axis, norm="forward")


def _keep_nonzero_rows(part, start: int, kept: list) -> None:
    """Append to ``kept`` the rows of ``part``, a block of one real plane
    from first-axis row ``start`` on, that hold a nonzero: their indices and
    their transform along every other axis, the last one by ``rfft``,
    flattened per row.  Lines that are all zeros are not transformed."""
    nonzero = np.flatnonzero(part.reshape(len(part), -1).any(axis=1))
    if not nonzero.size:
        return
    rows = part[nonzero]
    busy = rows.any(axis=-1)
    slab = np.zeros(busy.shape + (rows.shape[-1] // 2 + 1,), complex)
    slab[busy] = np.fft.rfft(rows[busy], norm="forward")
    for axis in range(slab.ndim - 2, 0, -1):  # as rfftn, the last axes first
        lines = np.moveaxis(slab, axis, -1)
        busy = lines.any(axis=-1)
        picked = lines[busy]
        _fft_in_place(picked)
        lines[busy] = picked
    kept.append((start + nonzero, slab.reshape(len(nonzero), -1)))


def _add_rows(planes: list, part, start: int, points: int, dimension: int) -> None:
    """Add ``part``, a block of one component from first-axis row ``start``
    on, to the component's ``planes``: its real plane, and from its first
    complex block on its imaginary plane.  In 1-D a plane is a float array
    of all M samples, else a list of ``_keep_nonzero_rows``."""
    values = (part.real, part.imag) if np.iscomplexobj(part) else (part,)
    while len(planes) < len(values):
        planes.append(np.zeros(points) if dimension == 1 else [])
    for plane, value in zip(planes, values):
        if dimension == 1:
            plane[start : start + len(value)] = value
        else:
            _keep_nonzero_rows(value, start, plane)


def _first_axis_block(kept: list, points: int, columns: slice):
    """The transform along the first axis of ``columns`` of the rows in
    ``kept``, with zeros on every other row: one contiguous line of M per
    column."""
    block = np.zeros((columns.stop - columns.start, points), complex)
    for rows, data in kept:
        block[:, rows] = data[:, columns].T
    _fft_in_place(block)
    return block


def _terms(planes: list, half_width: float, points: int, dimension: int):
    """The terms of one component's half spectrum, one column block at a
    time: (moduli, counts, radius2).  ``moduli`` holds one line per column,
    its M first-axis coefficients (one in 1-D); each stands for ``counts``
    (one per line) coefficients of the whole spectrum, and ``radius2()``
    gives |x|^2 at their dual grid points, on the axes 2 pi fftfreq(M, ds)
    of spacing pi / L.  ``planes`` holds the component's real plane, and its
    imaginary plane when it has one, as ``_sample`` left them."""
    M, N, H = points, dimension, points // 2 + 1
    shape = (M,) * max(N - 2, 0) + (H,)  # the flattened columns
    rows = (np.arange(M),) if N > 1 else ()
    if N == 1:  # each sample array is freed as soon as it is transformed
        planes = [np.fft.rfft(planes.pop(0), norm="forward") for _ in range(len(planes))]

    def block(columns: slice):  # a frame of its own, freed with the block
        if N == 1:
            parts = [plane[columns, None] for plane in planes]
        else:
            parts = [_first_axis_block(kept, M, columns) for kept in planes]

        def radius2():
            cut = np.unravel_index(np.arange(columns.start, columns.stop), shape)
            index = rows + tuple(i[:, None] for i in cut)
            return sum((np.minimum(i, M - i) * (math.pi / half_width)) ** 2 for i in index)

        # every column but c = 0 and c = M/2 mirrors to one that is not stored
        paired = np.ones((columns.stop - columns.start, 1))
        for c in (0, M // 2) if M % 2 == 0 else (0,):
            paired[(c - columns.start) % H :: H] = 0.0
        if len(parts) == 1:  # a real plane's mirror coefficient is its conjugate
            yield np.abs(parts.pop()), 1.0 + paired, radius2
            return
        ib = parts.pop() * 1j  # A + iB stored
        yield np.abs(parts[0] + ib), 1.0, radius2
        ib -= parts.pop()  # its mirror has modulus |A - iB|
        yield np.abs(ib), paired, radius2

    width = max(1, kernels._CHUNK_BYTES // (16 * (M if N > 1 else 1)))
    for first in range(0, math.prod(shape), width):
        yield from block(slice(first, min(first + width, math.prod(shape))))


def _sample(f: Callable, half_width: float, points: int, dimension: int) -> list:
    """The planes of each component of f on the grid of ``_moduli``, as
    ``_add_rows`` keeps them, sampled one block of first-axis rows at a
    time."""
    L, M, N = half_width, points, dimension
    ds = 2.0 * L / M
    step = max(1, kernels._CHUNK_BYTES // (16 * N * M ** (N - 1)))
    others = [-L + ds * np.arange(M) for _ in range(N - 1)]
    trailing = planes = None
    for start in range(0, M, step):
        rows = -L + ds * np.arange(start, min(start + step, M))
        mesh = np.meshgrid(rows, *others, indexing="ij", copy=False)
        vals = np.asarray(f(np.moveaxis(np.stack(mesh), 0, -1)))
        if trailing is None:
            trailing = vals.shape[N:]
        if vals.shape != (len(rows),) + (M,) * (N - 1) + trailing or len(trailing) > 1:
            raise ParameterError("profile did not vectorize to the grid shape")
        parts = np.moveaxis(vals, -1, 0) if trailing else vals[None]
        if planes is None:
            planes = [[] for _ in parts]
        for component, part in zip(planes, parts):
            _add_rows(component, part, start, M, N)
        del vals, parts, part  # freed before the next block is sampled
    return planes


def _moduli(f: Callable, dimension: int, half_width: float, points: int):
    """Per component of f on the grid -L + ds * k (k = 0 .. M-1) of [-L,
    L)^N, ds = 2L/M: its half spectrum as ``_terms``, a generator consumed
    before the next component's is yielded.

    The half spectrum is ``np.fft.rfftn(samples, norm="forward")`` of each
    real plane, M // 2 + 1 columns on the last axis; every other
    coefficient of the whole ``fftn`` mirrors a stored one, so sums over
    moduli read it off the stored ones.  f is evaluated on blocks of
    first-axis rows whose values, with up to N complex components, take
    about ``kernels._CHUNK_BYTES``.  A block is coordinate-major, every
    coordinate one contiguous array, so profiles work on whole planes; f
    must be elementwise, scalar or vector valued on one trailing axis, and
    may turn complex on a later block.  In 1-D the samples go into one
    float array per plane, transformed whole.  Above 1-D only the grid rows
    that hold a nonzero are kept, transformed along every axis but the
    first, and the first-axis transform runs one block of columns at a
    time.  Every line gets the same 1-D transform of the same values as
    under rfftn, and a skipped line differs only in the sign of its zeros,
    so a real plane's moduli are those of rfftn.
    """
    L, M = float(half_width), int(points)
    if not (math.isfinite(L) and L > 0 and M > 1):
        raise ParameterError("need a finite positive half_width and at least 2 points")
    planes = _sample(f, L, M, dimension)
    while planes:
        yield _terms(planes.pop(0), L, M, dimension)


def _l1_norm(terms, half_width: float, dimension: int) -> float:
    """||rho||_1 from one component's ``_terms``: sum_j |ifftn_j|."""
    return float(sum(np.sum(moduli * counts) for moduli, counts, _ in terms))


def _weighted_l2(terms, half_width: float, dimension: int, smoothness: int) -> float:
    """||(1 + |x|^k) rho||_2 from one component's ``_terms``; the weight is
    even, so a mirror coefficient shares its column's weight."""
    total = 0.0
    for moduli, counts, radius2 in terms:
        w = radius2()  # one block of weights, then w * moduli, in place
        np.sqrt(w, out=w)
        w **= smoothness
        w += 1.0
        w *= moduli
        np.square(w, out=w)
        w *= counts
        total += np.sum(w)
    return (half_width / math.pi) ** (dimension / 2) * math.sqrt(total)


def _two_resolutions(
    f: Callable,
    dimension: int,
    half_width: float,
    points: int,
    functional: Callable = _l1_norm,
) -> tuple[float, float]:
    """``functional(terms, L, N)`` of f on the (L, M) and (L/2, M/4) grids.

    f is scalar-valued, or vector-valued with one trailing component axis;
    each component is transformed as its own array.  Returns (the sum of the
    fine values, the sum of twice each component's fine - coarse gap).
    """
    values = []
    for L, M in ((half_width, points), (half_width / 2.0, max(points // 4, 2))):
        values.append([functional(terms, L, dimension) for terms in _moduli(f, dimension, L, M)])
    fine, coarse = values
    return sum(fine), sum(2.0 * abs(a - b) for a, b in zip(fine, coarse))


def wiener_norm(
    f: Callable,
    dimension: int,
    half_width: float | None = None,
    points: int | None = None,
) -> tuple[float, float]:
    """L1 norm of the inverse transform of f, with a two-resolution error bar.

    On each grid the norm is sum_j |ifftn(samples)_j|: rho's normalization
    (L/pi)^N cancels the dual cell volume (pi/L)^N, and its end-point phase
    has modulus 1.  The sampling window [-L, L) determines the dual grid
    spacing pi / L, and the point count M the dual range pi M / (2 L).  The
    coarse run uses (L/2, M/4) so that all three discretization knobs --
    window, dual spacing, dual range -- degrade at once; the doubled
    disagreement is the error estimate.  A vector-valued f (components on a
    trailing axis) gets the sum of its components' L1 norms and the sum of
    their error estimates, each component transformed on its own.  Returns
    (estimate, error_estimate).
    """
    return _two_resolutions(f, dimension, *_grid(dimension, half_width, points))


def schur_bound(
    mollifier: Mollifier,
    half_width: float | None = None,
    points: int | None = None,
) -> SchurBound:
    """Certified Schur bound 1 + ||inverse transform of (1 - m)||_1.

    Declared powers use the product rule (base bound raised to the power)
    rather than transforming the powered profile.  Two DFT resolutions that
    disagree by more than ``_INSTABILITY_TOL`` relative error make the
    estimate unreliable and raise instead of returning a number.
    """
    if mollifier.exponent > 1 and mollifier.base is not None:
        base = schur_bound(mollifier.base, half_width, points)
        k = mollifier.exponent
        err = k * base.bound ** (k - 1) * base.error_estimate
        return SchurBound(base.bound**k, base.method, base.grid, err)

    L, M = _grid(mollifier.dimension, half_width, points, mollifier.tail_type)
    value, err = wiener_norm(mollifier.tail, mollifier.dimension, L, M)
    _refuse_unstable(mollifier, value, err)
    return SchurBound(1.0 + value, "wiener_dft", (L, M), err)


def _refuse_unstable(mollifier: Mollifier, value: float, err: float) -> None:
    """Raise when two resolutions disagree by more than ``_INSTABILITY_TOL``."""
    if err > _INSTABILITY_TOL * max(value, 1e-12):
        coarse = value - err  # sign is irrelevant for the report
        raise UnreliableEstimateError(
            f"transform grid is unstable for {mollifier.name}: fine {value}, "
            f"disagreement {err}",
            fine=value,
            coarse=coarse,
        )


def bound_reproduces(fresh: float, stored: float) -> bool:
    """Recomputed and stored Schur bounds agree to 1e-9 * max(fresh, 1)."""
    return abs(fresh - stored) <= 1e-9 * max(fresh, 1.0)


def sobolev_weight_constant(dimension: int, smoothness: int) -> float:
    """C(N, k) = L2 norm of (1 + |x|^k)^(-1) over R^N; finite iff 2k > N.

    In polar coordinates, u = r^k turns the radial integral into the Beta
    integral B(a, 2 - a) = Gamma(a) Gamma(2 - a) with a = N / k, so
    C(N, k)^2 = |S^(N-1)| Gamma(a) Gamma(2 - a) / k.
    """
    if 2 * smoothness <= dimension:
        raise ParameterError("need smoothness k > N/2 for a finite constant")
    sphere_area = 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)
    a = dimension / smoothness
    return math.sqrt(sphere_area * math.gamma(a) * math.gamma(2.0 - a) / smoothness)


def sobolev_bound(
    mollifier: Mollifier,
    smoothness: int,
    half_width: float | None = None,
    points: int | None = None,
) -> SchurBound:
    """Bound 1 + C(N, k) * ||(1 + |x|^k) rho||_2 via Cauchy-Schwarz.

    Never below the direct transform-side bound of the same profile, since
    it spends an inequality to trade L1 for a weighted L2 norm.  For a
    declared power ``schur_bound`` uses the product rule instead, which can
    be larger: power(gaussian, 2) gets 4 there against about 2.67 here at
    k = 3.

    On each grid the weighted norm is (L/pi)^(N/2) sqrt(sum_j (w_j
    |ifftn_j|)^2), w_j = 1 + |x_j|^k on the dual axes 2 pi fftfreq(M, 2L/M):
    only the weight is built, one column block at a time, never rho's
    normalization or phase.  The two resolutions of the weighted norm must
    agree as in ``schur_bound``.
    """
    N = mollifier.dimension
    C = sobolev_weight_constant(N, smoothness)
    L, M = _grid(N, half_width, points, mollifier.tail_type)
    fine, err = _two_resolutions(
        mollifier.tail, N, L, M, functools.partial(_weighted_l2, smoothness=smoothness)
    )
    _refuse_unstable(mollifier, fine, err)
    return SchurBound(1.0 + C * fine, "sobolev", (L, M), C * err)


# -- moment analysis -------------------------------------------------------


# ``moment_order``: how far the density's mass may be from 1, and the |s|
# range and sample count of the log-log slope fit.
_MASS_TOLERANCE = 1e-4
_FIT_RANGE = (0.03, 0.3)
_FIT_SAMPLES = 9


@dataclass(frozen=True)
class MomentOrderReport:
    order: int
    moments: dict
    fitted_slope: float
    mass: float


def _multi_indices(dimension: int, degree: int):
    for combo in itertools.product(range(degree + 1), repeat=dimension):
        if sum(combo) == degree:
            yield combo


def midpoint_grid(half_width: float, points: int) -> tuple[np.ndarray, float]:
    """The ``points`` cell midpoints of [-half_width, half_width) and their spacing."""
    L, M = float(half_width), int(points)
    if not (math.isfinite(L) and L > 0 and M >= 2):
        raise ParameterError("need a finite positive half_width and at least 2 points")
    dx = 2.0 * L / M
    return -L + dx * (np.arange(M) + 0.5), dx


def moment_order(
    points: np.ndarray,
    values: np.ndarray,
    cell_volume: float,
    max_order: int,
    tolerance: float = 1e-6,
) -> MomentOrderReport:
    """Order of the zero of 1 - rho_hat at the origin, from moments of rho.

    ``points`` (P, N) and ``values`` (P,) sample a density whose integral
    must be 1 within ``_MASS_TOLERANCE``.  The returned order is the largest
    k' <= max_order such that every moment of order 1 .. k'-1 vanishes
    within ``tolerance`` (relative to the same-order absolute moment).  As a
    cross-check, |1 - rho_hat(s)| is fitted against |s| on a log-log grid
    along the first coordinate axis at ``_FIT_SAMPLES`` points of
    ``_FIT_RANGE``; the slope should not fall below the returned order.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    vals = np.asarray(values, dtype=float).ravel()
    if len(vals) != len(pts):
        raise ParameterError("points and values must have equal length")
    if max_order < 1:
        raise ParameterError("max_order must be at least 1")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ParameterError(f"tolerance must be finite and nonnegative, got {tolerance}")
    vol = float(cell_volume)

    mass = float(np.sum(vals) * vol)
    if not abs(mass - 1.0) <= _MASS_TOLERANCE:
        raise NormalizationError(
            f"density integrates to {mass}, expected 1 within {_MASS_TOLERANCE}"
        )

    dimension = pts.shape[1]
    moments: dict = {}
    order = max_order
    for degree in range(1, max_order):
        degree_ok = True
        scale_ref = float(
            np.sum(np.abs(vals) * np.linalg.norm(pts, axis=1) ** degree) * vol
        )
        for alpha in _multi_indices(dimension, degree):
            mono = np.prod(pts ** np.asarray(alpha), axis=1)
            m_alpha = float(np.sum(mono * vals) * vol)
            moments[alpha] = m_alpha
            if abs(m_alpha) > tolerance * (1.0 + scale_ref):
                degree_ok = False
        if not degree_ok:
            order = degree
            break

    s_grid = np.geomspace(*_FIT_RANGE, _FIT_SAMPLES)
    direction = np.zeros(dimension)
    direction[0] = 1.0
    tail_vals = []
    for s in s_grid:
        phase = np.exp(-1j * s * pts @ direction)
        rho_hat = np.sum(vals * phase) * vol
        tail_vals.append(abs(1.0 - rho_hat))
    tail_vals = np.asarray(tail_vals)
    if np.any(tail_vals <= 0):
        slope = float("inf")
    else:
        slope = float(np.polyfit(np.log(s_grid), np.log(tail_vals), 1)[0])

    return MomentOrderReport(order, moments, slope, mass)


def slope_reproduces(fresh: float, stored: float) -> bool:
    """Recomputed and stored ``fitted_slope`` values agree to 1e-9."""
    return abs(fresh - stored) <= 1e-9
