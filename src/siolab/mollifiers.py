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
``schur_bound`` and ``sobolev_bound`` all go through it.  It keeps only the
grid rows that hold a nonzero, so a bound holds their partial transforms
and one float modulus: the 2-vector Cauchy window on the 1024^2 grid of
[-24, 24)^2, zero for |x| >= 3, keeps 129 rows (2 MiB per component) beside
an 8 MiB modulus, where whole samples, transform and modulus took 16, 16
and 8 MiB.

The transform convention is rho_hat(s) = integral of rho(x) e^{-i s.x} dx.
"""

from __future__ import annotations

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
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly monotone between."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        left = np.where(u > 0, np.exp(-1.0 / np.where(u > 0, u, 1.0)), 0.0)
        right = np.where(
            u < 1, np.exp(-1.0 / np.where(u < 1, 1.0 - u, 1.0)), 0.0
        )
    out = np.where(u <= 0, 0.0, np.where(u >= 1, 1.0, left / (left + right)))
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
    """Parse 'gaussian', 'complex_shift', 'annulus:delta=D', 'one' or 'power:base=B,k=K'."""
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


def _ifft_in_place(a, axis: int = -1) -> None:
    """``a[...] = np.fft.ifft(a, axis=axis)``, in place where NumPy's FFT
    takes ``out=`` (NumPy >= 2.0)."""
    try:
        np.fft.ifft(a, axis=axis, out=a)
    except TypeError:  # NumPy 1.x: no out= argument
        a[...] = np.fft.ifft(a, axis=axis)


def _keep_nonzero_rows(part, start: int, kept: list) -> None:
    """Append to ``kept`` the rows of ``part``, a block of one component
    from first-axis row ``start`` on, that hold a nonzero: their indices and
    their transform along every other axis, flattened per row.  Lines that
    are all zeros are not transformed."""
    nonzero = np.flatnonzero(part.reshape(len(part), -1).any(axis=1))
    if not nonzero.size:
        return
    slab = part[nonzero].astype(complex)
    for axis in range(slab.ndim - 1, 0, -1):  # as ifftn, the last axis first
        lines = np.moveaxis(slab, axis, -1)
        busy = lines.any(axis=-1)
        picked = lines[busy]
        _ifft_in_place(picked)
        lines[busy] = picked
    kept.append((start + nonzero, slab.reshape(len(nonzero), -1)))


def _first_axis_pass(kept: list, modulus) -> None:
    """|ifft| along the first axis of the rows in ``kept`` and zeros on every
    other row, written into ``modulus`` one block of columns at a time."""
    columns = modulus.reshape(len(modulus), -1)
    width = max(1, kernels._CHUNK_BYTES // (16 * len(modulus)))
    for first in range(0, columns.shape[1], width):
        block = columns[:, first : first + width]
        buf = np.zeros(block.shape, complex)
        for rows, data in kept:
            buf[rows] = data[:, first : first + width]
        _ifft_in_place(buf, axis=0)
        np.abs(buf, out=block)


def _moduli(f: Callable, dimension: int, half_width: float, points: int):
    """|np.fft.ifftn| of each component of f on the grid -L + ds * k
    (k = 0 .. M-1) of [-L, L)^N, ds = 2L/M: one float array, yielded once
    per component and overwritten by the next.

    f is evaluated on blocks of first-axis rows whose complex values, with
    up to N components, take about ``kernels._CHUNK_BYTES``.  A block is
    coordinate-major, every coordinate one contiguous array, so profiles
    work on whole planes; f must be elementwise, scalar or vector valued on
    one trailing axis.  In 1-D the samples go straight into the complex
    array transformed in place.  Above 1-D neither the sample grid nor its
    transform is held whole.  Every line gets the same 1-D transform of the
    same values as under ifftn, and a skipped line differs only in the sign
    of its zeros, so the moduli are equal.
    """
    L, M, N = float(half_width), int(points), dimension
    if not (math.isfinite(L) and L > 0 and M > 1):
        raise ParameterError("need a finite positive half_width and at least 2 points")
    ds = 2.0 * L / M
    step = max(1, kernels._CHUNK_BYTES // (16 * N * M ** (N - 1)))
    others = [-L + ds * np.arange(M) for _ in range(N - 1)]
    trailing = kept = None
    for start in range(0, M, step):
        rows = -L + ds * np.arange(start, min(start + step, M))
        mesh = np.meshgrid(rows, *others, indexing="ij", copy=False)
        vals = np.asarray(f(np.moveaxis(np.stack(mesh), 0, -1)))
        if trailing is None:
            trailing = vals.shape[N:]
        if vals.shape != (len(rows),) + (M,) * (N - 1) + trailing or len(trailing) > 1:
            raise ParameterError("profile did not vectorize to the grid shape")
        parts = np.moveaxis(vals, -1, 0) if trailing else vals[None]
        if kept is None:
            kept = [np.empty(M, complex) if N == 1 else [] for _ in parts]
        for j, component in enumerate(kept):
            if N == 1:
                component[start : start + len(rows)] = parts[j]
            else:
                _keep_nonzero_rows(parts[j], start, component)
        del vals, parts  # freed before the next block is sampled
    modulus = np.empty((M,) * N)
    while kept:
        component = kept.pop(0)
        if N == 1:
            _ifft_in_place(component)
            np.abs(component, out=modulus)
        else:
            _first_axis_pass(component, modulus)
        del component  # freed before the functional reads the modulus
        yield modulus


def _l1_norm(modulus, half_width: float) -> float:
    """||rho||_1 from a modulus of ``_moduli``: sum_j |ifftn_j|."""
    return float(np.sum(modulus))


def _weighted_l2(modulus, half_width: float, smoothness: int) -> float:
    """||(1 + |x|^k) rho||_2 from a modulus of ``_moduli``."""
    N, M = modulus.ndim, modulus.shape[0]
    axis_x = 2.0 * np.pi * np.fft.fftfreq(M, d=2.0 * half_width / M)
    mesh = np.meshgrid(*([axis_x] * N), indexing="ij", sparse=True)
    w = sum(m**2 for m in mesh)  # the one full-grid array beside the modulus
    np.sqrt(w, out=w)
    w **= smoothness
    w += 1.0
    w *= modulus
    return (half_width / math.pi) ** (N / 2) * math.sqrt(np.sum(np.square(w, out=w)))


def _two_resolutions(
    f: Callable,
    dimension: int,
    half_width: float,
    points: int,
    functional: Callable = _l1_norm,
) -> tuple[float, float]:
    """``functional(|ifftn|, L)`` of f on the (L, M) and (L/2, M/4) grids.

    f is scalar-valued, or vector-valued with one trailing component axis;
    each component is transformed as its own array.  Returns (the sum of the
    fine values, the sum of twice each component's fine - coarse gap).
    """
    values = []
    for L, M in ((half_width, points), (half_width / 2.0, max(points // 4, 2))):
        values.append([functional(mod, L) for mod in _moduli(f, dimension, L, M)])
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
    if err > _INSTABILITY_TOL * max(value, 1e-12):
        coarse = value - err  # sign is irrelevant for the report
        raise UnreliableEstimateError(
            f"transform grid is unstable for {mollifier.name}: fine {value}, "
            f"disagreement {err}",
            fine=value,
            coarse=coarse,
        )
    return SchurBound(1.0 + value, "wiener_dft", (L, M), err)


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
    only the weight is built, never rho's normalization or phase.
    """
    N = mollifier.dimension
    C = sobolev_weight_constant(N, smoothness)
    L, M = _grid(N, half_width, points, mollifier.tail_type)
    fine, err = _two_resolutions(
        mollifier.tail, N, L, M, lambda mod, Lc: _weighted_l2(mod, Lc, smoothness)
    )
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
