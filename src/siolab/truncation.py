"""Hard truncations, sectorial multipliers, and the smooth comparison.

The hard truncation of a kernel vanishes on the closed ball |s - t| <= eps
and agrees with the kernel outside it.  Every regularized operator here has
the kernel K(s, t) m((s - t)/eps), so K is sampled once per support pair and
each scale masks it (the hard truncation, m = 1 off the unit ball) or
reweights it (``kernels.reweight``).  Writing the indicator of (1, inf)
as m - psi, where m is the smooth annulus multiplier profile (0 up to
1 - delta, 1 from 1 on) and psi = m - 1_(1,inf) is supported on [1 - delta,
1], splits every truncated matrix entrywise into a smooth-multiplier part
and a psi part concentrated on a thin annulus.  The psi part is where the
sectorial multiplier pays off: for a kernel K = A(|x|) B(x/|x|) whose
spherical factor B stays away from zero, the multiplier M_r(s, t) =
m((t - s)/r), m(x) = B(x/|x|) C plateau_bump(|x|) (a
``mollifiers.ScaledMultiplier``, like the smooth one, of the profile
``kernels.windowed`` builds from B and the window C plateau_bump),
contracted against K gives the scalar C A |B|^2 >= |K| on the annulus
0.9 r <= |s - t| <= r, turning annulus mass into a bound by a smoothly
mollified operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # numpy loads it on first use: here, not inside a command

from .errors import (
    NotSectorializableError,
    ParameterError,
    ToleranceError,
)
from .forms import operator_norm
from .kernels import ConvolutionProfile, KernelMatrix, KernelSpec, materialize, reweight
from .kernels import windowed
from .measure import DiscreteMeasure, reject_common_atoms
from .mollifiers import ScaledMultiplier, smooth_annulus_mollifier, smooth_step
from .mollifiers import scale as scale_multiplier

__all__ = [
    "TruncationComparison",
    "truncate",
    "plateau_bump",
    "build_sectorial_multiplier",
    "sphere_infimum",
    "compare_truncations",
    "triangle_holds",
    "domination_holds",
]


def truncate(km: KernelMatrix, eps: float) -> KernelMatrix:
    """K restricted to |s - t| > eps: zero on the closed ball, K outside.

    The boundary |s - t| = eps belongs to the zero region, and distances
    are ``DiscreteMeasure.distances``, the rule every other distance here
    follows.  The sampled K is masked; no kernel is evaluated.
    """
    if not eps > 0:
        raise ParameterError("eps must be positive")
    entries = km.entries.copy(order="K")
    entries[km.mu.distances(km.nu.points) <= eps] = 0
    return replace(km, entries=entries)


def plateau_bump(u):
    """Smooth bump equal to 1 on [0.9, 1], supported inside (0.8, 1.1)."""
    u = np.asarray(u, dtype=float)
    rise = smooth_step((u - 0.8) / 0.1)
    fall = smooth_step((1.1 - u) / 0.1)
    return rise * fall


# -- sectorial multipliers ----------------------------------------------------


def _sphere_directions(dimension: int) -> np.ndarray:
    """4096 unit vectors: both directions in 1-D, equally spaced angles in
    2-D, seeded Gaussian draws normalized above."""
    if dimension == 1:
        return np.array([[1.0], [-1.0]])
    if dimension == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    raw = np.random.default_rng(0).standard_normal((4096, dimension))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def sphere_infimum(spherical, dimension: int) -> float:
    """min |B| for a spherical factor B over ``_sphere_directions``."""
    values = np.asarray(spherical(_sphere_directions(dimension)))
    if values.ndim == 1:
        values = values[:, None]
    return float(np.min(np.linalg.norm(values, axis=1)))


def build_sectorial_multiplier(profile, r: float, dimension: int) -> ScaledMultiplier:
    """Annulus multiplier dominating |K| for a kernel with spherical factor B.

    ``profile`` is either a kernel's ConvolutionProfile (its spherical part
    is used) or a callable on unit vectors.  Returns m((t - s)/r) with
    m = ``kernels.windowed(B, C * plateau_bump)``, that is m(x) =
    B(x/|x|) * C * plateau_bump(|x|) and m(0) = 0, valued like B:
    contracting it against an m-vector kernel K = A * B gives the scalar
    C * plateau_bump * A * |B|^2 >= |K| wherever the bump is 1 and
    |B| >= 1/C.  C is the maximum of 1/|B| over 4096 sphere directions; B
    vanishing anywhere within 1e-12 means no single direction can see the
    whole profile, and the construction refuses.
    """
    spherical = profile.spherical if isinstance(profile, ConvolutionProfile) else profile
    smallest = sphere_infimum(spherical, dimension)
    if smallest <= 1e-12:
        raise NotSectorializableError(
            f"spherical profile magnitude drops to {smallest} on the sphere; "
            "no direction can dominate the kernel"
        )
    C = 1.0 / smallest
    return ScaledMultiplier(windowed(spherical, lambda u: C * plateau_bump(u)), float(r), True)


# -- hard-vs-smooth comparison ------------------------------------------------


@dataclass(frozen=True)
class TruncationComparison:
    """Operator norms of the hard, smooth, and annulus parts at one scale.

    ``domination_margin`` is the minimum of (x0 <M_eps K> - kappa |K|) / |K|
    over the support pairs in the annulus 0.9 eps <= |s - t| <= eps (pairs
    with K = 0 count as 0; infinite when the supports produce no such
    pair); nonnegative margin certifies the sectorial domination used to
    bound the psi part.  The contractions <M_eps K> are scalars, so x0 is a
    sign and ``kappa`` is +1 or -1 (``_sign_rule``).  Every catalog kernel
    has |B| = 1 on the sphere, so the margin is zero in exact arithmetic and
    its sign is rounding, which ``domination_holds`` allows for.
    """

    eps: float
    norm_truncated: float
    norm_smooth: float
    norm_psi_part: float
    domination_margin: float
    kappa: float
    annulus_pairs: int
    p: float


def _entry_magnitudes(entries: np.ndarray) -> np.ndarray:
    """|K| per support pair; vector entries take the Euclidean length."""
    return np.linalg.norm(entries, axis=-1) if entries.ndim == 3 else np.abs(entries)


def compare_truncations(
    kernel: KernelSpec,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float = 2.0,
    eps_list=(1.0,),
    delta: float = 0.1,
) -> list:
    """Hard truncation vs smooth annulus mollification at each scale.

    K is sampled once, with zero on coincident pairs; at each eps the hard
    truncation masks it (``truncate``), the m(|s - t|/eps)-mollified kernel
    reweights it (``kernels.reweight``), and their difference is the psi
    part, supported on the annulus [1 - delta, 1] * eps.  The psi entries
    are checked against chi(|s-t|/eps) |K| entrywise, the split identity
    hard + psi = smooth holds exactly by construction, and the triangle
    inequality norm_truncated <= norm_smooth + norm_psi is asserted at
    p = 2.  When the kernel carries a spherical profile, the sectorial
    multiplier at scale eps is sampled on the annulus 0.9 eps <= |s - t| <=
    eps and the domination margin over kappa |K| is reported.
    """
    reject_common_atoms(mu, nu)
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    eps_list = list(eps_list)
    if not (eps_list and all(0 < eps < math.inf for eps in eps_list)):
        raise ParameterError("eps_list must contain finite positive scales")
    annulus = smooth_annulus_mollifier(delta, dimension=kernel.dimension)

    distance = mu.distances(nu.points)
    km = materialize(kernel, mu, nu, diagonal_policy=0.0)
    kernel_mags = _entry_magnitudes(km.entries)
    # one sectorial multiplier, rescaled per eps: C = 1 / min |B| fits every scale
    sectorial = None if kernel.profile is None else build_sectorial_multiplier(
        kernel.profile, 1.0, dimension=kernel.dimension
    )

    reports = []
    for eps in eps_list:
        hard = truncate(km, eps)
        smooth = reweight(km, scale_multiplier(annulus, eps))
        psi = replace(smooth, entries=smooth.entries - hard.entries)

        # |psi K| <= chi(|s-t|/eps) |K| entrywise, chi = 1_{[1-delta, 1]}
        scaled = distance / eps
        chi = (scaled >= 1.0 - delta) & (scaled <= 1.0)
        full_mags = np.where(chi, kernel_mags, 0.0)
        if np.any(_entry_magnitudes(psi.entries) > full_mags + 1e-12):
            raise ToleranceError(
                "psi part exceeds chi * |K| on some entry; the annulus "
                "profile is inconsistent with the truncation boundary"
            )

        value_hard = operator_norm(hard, p).value
        value_smooth = operator_norm(smooth, p).value
        value_psi = operator_norm(psi, p).value
        if p == 2.0 and not triangle_holds(value_hard, value_smooth, value_psi):
            raise ToleranceError(
                f"triangle inequality violated at eps={eps}: {value_hard} > "
                f"{value_smooth} + {value_psi}"
            )

        margin, kappa, pairs = _domination_margin(
            sectorial, mu, nu, eps, distance, km.entries
        )
        reports.append(
            TruncationComparison(
                eps=float(eps),
                norm_truncated=value_hard,
                norm_smooth=value_smooth,
                norm_psi_part=value_psi,
                domination_margin=margin,
                kappa=kappa,
                annulus_pairs=pairs,
                p=float(p),
            )
        )
    return reports


def triangle_holds(hard: float, smooth: float, psi: float) -> bool:
    """hard <= smooth + psi, the split identity's triangle inequality, with
    slack 1e-9 * max(hard, 1)."""
    return hard <= smooth + psi + 1e-9 * max(hard, 1.0)


def domination_holds(margin: float, kappa: float, value_dim: int) -> bool:
    """Whether a ``TruncationComparison``'s margin and kappa certify
    x0 <M_eps K> >= |K| on its annulus pairs: kappa = 1 and margin >=
    -4 (m + 1) eps_mach, m = ``value_dim``.  The allowance is rounding:
    <M_eps K> and |K| evaluate the spherical factor along two paths and sum
    m products or squares each.  On Cauchy, Ahlfors-Beurling and Riesz
    kernels in 2 and 3 dimensions the margins lie in [-1, 2.8] eps_mach."""
    return kappa == 1.0 and margin >= -4.0 * (value_dim + 1) * np.finfo(float).eps


def _domination_margin(sectorial, mu, nu, eps, distance, kernel_values):
    """Min of (x0 <M_eps K> - kappa |K|) / |K| over annulus support pairs,
    x0 = +-1 the best sign for the scalars <M_eps K>, K read from
    ``kernel_values`` and M_eps the ``sectorial`` multiplier at r = eps
    (None: no profile).  Where K = 0 so is <M_eps K>, and the entry is 0."""
    if sectorial is None:
        return math.nan, math.nan, 0
    annulus_mask = (distance >= 0.9 * eps) & (distance <= eps)
    rows, cols = np.nonzero(annulus_mask)
    if len(rows) == 0:
        return math.inf, math.nan, 0
    multiplier = replace(sectorial, eps=float(eps))
    # one column per component, so scalar kernels take the same path
    kernel_values = kernel_values[rows, cols].reshape(len(rows), -1)
    mult_values = np.asarray(multiplier(nu.points[rows], mu.points[cols]))
    mult_values = mult_values.reshape(len(rows), -1)
    dominated = np.sum(mult_values * kernel_values, axis=-1)
    x0, kappa = _sign_rule(dominated)
    kernel_mags = np.linalg.norm(kernel_values, axis=-1)
    excess = dominated * x0 - kappa * kernel_mags
    margin = float(np.min(
        np.divide(excess, kernel_mags, out=np.zeros_like(excess), where=kernel_mags > 0)
    ))
    return margin, kappa, int(len(rows))


def _sign_rule(samples: np.ndarray) -> tuple[float, float]:
    """The sign x0 = +-1 maximizing kappa = min x0 sign(d) over the nonzero
    scalars d, and that kappa: x0 = -1 only when every nonzero d is negative,
    so ties (mixed signs, kappa = -1) go to +1."""
    signs = np.sign(samples[samples != 0])
    if signs.size == 0:
        raise ParameterError("all samples are zero vectors")
    x0 = -1.0 if np.all(signs < 0) else 1.0
    return x0, float(np.min(x0 * signs))
