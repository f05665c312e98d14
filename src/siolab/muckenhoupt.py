"""Two-weight ball-growth constants and the blow-up experiment tying them
to restricted operator norms.

The scanned quantity for a measure pair (mu, nu) at exponent p and order
alpha is

    value(c, r) = (2 r)^(-alpha) * mu(S)^(1/p') * nu(S)^(1/p),

where the scanned set S is the open Euclidean ball of diameter r centered
at c, and p' is the conjugate exponent.  The scan parameter r plays the
role of the ball diameter; the prefactor uses 2r throughout.  This
convention is stated in every report (``BALL_CONVENTION``) because the
prefactor normalization is the one ambiguity that moves the reported
numbers: it rescales every constant by the same power of two, so suprema,
witnesses, scaling laws and p-independence are unaffected by it.

The blow-up experiment takes a kernel factored as K(s, t) = A(|x|) B(x)
with x = t - s, where B is homogeneous of order d and bounded away from
zero on the unit sphere, and A(r) >= r^(-d-alpha).  Multiplying entrywise
by m(x/eps), the ``mollifiers.ScaledMultiplier`` of ``window_profile``'s
m(x) = B(x) w(|x|) (w a smooth window equal to 1 on [0, 2] and vanishing
beyond 3), produces a kernel whose entries are real and at least
C' eps^(-alpha) on every pair at distance <= 2 eps, with
C' = C^2 2^(d-alpha) and C the sphere infimum of |B|.  Pairing indicators
of a ball against that kernel chains the ball-growth value to a Schur
bound times a restricted-norm estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ParameterError,
    ProfileBoundError,
    ToleranceError,
    UsageError,
)
from .forms import (
    NormEstimate,
    dual_exponent,
    lp_norm,
    operator_norm,
    # not called here: perfbench's tracer test checks that a name bound by
    # ``from .forms import`` is rebound when ``forms.operator_norm_p2`` is traced
    operator_norm_p2,  # noqa: F401
    restricted_norm,
)
from .kernels import ConvolutionProfile, KernelSpec, materialize, reweight, windowed
from .measure import (
    DiscreteMeasure,
    _point_ids,
    close_pairs,
    closest_gap,
    pairwise_distances,
    reject_common_atoms,
    shared_point_indices,
)
from .mollifiers import ScaledMultiplier, smooth_step, wiener_norm
from .truncation import sphere_infimum

__all__ = [
    "BALL_CONVENTION",
    "MuckenhouptReport",
    "ball_value",
    "ap_alpha_constant",
    "witness_reproduces",
    "window_profile",
    "NecessityBallCheck",
    "NecessityReport",
    "necessity_experiment",
    "pointwise_holds",
    "chain_holds",
]

BALL_CONVENTION = (
    "value(c, r) = (2r)^(-alpha) * mu(S)^(1/p') * nu(S)^(1/p) with "
    "S = {x : |x - c| < r/2}, the open ball of diameter r"
)

_RADIUS_RATIO = np.sqrt(2.0)


# -- ball-growth constant ---------------------------------------------------


@dataclass(frozen=True)
class MuckenhouptReport:
    """Supremum of the scanned ball values and the ball attaining it.

    ``witness_ball`` is (center, r) with r the scan parameter (the ball
    diameter); re-evaluating it through :func:`ball_value` reproduces
    ``constant`` to relative 1e-12.  ``scan`` records how the center and
    radius grids were chosen, and ``convention`` restates the prefactor
    normalization so the number is self-describing.
    """

    constant: float
    witness_ball: tuple[tuple[float, ...], float]
    scan: dict
    p: float
    alpha: float
    convention: str = BALL_CONVENTION


def ball_value(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    center,
    r: float,
    p: float,
    alpha: float,
) -> float:
    """Evaluate one scanned ball: (2r)^(-alpha) mu(S)^(1/p') nu(S)^(1/p)."""
    q = dual_exponent(p)
    if not r > 0:
        raise ParameterError("scan parameter r must be positive")
    if not alpha > 0:
        raise ParameterError("alpha must be positive")
    m = mu.mass_in_ball(center, r / 2.0)
    n = nu.mass_in_ball(center, r / 2.0)
    return float((2.0 * r) ** (-alpha) * m ** (1.0 / q) * n ** (1.0 / p))


def _combined_support(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    pts = [m.points for m in (mu, nu) if len(m)]
    if not pts:
        raise UsageError("cannot scan balls over empty supports")
    return _point_ids(*pts)[0]  # the distinct rows, sorted


def _default_centers(support: np.ndarray, d_min: float) -> np.ndarray:
    """Support points plus midpoints of near-pairs: the first
    4 * len(support), in (i, j) order, of the pairs ``measure.close_pairs``
    finds within twice the minimum pairwise distance ``d_min``."""
    i, j = close_pairs(support, 2.0 * d_min * (1.0 + 1e-12))
    i, j = i[: 4 * len(support)], j[: 4 * len(support)]
    if not len(i):
        return support
    return np.vstack([support, 0.5 * (support[i] + support[j])])


def _default_radii(support: np.ndarray, d_min: float) -> np.ndarray:
    """Geometric grid, ratio sqrt(2), from the minimum pairwise distance
    ``d_min`` (``measure.closest_gap`` of the support) up to twice the
    bounding-box diagonal (so a covering ball is included)."""
    if len(support) < 2:
        raise UsageError(
            "fewer than two distinct support points: provide explicit radii"
        )
    diag = float(np.linalg.norm(support.max(axis=0) - support.min(axis=0)))
    top = 2.0 * diag
    radii = [d_min]
    while radii[-1] < top:
        radii.append(radii[-1] * _RADIUS_RATIO)
    return np.asarray(radii)


# Bytes of distance and bin scratch one chunk of centers may hold in
# _ball_masses; the scan's memory is this plus the (centers, radii) tables.
_SCAN_BYTES = 8 * 2**20

# The lowest float of each bucket of non-negative floats sharing their top 14
# bits (sign, exponent and two mantissa bits): d.view(np.int64) >> 50 names
# d's bucket, and a bucket's floats lie within a factor 1.25 of each other.
_BUCKET_LOWS = (np.arange(2**13, dtype=np.int64) << 50).view(float)


def _binner(rho: np.ndarray):
    """``bins(d)`` = ``np.searchsorted(rho, d, "right")`` for the ascending
    radii rho and distances d >= 0 or NaN, read off d's float bits.

    A bucket's bin is that of its lowest float; a binary search over the
    radii strictly inside the bucket then counts those at most d, in one
    comparison pass per halving step, as many as the fullest bucket needs.
    rho is padded with NaN for the steps to overshoot into, which no
    distance reaches, +inf included.  A NaN with its sign bit set has a
    negative bucket, and "wrap" sends it to the NaN buckets at the top.
    """
    lo = np.searchsorted(rho, _BUCKET_LOWS, "right")
    span = int(np.max(np.searchsorted(rho, _BUCKET_LOWS[1:], "left") - lo[:-1]))
    steps = [1 << j for j in reversed(range(span.bit_length()))]
    padded = np.concatenate([rho, np.full(span, np.nan)])

    def bins(d: np.ndarray) -> np.ndarray:
        found = lo.take(d.view(np.int64) >> 50, mode="wrap")
        for step in steps:
            found += step * (d >= padded[step - 1 :][found])
        return found

    return bins


def _ball_masses(
    m: DiscreteMeasure, centers: np.ndarray, rho: np.ndarray
) -> np.ndarray:
    """Table of m({x : |x - centers[j]| < rho[k]}), shape (centers, radii).

    Distances come from :meth:`DiscreteMeasure.distances`, as in
    :meth:`DiscreteMeasure.mass_in_ball`, so every ``d < rho[k]`` test has
    the same outcome there.  With rho ascending, a point at distance d lies
    in ball k exactly when k is at least d's bin, the number of radii at
    most d.  :func:`_binner` reads the bin off d's float bits and a few
    comparisons, exactly as ``searchsorted(rho, d, "right")`` finds it; one
    weighted bincount over (center, bin) and a cumsum over the bins then
    give every radius at once, without sorting.
    """
    bins_per_center = len(rho) + 1
    out = np.zeros((len(centers), len(rho)))
    if not len(m):
        return out
    bins_of = _binner(rho)
    # per (center, point) at most 33 bytes are live at once, in bins_of: the
    # last chunk's bins, the distance, its bin, the radius gathered at the
    # bin or the step added (8 bytes each) and the comparison mask
    chunk = max(1, _SCAN_BYTES // (40 * len(m)))
    for start in range(0, len(centers), chunk):
        block = centers[start : start + chunk]
        bins = bins_of(m.distances(block))
        bins += bins_per_center * np.arange(len(block))[:, None]
        hist = np.bincount(
            bins.ravel(),
            weights=np.tile(m.weights, len(block)),
            minlength=len(block) * bins_per_center,
        ).reshape(len(block), bins_per_center)
        out[start : start + len(block)] = np.cumsum(hist, axis=1)[:, :-1]
    return out


def ap_alpha_constant(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    alpha: float,
    centers=None,
    radii=None,
) -> MuckenhouptReport:
    """Maximum of :func:`ball_value` over a finite scan of (center, r).

    Defaults anchor the centers at the support points of mu and nu plus
    midpoints of near-pairs, and place the radii on a geometric grid from
    the minimum pairwise support distance up to a covering scale; both come
    from the exact neighbour search of ``measure``, under the distance rule
    of ``pairwise_distances``.  An explicitly empty grid raises
    ``UsageError``, and a center that is not finite ``ParameterError``.

    Every (center, radius) value goes into one table, filled a chunk of
    centers at a time so that the distance scratch stays within
    ``_SCAN_BYTES`` (8 MiB) whatever the number of points.  The entries
    within rounding of the table's maximum are re-evaluated with
    :func:`ball_value` in scan order (radii ascending, then centers in
    listed order), and the witness is the first one attaining the largest
    re-evaluated value.  So ties are broken by that order alone, not by the
    chunking, and ``constant`` is exactly ``ball_value`` of the witness.
    """
    q = dual_exponent(p)
    if not alpha > 0:
        raise ParameterError("alpha must be positive")
    if len(mu) and len(nu) and mu.dimension != nu.dimension:
        raise ParameterError("measures must share a dimension")

    support = _combined_support(mu, nu)
    d_min = closest_gap(support) if centers is None or radii is None else None
    if centers is None:
        centers_arr = _default_centers(support, d_min)
        centers_kind = "default:support+near-pair-midpoints"
    else:
        try:
            centers_arr = np.atleast_2d(np.asarray(centers, dtype=float))
        except ValueError as exc:
            raise ParameterError(f"centers must be points of one dimension: {exc}") from exc
        centers_kind = "explicit"
    if radii is None:
        radii_arr = _default_radii(support, d_min)
        radii_kind = "default:geometric(sqrt2)"
    else:
        radii_arr = np.sort(np.asarray(radii, dtype=float).ravel())
        radii_kind = "explicit"
    if centers_arr.size == 0 or radii_arr.size == 0:
        raise UsageError("empty scan: need at least one center and one radius")
    if not np.all((radii_arr > 0) & (radii_arr < np.inf)):
        raise ParameterError("all scanned radii must be finite and positive")
    if centers_arr.shape[1] != support.shape[1]:
        raise ParameterError("centers do not match the measure dimension")
    if not np.all(np.isfinite(centers_arr)):
        raise ParameterError("all scan centers must be finite")

    rho = radii_arr / 2.0
    mu_masses = _ball_masses(mu, centers_arr, rho)
    # one cloud as both measures (``necessity --mu a.json --nu a.json``) has one table
    same = np.array_equal(mu.points, nu.points) and np.array_equal(mu.weights, nu.weights)
    nu_masses = mu_masses if same else _ball_masses(nu, centers_arr, rho)
    values = (2.0 * radii_arr) ** (-alpha) * mu_masses ** (1.0 / q) * nu_masses ** (1.0 / p)
    best_value = float(values.max())
    # A table mass adds its N in-ball weights one at a time (bincount, then
    # cumsum) and ball_value's np.sum adds them pairwise; each is within
    # N eps / 2 of the exact sum, so the two masses differ by at most N eps
    # relative.  With the powers and products, a table value is within
    # about (len(mu) + len(nu)) eps of its ball_value, and an entry that
    # re-evaluates to the largest ball_value lies within twice that of the
    # table maximum.  1e-9 exceeds this up to ~10^6 points; the second
    # term takes over beyond.
    slack = max(1e-9, 4.0 * (len(mu) + len(nu)) * np.finfo(float).eps)
    if best_value > 0:
        candidates = zip(*np.nonzero(values.T >= best_value * (1.0 - slack)))
    else:
        candidates = [(0, 0)]
    constant = -1.0
    for k, j in candidates:
        value = ball_value(mu, nu, centers_arr[j], float(radii_arr[k]), p, alpha)
        if value > constant:
            constant, best = value, (j, k)

    center = centers_arr[best[0]]
    r = float(radii_arr[best[1]])
    if not witness_reproduces(best_value, constant):
        raise ToleranceError(
            f"witness re-evaluation {constant} disagrees with the scan "
            f"maximum {best_value}"
        )
    scan = {
        "centers": {"kind": centers_kind, "count": int(len(centers_arr))},
        "radii": {
            "kind": radii_kind,
            "values": [float(x) for x in radii_arr],
        },
    }
    return MuckenhouptReport(
        constant=constant,
        witness_ball=(tuple(float(x) for x in center), r),
        scan=scan,
        p=float(p),
        alpha=float(alpha),
    )


def witness_reproduces(value: float, constant: float) -> bool:
    """Whether a ball value agrees with ``constant`` to relative 1e-12."""
    return abs(value - constant) <= 1e-12 * max(abs(constant), 1e-300)


# -- blow-up experiment -----------------------------------------------------


def window_profile(profile: ConvolutionProfile):
    """m(x) = B(x) * window(|x|), B the homogeneous lift of the kernel's
    spherical factor and window a smooth step, 1 on [0, 2], strictly
    decreasing on (2, 3) and 0 beyond.  ``ScaledMultiplier(m, eps, True)``
    is the entrywise factor m((t - s)/eps); paired with the kernel itself
    it contracts to the real scalar window(|x|/eps) eps^(-d) |B(x)|^2 A(|x|),
    nonnegative everywhere and bounded below on pairs at distance <= 2 eps.
    """
    return windowed(profile.spherical, lambda r: smooth_step(3.0 - r), profile.degree)


# Transform grids for the window multiplier's Schur bound, by dimension.
# Above 3 a grid fine enough to certify it no longer fits in memory: in 4-D
# the error estimate still exceeds the value at M = 48 (394 MB peak RSS), and
# M = 128, as in 3-D, needs 8 GiB for the samples alone.
_WIENER_GRIDS = {1: (48.0, 8192), 2: (24.0, 1024), 3: (12.0, 128)}


def _multiplier_schur_bound(profile: ConvolutionProfile, dimension: int):
    """Certified Schur bound for the scale-1 window multiplier; the bound is
    scale invariant, so it covers every eps at once.  Vector-valued
    multipliers get the sum of their components' bounds."""
    return wiener_norm(window_profile(profile), dimension, *_WIENER_GRIDS[dimension])


@dataclass(frozen=True)
class NecessityBallCheck:
    """One scanned ball at one scale in the blow-up experiment.

    ``pairs_checked`` counts every (nu-point, mu-point) pair of distinct
    points in the ball, and ``min_entry`` is the smallest windowed entry
    over them (None when there is none), to be compared with
    ``bound_target`` = C' eps^(-alpha).  ``pairing`` is the form of the
    windowed kernel against in-ball indicators with the right side
    dual-normalized; ``chain_lhs`` is the exact lower bound for it implied
    by the pointwise entry bound (the coincident-pair deficit is
    subtracted because the multiplier vanishes on the diagonal);
    ``image_norm`` is the weighted p-norm of the mapped indicator; and
    ``quotient`` = image_norm / mu(ball)^(1/p) is a lower bound for the
    windowed operator norm, compared against ``chain_rhs`` = 2 * (Schur
    bound) * (restricted-norm estimate).  Balls with an empty side are
    recorded with ``checked`` False and no numbers.
    """

    center: tuple[float, ...]
    eps: float
    mu_mass: float
    nu_mass: float
    checked: bool
    pairs_checked: int = 0
    min_entry: float | None = None
    bound_target: float | None = None
    pointwise_ok: bool = True
    pairing: float | None = None
    chain_lhs: float | None = None
    image_norm: float | None = None
    quotient: float | None = None
    chain_rhs: float | None = None
    chain_ok: bool = True


@dataclass(frozen=True)
class NecessityReport:
    kernel: str
    dimension: int
    degree: float
    alpha: float
    p: float
    sphere_infimum: float
    c_prime: float
    schur_bound: float
    schur_bound_error: float
    profile_check: dict
    restricted: NormEstimate
    growth: MuckenhouptReport
    witness_to_restricted_ratio: float
    eps_list: tuple[float, ...]
    operator_norms: tuple[tuple[float, float], ...]
    balls: tuple[NecessityBallCheck, ...]

    @property
    def pointwise_ok(self) -> bool:
        return all(b.pointwise_ok for b in self.balls)

    @property
    def chain_ok(self) -> bool:
        return all(b.chain_ok for b in self.balls)


# ``necessity_experiment``: radii in [1e-3, 1e3] at which A(r) >= r^-(d+alpha)
# is checked.
_PROFILE_SAMPLES = 256


def _check_radial_lower_bound(
    profile: ConvolutionProfile, d: float, alpha: float
) -> dict:
    rs = np.geomspace(1e-3, 1e3, _PROFILE_SAMPLES)
    values = np.asarray(profile.radial(rs), dtype=float) * rs ** (-d)
    target = rs ** (-(d + alpha))
    ratio = values / target
    worst = int(np.argmin(ratio))
    if not ratio[worst] >= 1.0 - 1e-9:
        raise ProfileBoundError(
            f"radial factor falls below r^-(d+alpha) at r = {rs[worst]:g}: "
            f"ratio {ratio[worst]:.6g}"
        )
    return {"samples": _PROFILE_SAMPLES, "min_ratio": float(ratio[worst])}


def _central_then_spread(points: np.ndarray, count: int) -> np.ndarray:
    """The minimax-central point, then a farthest-point traversal."""
    pts = points
    if len(pts) > 2048:
        pts = pts[:: len(pts) // 2048 + 1]
    dist = pairwise_distances(pts, pts)
    chosen = [int(np.argmin(dist.max(axis=1)))]
    while len(chosen) < min(count, len(pts)):
        nearest = dist[:, chosen].min(axis=1)
        nxt = int(np.argmax(nearest))
        if nearest[nxt] == 0.0:
            break
        chosen.append(nxt)
    return pts[chosen]


def necessity_experiment(
    kernel: KernelSpec,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    eps_list,
    alpha: float | None = None,
    centers=None,
    max_balls: int = 4,
    heuristic_trials: int = 24,
    seed: int = 0,
) -> NecessityReport:
    """Verify the pointwise blow-up of the windowed kernel and chain it to
    a Schur bound times a restricted-norm estimate.

    The kernel is sampled once, with zero on coincident pairs.  For each
    scale eps and each scanned ball of radius eps the experiment (a)
    reweights that one matrix by the window multiplier at scale eps, (b)
    checks the windowed entry of every pair of distinct in-ball points
    against C' eps^(-alpha), and (c) pairs in-ball indicators to confirm,
    link by link, that the radius-based growth value is controlled by
    2 * (Schur bound) * (restricted estimate).  The ratio of the scanned growth constant to the
    restricted estimate is reported for cross-scale comparisons.
    """
    if kernel.profile is None:
        raise ParameterError(
            "kernel must expose a radial/spherical factorization"
        )
    if kernel.dimension not in _WIENER_GRIDS:
        raise ParameterError(
            f"necessity needs dimension 1, 2 or 3, not {kernel.dimension}: "
            "the window multiplier's Schur bound has no certified grid above 3"
        )
    profile = kernel.profile
    d = float(profile.degree)
    alpha = float(kernel.order if alpha is None else alpha)
    if not (np.isfinite(alpha) and alpha >= d):
        raise ParameterError(f"alpha = {alpha} must be finite and at least the degree {d}")
    dual_exponent(p)
    if max_balls < 1:
        raise ParameterError(f"max_balls must be at least 1, got {max_balls}")
    eps_arr = np.asarray(list(eps_list), dtype=float)
    if eps_arr.size == 0 or not np.all((eps_arr > 0) & (eps_arr < np.inf)):
        raise ParameterError("eps_list must contain finite positive scales")
    reject_common_atoms(mu, nu)

    profile_check = _check_radial_lower_bound(profile, d, alpha)

    infimum = sphere_infimum(profile.spherical, kernel.dimension)
    if infimum <= 1e-12:
        raise ProfileBoundError(
            "spherical factor is not bounded below on the unit sphere"
        )
    c_prime = infimum**2 * 2.0 ** (d - alpha)

    schur, schur_err = _multiplier_schur_bound(profile, kernel.dimension)

    km_raw = materialize(kernel, mu, nu, diagonal_policy=0.0)
    restricted = restricted_norm(km_raw, p=p, trials=heuristic_trials, seed=seed)
    growth = ap_alpha_constant(mu, nu, p, alpha)
    ratio = (
        growth.constant / restricted.value
        if restricted.value > 0
        else float("inf")
    )
    chain_rhs = 2.0 * schur * restricted.value

    if centers is None:
        centers_arr = _central_then_spread(_combined_support(mu, nu), max_balls)
    else:
        centers_arr = np.atleast_2d(np.asarray(centers, dtype=float))

    q = dual_exponent(p)
    co_cols, co_rows = shared_point_indices(mu.points, nu.points)
    partner = np.full(len(nu), -1)  # the mu-column each nu-row coincides with
    partner[co_rows] = co_cols

    balls: list[NecessityBallCheck] = []
    operator_norms: list[tuple[float, float]] = []
    window = window_profile(profile)
    for eps in eps_arr:
        km_eps = reweight(km_raw, ScaledMultiplier(window, float(eps), True))
        entries = np.asarray(km_eps.entries)
        if np.iscomplexobj(entries):
            if np.max(np.abs(entries.imag)) > 1e-9 * max(
                np.max(np.abs(entries.real)), 1e-300
            ):
                raise ToleranceError(
                    "windowed kernel entries are not numerically real"
                )
            entries = entries.real
        opnorm = operator_norm(km_eps, p, seed=seed, seeds=8, iterations=40).value
        operator_norms.append((float(eps), float(opnorm)))

        for center in centers_arr:
            in_mu = mu.distances([center])[0] < eps
            in_nu = nu.distances([center])[0] < eps
            mu_mass = float(np.sum(mu.weights[in_mu]))
            nu_mass = float(np.sum(nu.weights[in_nu]))
            rows = np.flatnonzero(in_nu)
            cols = np.flatnonzero(in_mu)
            if not len(rows) or not len(cols):
                balls.append(
                    NecessityBallCheck(
                        center=tuple(float(x) for x in center),
                        eps=float(eps),
                        mu_mass=mu_mass,
                        nu_mass=nu_mass,
                        checked=False,
                    )
                )
                continue

            distinct = partner[rows][:, None] != cols
            pairs_checked = int(np.count_nonzero(distinct))
            target = float(c_prime * eps ** (-alpha))
            block = entries[np.ix_(rows, cols)]
            min_entry = float(np.min(block[distinct])) if pairs_checked else None
            pointwise_ok = pointwise_holds(min_entry, target)

            f = in_mu.astype(float)
            image = entries @ (f * mu.weights)
            h_scale = nu_mass ** (1.0 / q)
            pairing = float(np.sum(image[rows] * nu.weights[rows]) / h_scale)
            co_in = rows[(partner[rows] >= 0) & in_mu[partner[rows]]]
            deficit = float(np.sum(nu.weights[co_in] * mu.weights[partner[co_in]]))
            chain_lhs = float(
                c_prime * eps ** (-alpha) * (mu_mass * nu_mass - deficit) / h_scale
            )
            image_norm = lp_norm(image, nu.weights, p)
            quotient = float(image_norm / mu_mass ** (1.0 / p))
            chain_ok = chain_holds(pairing, chain_lhs, image_norm, quotient, chain_rhs)
            balls.append(
                NecessityBallCheck(
                    center=tuple(float(x) for x in center),
                    eps=float(eps),
                    mu_mass=mu_mass,
                    nu_mass=nu_mass,
                    checked=True,
                    pairs_checked=pairs_checked,
                    min_entry=min_entry,
                    bound_target=target,
                    pointwise_ok=pointwise_ok,
                    pairing=pairing,
                    chain_lhs=chain_lhs,
                    image_norm=image_norm,
                    quotient=quotient,
                    chain_rhs=float(chain_rhs),
                    chain_ok=chain_ok,
                )
            )

    return NecessityReport(
        kernel=kernel.name,
        dimension=int(kernel.dimension),
        degree=d,
        alpha=alpha,
        p=float(p),
        sphere_infimum=infimum,
        c_prime=float(c_prime),
        schur_bound=float(schur),
        schur_bound_error=float(schur_err),
        profile_check=profile_check,
        restricted=restricted,
        growth=growth,
        witness_to_restricted_ratio=float(ratio),
        eps_list=tuple(float(e) for e in eps_arr),
        operator_norms=tuple(operator_norms),
        balls=tuple(balls),
    )


def pointwise_holds(min_entry: float | None, target: float) -> bool:
    """The in-ball entries reach C' eps^(-alpha) up to relative 1e-9;
    vacuous when the ball holds no distinct pair (``min_entry`` None)."""
    return min_entry is None or bool(min_entry >= target * (1.0 - 1e-9))


def chain_holds(
    pairing: float,
    chain_lhs: float,
    image_norm: float,
    quotient: float,
    chain_rhs: float,
) -> bool:
    """Each link of lhs <= pairing <= ||image|| and quotient <= rhs, with
    relative slack 1e-9 on the pairing links and 1e-6 on the Schur link."""
    return bool(
        pairing >= chain_lhs * (1.0 - 1e-9)
        and pairing <= image_norm * (1.0 + 1e-9)
        and quotient <= chain_rhs * (1.0 + 1e-6)
    )

