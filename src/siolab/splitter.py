"""Separated partitions of a measure into two halves of every dyadic cube.

Given a discretized measure sigma and a level n, the construction picks a
fine dyadic size delta = 2^(-m) so small that no delta-cube carries a
2^(-n) fraction of the lightest populated dyadic cube of size 2^(-n), then
walks the fine cubes of each size-2^(-n) cube in lexicographic order,
always adding the next cube to the half with currently smaller mass.  The
resulting halves E^1, E^2 split every populated dyadic cube of size 2^(-n)
to relative accuracy 2^(-n); shrinking each fine cube about its corner by a
factor tau < 1 then makes the two halves lie at distance at least
(1 - tau) * delta from each other without spoiling the balance.

The atom-aware variant runs the same construction on the continuous parts,
adjoins the n heaviest atoms of mu to E^1 and of nu to E^2, and carves a
small ball around each adjoined atom out of the *other* half, so the halves
stay separated even when an atom lands inside a cube of the opposite half.

All coordinates are dyadic rationals, so the geometry below is exact in
floating point: cube corners are integer multiples of delta, and membership
and distance tests reduce to integer grid indices plus an offset comparison.
Index rows are compared through the dense integer ids of ``measure._row_ids``,
which cannot overflow for any dimension or coordinate range, adjoined atoms
through those of ``measure._point_ids``, and ball tests use
``measure.pairwise_distances``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ParameterError,
    ResolutionError,
    SchemaError,
    ShrinkRetryError,
)
from .jsonout import dumps
from .measure import (
    DiscreteMeasure,
    _cell_join,
    _point_ids,
    _point_tuple,
    _row_ids,
    decompose,
    merge,
    pairwise_distances,
    reject_common_atoms,
    restrict_to_cube,
)

__all__ = [
    "DyadicGrid",
    "RemovedBall",
    "SeparatedPartition",
    "DEFAULT_TAU",
    "build_partition",
    "atom_aware_partition",
    "balance_at_level",
    "verify_partition",
    "save_partition",
    "load_partition",
]

DEFAULT_TAU = 1.0 - 2.0**-8
# Times ``build_partition`` moves tau halfway to 1 before giving up.
_MAX_RETRIES = 20


@dataclass(frozen=True)
class DyadicGrid:
    """Ambient window [-2^n, 2^n)^N tiled by dyadic cubes of two sizes.

    ``level`` fixes the window and the coarse subdivision into cubes of
    side 2^(-level); ``fine_level`` >= level fixes the fine size
    2^(-fine_level), so the fine cubes tile every coarse cube exactly.
    """

    level: int
    fine_level: int
    dimension: int

    def __post_init__(self):
        if self.level < 0:
            raise ParameterError("level must be a nonnegative integer")
        if self.fine_level < self.level:
            raise ParameterError("fine_level must be at least level")
        if self.dimension < 1:
            raise ParameterError("dimension must be at least 1")

    @property
    def window_half_width(self) -> float:
        return 2.0**self.level

    @property
    def fine_size(self) -> float:
        return 2.0**-self.fine_level


@dataclass(frozen=True)
class RemovedBall:
    """An open ball carved out of one half around an atom of the other.

    ``carved_from`` is the half (1 or 2) that loses the ball;
    ``sigma_mass`` is the continuous mass the ball removes, kept below
    ``budget``; ``intersected_cubes`` counts the shrunken cubes of that
    half the ball actually meets (0 when the atom sits far from them).
    """

    center: tuple
    radius: float
    carved_from: int
    budget: float
    sigma_mass: float
    intersected_cubes: int


@dataclass(frozen=True)
class SeparatedPartition:
    """Two separated unions of shrunken fine cubes, plus adjoined atoms.

    ``e1_indices`` and ``e2_indices`` are integer corner indices on the
    fine grid (corner = index * delta, shrunken cube = corner + [0,
    tau*delta)^N per axis).  ``balance_report`` maps the integer corner
    index of each populated dyadic cube Q of size 2^(-level) to the pair
    of relative deviations |sigma(E^k cap Q) - sigma(Q)/2| / sigma(Q).
    ``separation`` is the certified lower bound on dist(E^1, E^2): it is
    (1 - tau) * delta for pure partitions and additionally bounded by the
    carved ball radii for atom-aware ones.
    """

    grid: DyadicGrid
    tau: float
    e1_indices: np.ndarray
    e2_indices: np.ndarray
    separation: float
    balance_report: dict
    kind: str = "pure"
    e1_atoms: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))
    e2_atoms: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))
    removed_balls: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ParameterError("tau must lie in (0, 1)")

    @property
    def level(self) -> int:
        return self.grid.level

    @property
    def delta(self) -> float:
        return self.grid.fine_size

    def _in_cubes(self, pts: np.ndarray) -> list:
        """Masks of the points inside the shrunken cubes of E^1 and of E^2."""
        delta = self.delta
        cell = np.floor(pts / delta).astype(np.int64)
        _, cell_ids, ids1, ids2 = _row_ids(cell, self.e1_indices, self.e2_indices)
        offset_ok = np.all(pts - cell * delta < self.tau * delta, axis=1)
        return [np.isin(cell_ids, ids1) & offset_ok, np.isin(cell_ids, ids2) & offset_ok]

    def indicator(self, points) -> tuple:
        """Membership masks (in E^1, in E^2) for an array of points.

        Cubes are half-open after shrinking, adjoined atoms match by exact
        coordinates, and carved balls are open; the two masks are always
        disjoint.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.grid.dimension:
            raise ParameterError("points have the wrong dimension")
        masks = self._in_cubes(pts)
        for k, atoms in ((0, self.e1_atoms), (1, self.e2_atoms)):
            if len(atoms):
                _, ids, atom_ids = _point_ids(pts, atoms)
                masks[k] |= np.isin(ids, atom_ids)
        for ball in self.removed_balls:
            hit = pairwise_distances(pts, [ball.center])[0] < ball.radius
            masks[ball.carved_from - 1] &= ~hit
        return masks[0], masks[1]


# -- exact grid bookkeeping ---------------------------------------------------


def _window_mask(points: np.ndarray, level: int) -> np.ndarray:
    half = 2.0**level
    return np.all((points >= -half) & (points < half), axis=1)


def _group_masses(indices: np.ndarray, weights: np.ndarray):
    """Unique index rows (lexicographic) with summed weights and counts."""
    uniq, ids = _row_ids(indices)
    return uniq, np.bincount(ids, weights=weights), np.bincount(ids)


def _fine_indices(points: np.ndarray, fine_level: int) -> np.ndarray:
    """The points' cubes of side 2^-fine_level; beyond +-2^62 ResolutionError."""
    if fine_level < 1024:  # else 2.0**fine_level overflows
        scaled = np.floor(points * 2.0**fine_level)
        if np.all(np.abs(scaled) < 2.0**62):
            return scaled.astype(np.int64)
    raise ResolutionError(
        f"cubes of side 2^-{fine_level} are too small to index the points within "
        "+-2^62; use a coarser level, or a measure whose points lie farther apart"
    )


def _choose_fine_level(points, weights, level, alpha) -> int:
    """Smallest m >= level with every fine-cube mass below 2^(-level)*alpha.

    The search stops, with a resolution error, once every fine cube holds a
    single discretization cell: from there on, refining delta cannot reduce
    any cube mass, so no admissible delta exists at this resolution.
    """
    threshold = 2.0**-level * alpha
    m = level
    while True:
        _, masses, counts = _group_masses(_fine_indices(points, m), weights)
        if np.max(masses) < threshold:
            return m
        if np.max(counts) <= 1:
            raise ResolutionError(
                f"no fine size achieves cube masses below {threshold}: a "
                f"single discretization cell carries {np.max(masses)}; "
                "refine the measure before partitioning"
            )
        m += 1


def _greedy_sides(cube_indices: np.ndarray, cube_masses: np.ndarray, shift: int):
    """Assign each fine cube to the lighter half of its dyadic cube.

    Cubes are visited in numeric lexicographic order of their corner
    coordinates; within each dyadic cube the first goes to E^1, and every
    subsequent cube to the side of smaller accumulated mass, ties to E^1.
    Returns an array of sides (1 or 2) aligned with the *input* order.
    """
    order = np.lexsort(cube_indices.T[::-1])
    q_rows, q_ids = _row_ids(np.floor_divide(cube_indices, 2**shift))
    q_of, masses = q_ids.tolist(), cube_masses.tolist()
    mass1, mass2 = [0.0] * len(q_rows), [0.0] * len(q_rows)
    sides = [0] * len(cube_indices)
    for k in order.tolist():
        q = q_of[k]
        if mass1[q] <= mass2[q]:
            sides[k] = 1
            mass1[q] += masses[k]
        else:
            sides[k] = 2
            mass2[q] += masses[k]
    return np.asarray(sides, dtype=np.int64)


def build_partition(
    sigma: DiscreteMeasure,
    level: int,
    tau: float = DEFAULT_TAU,
) -> SeparatedPartition:
    """Split sigma into two separated halves of every dyadic cube at a level.

    The fine size delta = 2^(-m) is the coarsest one for which every fine
    cube inside the window carries less than 2^(-level) * alpha, where
    alpha is the smallest positive mass among the dyadic cubes of size
    2^(-level); greedily filling the lighter half then balances every such
    cube to relative accuracy 2^(-level), and shrinking each assigned cube
    about its corner by tau separates the halves by (1 - tau) * delta.
    When shrinking loses enough mass to break a balance, tau moves halfway
    to 1 and the shrink is retried, up to ``_MAX_RETRIES`` times.

    The measure must be a non-atomic discretization (no atomic-tagged
    points); points outside the window [-2^level, 2^level)^N are ignored.
    """
    if not 0.0 < tau < 1.0:
        raise ParameterError("tau must lie in (0, 1)")
    if int(level) != level or level < 0:
        raise ParameterError("level must be a nonnegative integer")
    level = int(level)
    if level > 1023:  # 2.0**level overflows
        raise ResolutionError(f"the window [-2^{level}, 2^{level}) exceeds the floats")
    if np.any(sigma.atomic):
        raise ParameterError(
            "sigma carries atomic-tagged points; use atom_aware_partition "
            "(on the command line, split --mu and --nu)"
        )

    inside = _window_mask(sigma.points, level)
    points = np.ascontiguousarray(sigma.points[inside])
    weights = sigma.weights[inside]
    dim = sigma.dimension
    if len(points) == 0:
        grid = DyadicGrid(level, level, dim)
        empty = np.empty((0, dim), dtype=np.int64)
        return SeparatedPartition(
            grid, tau, empty, empty, (1.0 - tau) * grid.fine_size, {},
            e1_atoms=np.empty((0, dim)), e2_atoms=np.empty((0, dim)),
        )

    _, q_masses, _ = _group_masses(_fine_indices(points, level), weights)
    alpha = float(np.min(q_masses[q_masses > 0]))
    fine_level = _choose_fine_level(points, weights, level, alpha)
    shift = fine_level - level

    cube_indices, cube_masses, _ = _group_masses(
        _fine_indices(points, fine_level), weights
    )
    sides = _greedy_sides(cube_indices, cube_masses, shift)

    grid = DyadicGrid(level, fine_level, dim)
    e1, e2 = cube_indices[sides == 1], cube_indices[sides == 2]
    threshold = 2.0**-level
    current_tau = float(tau)
    for _attempt in range(_MAX_RETRIES + 1):
        candidate = SeparatedPartition(
            grid,
            current_tau,
            e1,
            e2,
            (1.0 - current_tau) * grid.fine_size,
            {},
            e1_atoms=np.empty((0, dim)),
            e2_atoms=np.empty((0, dim)),
        )
        report = balance_at_level(candidate, sigma, level)
        offenders = [q for q, devs in report.items() if max(devs) >= threshold]
        if not offenders:
            return dataclasses.replace(candidate, balance_report=report)
        current_tau = (1.0 + current_tau) / 2.0
    offender = offenders[0]
    raise ShrinkRetryError(
        f"balance of dyadic cube at index {offender} (corner "
        f"{tuple(c * 2.0**-level for c in offender)}) still broken after "
        f"{_MAX_RETRIES} shrink retries"
    )


# -- atom-aware construction --------------------------------------------------


def _sorted_atoms(measure: DiscreteMeasure, count: int) -> np.ndarray:
    """The ``count`` heaviest atoms, weight descending, ties lexicographic."""
    atoms = decompose(measure).atoms
    if len(atoms) == 0:
        return np.empty((0, measure.dimension))
    keys = tuple(atoms.points.T[::-1]) + (-atoms.weights,)
    order = np.lexsort(keys)
    return atoms.points[order[: min(count, len(order))]]


def _carve_radius(window: DiscreteMeasure, center, budget, excluded, level) -> float:
    """Largest power of two whose open ball stays under the mass budget.

    The ball also must not contain any point of ``excluded`` (the adjoined
    atoms of the other half).  Fails when even a microscopic ball carries
    the budget, which means a discretization cell sits exactly at the atom.
    """
    exponent = level + 2
    while exponent >= -80:
        radius = 2.0**exponent
        if window.mass_in_ball(center, radius) < budget and (
            len(excluded) == 0
            or np.min(pairwise_distances(excluded, [center])[0]) >= radius
        ):
            return radius
        exponent -= 1
    raise ResolutionError(
        f"no ball around atom {_point_tuple(center)} stays below the mass budget "
        f"{budget}; refine the continuous discretization"
    )


def _cube_ball_hits(indices, center, radius, delta, tau) -> int:
    if len(indices) == 0:
        return 0
    corners = np.asarray(indices, dtype=float) * delta
    low = corners
    high = corners + tau * delta
    nearest = np.clip(np.asarray(center), low, high)
    return int(np.sum(pairwise_distances(nearest, [center])[0] < radius))


def atom_aware_partition(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    level: int,
    tau: float = DEFAULT_TAU,
) -> SeparatedPartition:
    """Separated partition for a pair of measures with atoms.

    Builds the pure partition of sigma = mu_continuous + nu_continuous,
    adjoins the ``level`` heaviest atoms of mu to E^1 and of nu to E^2
    (weight-descending order), and carves an open ball around each adjoined
    atom out of the *other* half.  The j-th ball's radius is the largest
    power of two whose sigma-mass stays below 2^(-level) / 2^(j+1) -- the
    budgets sum below 2^(-level) -- and which contains no adjoined atom of
    the opposite half, so atoms survive the carving and every component of
    one half keeps a positive distance from the other.
    """
    reject_common_atoms(mu, nu)
    sigma = merge(decompose(mu).continuous, decompose(nu).continuous)
    base = build_partition(sigma, level, tau)

    e1_atoms = _sorted_atoms(mu, int(level))
    e2_atoms = _sorted_atoms(nu, int(level))
    half = base.grid.window_half_width
    window = restrict_to_cube(sigma, np.full(sigma.dimension, -half), 2.0 * half)

    delta, used_tau = base.delta, base.tau
    balls = []
    for carved_from, centers, excluded in (
        (1, e2_atoms, e1_atoms),
        (2, e1_atoms, e2_atoms),
    ):
        own = base.e1_indices if carved_from == 1 else base.e2_indices
        for j, center in enumerate(centers, start=1):
            budget = 2.0**-level / 2.0 ** (j + 1)
            radius = _carve_radius(window, center, budget, excluded, level)
            balls.append(
                RemovedBall(
                    center=_point_tuple(center),
                    radius=radius,
                    carved_from=carved_from,
                    budget=budget,
                    sigma_mass=window.mass_in_ball(center, radius),
                    intersected_cubes=_cube_ball_hits(
                        own, center, radius, delta, used_tau
                    ),
                )
            )

    separation = min(
        [base.separation] + [b.radius for b in balls]
    )
    partial = dataclasses.replace(
        base,
        separation=separation,
        kind="atom_aware",
        e1_atoms=e1_atoms,
        e2_atoms=e2_atoms,
        removed_balls=tuple(balls),
    )
    return dataclasses.replace(
        partial, balance_report=balance_at_level(partial, sigma, level)
    )


# -- diagnostics --------------------------------------------------------------


def balance_at_level(
    partition: SeparatedPartition, sigma: DiscreteMeasure, level: int
) -> dict:
    """Relative balance deviations of the partition on dyadic cubes.

    Groups sigma by the dyadic cubes of size 2^(-level) inside the window
    and reports, per populated cube, |sigma(E^k cap Q) - sigma(Q)/2| /
    sigma(Q) for k = 1, 2 using the partition's own membership (shrunken
    cubes, atoms excluded from sigma, carved balls honored).  Coarser
    levels than the partition's own inherit the balance bound by summation.
    Cubes come in lexicographic order of their corner indices.
    """
    keep = _window_mask(sigma.points, partition.level) & ~sigma.atomic
    pts = np.ascontiguousarray(sigma.points[keep])
    wts = sigma.weights[keep]
    if len(pts) == 0:
        return {}
    in1, in2 = partition.indicator(pts)
    q_rows, q_ids = _row_ids(_fine_indices(pts, level))
    total = np.bincount(q_ids, weights=wts)
    dev1 = np.abs(np.bincount(q_ids, weights=wts * in1) - total / 2.0) / total
    dev2 = np.abs(np.bincount(q_ids, weights=wts * in2) - total / 2.0) / total
    return {
        tuple(q_rows[i].tolist()): (float(dev1[i]), float(dev2[i]))
        for i in range(len(q_rows))
    }


def _cube_set_min_distance(
    idx1: np.ndarray, idx2: np.ndarray, delta: float, tau: float
) -> float:
    """Exact minimum distance between two sets of shrunken fine cubes.

    Two cubes whose corner indices differ by an offset o in {-1, 0, 1}^N
    lie ||max(0, |o| * delta - tau * delta)|| apart, which depends on o
    alone; so each offset costs one ``measure._cell_join`` lookup of
    idx1 + o in idx2, the neighbour search's cube join, and offsets
    are tried in order of that gap until one occurs.  Pairs two or more
    cells apart on some axis leave a gap of at least (2 - tau) * delta,
    which caps the result.
    """
    if len(idx1) == 0 or len(idx2) == 0:
        return math.inf
    best = (2.0 - tau) * delta
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=idx1.shape[1])))
    gaps = [
        float(np.linalg.norm(np.maximum(0.0, np.abs(o) * delta - tau * delta)))
        for o in offsets
    ]
    join = _cell_join(idx1, idx2)
    for k in np.argsort(gaps, kind="stable"):
        if gaps[k] >= best:
            break
        if len(join(offsets[k])[0]):
            return gaps[k]
    return best


def verify_partition(
    partition: SeparatedPartition, sigma: DiscreteMeasure | None = None
) -> dict:
    """Re-check every partition invariant; returns {check: (ok, detail)}.

    Runs from the partition data alone: disjointness of the halves, exact
    minimum distance at least the stored separation, alignment of all
    corners inside the window, the balance bound 2^(-level) on the stored
    report, and -- for atom-aware partitions -- that each adjoined atom
    belongs to its own half only and that carved balls contain no atom of
    the protected half.  When ``sigma`` is supplied, the balance report is
    recomputed from the measure instead of trusted.
    """
    checks = {}
    grid, delta, tau = partition.grid, partition.delta, partition.tau

    e1, e2 = partition.e1_indices, partition.e2_indices
    _, ids1, ids2 = _row_ids(e1, e2)
    disjoint = not np.any(np.isin(ids1, ids2))
    checks["halves_disjoint"] = (disjoint, "corner index sets intersect" if not disjoint else "")

    min_dist = _cube_set_min_distance(e1, e2, delta, tau)
    ok = min_dist >= partition.separation - 1e-15
    checks["separation"] = (ok, f"min cube distance {min_dist} vs bound {partition.separation}")

    half = grid.window_half_width
    per_axis = int(round(half / delta))
    all_idx = np.vstack([e1, e2]) if len(e1) + len(e2) else np.empty((0, grid.dimension), dtype=np.int64)
    aligned = bool(
        np.all(all_idx >= -per_axis) and np.all(all_idx < per_axis)
    ) if len(all_idx) else True
    checks["cubes_in_window"] = (aligned, "corner outside the window" if not aligned else "")
    checks["fine_tiles_coarse"] = (
        grid.fine_level >= grid.level,
        f"fine level {grid.fine_level} coarser than level {grid.level}",
    )

    if sigma is not None:
        report = balance_at_level(partition, sigma, partition.level)
    else:
        report = partition.balance_report
    threshold = 2.0**-partition.level
    worst = max(
        (max(v) for v in report.values()), default=0.0
    )
    if partition.kind == "atom_aware" and partition.removed_balls:
        # the strict balance bound applies before carving; the carved mass
        # (below 2^-level in total) is reported but not held to the bound
        balance_ok = True
        detail = f"worst relative deviation {worst} (carve slack applies)"
    else:
        balance_ok = bool(worst < threshold)
        detail = f"worst relative deviation {worst} vs {threshold}"
    checks["balance"] = (balance_ok, detail)

    if partition.kind == "atom_aware":
        own_ok = True
        detail = ""
        for k, atoms in ((1, partition.e1_atoms), (2, partition.e2_atoms)):
            if len(atoms) == 0:
                continue
            in1, in2 = partition.indicator(atoms)
            mine, other = (in1, in2) if k == 1 else (in2, in1)
            if not (np.all(mine) and not np.any(other)):
                own_ok = False
                detail = f"an adjoined atom of E^{k} leaks into the other half"
        checks["atoms_in_own_half"] = (own_ok, detail)

        balls_ok = True
        detail = ""
        for ball in partition.removed_balls:
            protected = (
                partition.e1_atoms if ball.carved_from == 1 else partition.e2_atoms
            )
            if len(protected) and np.min(
                pairwise_distances(protected, [ball.center])[0]
            ) < ball.radius:
                balls_ok = False
                detail = f"ball at {ball.center} swallows a protected atom"
            if not ball.sigma_mass < ball.budget:
                balls_ok = False
                detail = f"ball at {ball.center} exceeds its mass budget"
        checks["carved_balls"] = (balls_ok, detail)
    return checks


# -- serialization ------------------------------------------------------------


def partition_to_dict(partition: SeparatedPartition) -> dict:
    """JSON-ready dictionary with exact dyadic geometry."""
    return {
        "kind": partition.kind,
        "dimension": partition.grid.dimension,
        "level": partition.grid.level,
        "fine_level": partition.grid.fine_level,
        "delta": partition.delta,
        "tau": partition.tau,
        "separation": partition.separation,
        "e1_indices": np.asarray(partition.e1_indices, dtype=np.int64).tolist(),
        "e2_indices": np.asarray(partition.e2_indices, dtype=np.int64).tolist(),
        "e1_atoms": np.asarray(partition.e1_atoms, dtype=float).tolist(),
        "e2_atoms": np.asarray(partition.e2_atoms, dtype=float).tolist(),
        "removed_balls": [
            {
                "center": list(b.center),
                "radius": b.radius,
                "carved_from": b.carved_from,
                "budget": b.budget,
                "sigma_mass": b.sigma_mass,
                "intersected_cubes": b.intersected_cubes,
            }
            for b in partition.removed_balls
        ],
        "balance_report": {
            ",".join(str(c) for c in key): list(value)
            for key, value in sorted(partition.balance_report.items())
        },
    }


def partition_from_dict(data: dict) -> SeparatedPartition:
    """The partition ``partition_to_dict`` wrote; a missing or malformed
    field raises SchemaError, as in ``DiscreteMeasure.from_dict``."""
    try:
        dim = int(data["dimension"])
        grid = DyadicGrid(int(data["level"]), int(data["fine_level"]), dim)

        def as_idx(rows):
            arr = np.asarray(rows, dtype=np.int64)
            return arr.reshape(len(rows), dim) if len(rows) else np.empty((0, dim), np.int64)

        def as_pts(rows):
            arr = np.asarray(rows, dtype=float)
            return arr.reshape(len(rows), dim) if len(rows) else np.empty((0, dim))

        balls = tuple(
            RemovedBall(
                center=tuple(b["center"]),
                radius=float(b["radius"]),
                carved_from=int(b["carved_from"]),
                budget=float(b["budget"]),
                sigma_mass=float(b["sigma_mass"]),
                intersected_cubes=int(b["intersected_cubes"]),
            )
            for b in data.get("removed_balls", [])
        )
        report = {
            tuple(int(c) for c in key.split(",")): tuple(value)
            for key, value in data.get("balance_report", {}).items()
        }
        return SeparatedPartition(
            grid,
            float(data["tau"]),
            as_idx(data["e1_indices"]),
            as_idx(data["e2_indices"]),
            float(data["separation"]),
            report,
            kind=data.get("kind", "pure"),
            e1_atoms=as_pts(data.get("e1_atoms", [])),
            e2_atoms=as_pts(data.get("e2_atoms", [])),
            removed_balls=balls,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(
            f"partition file has a missing or malformed field: {exc}"
        ) from exc


def save_partition(partition: SeparatedPartition | dict, path) -> None:
    """Write a partition, or the dict ``partition_to_dict`` made of it."""
    if not isinstance(partition, dict):
        partition = partition_to_dict(partition)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(partition) + "\n")


def load_partition(path) -> SeparatedPartition:
    """The partition of a ``save_partition`` file or of a ``split`` report
    (or its ``"report"`` body); an unreadable file raises SchemaError."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read partition file: {exc}") from exc
    if isinstance(data, dict) and isinstance(data.get("report"), dict):
        data = data["report"]
    if isinstance(data, dict) and "partition" in data:
        data = data["partition"]
    return partition_from_dict(data)
