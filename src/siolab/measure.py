"""Finite discrete representations of Radon measures on R^N.

A measure is a finite list of distinct support points with strictly positive
weights.  Points tagged ``atomic`` represent genuine atoms; untagged points
are cells of a discretized continuous measure (a density ``w dx`` sampled on
a grid of spacing ``h`` contributes weight ``w(x_cell) * h**N`` at each cell
center).  The ``cell_size`` field records that spacing when it exists.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import CommonAtomsError, ParameterError, SchemaError

__all__ = [
    "DiscreteMeasure",
    "AtomDecomposition",
    "from_points",
    "lebesgue_grid",
    "density_grid",
    "merge",
    "decompose",
    "common_atoms",
    "reject_common_atoms",
    "shared_point_indices",
    "pairwise_distances",
    "close_pairs",
    "closest_gap",
    "restrict_to_cube",
    "save_measure",
    "load_measure",
    "spec_arguments",
    "integral",
]

_LATTICE_RTOL = 1e-9


def _as_point_array(points, dimension=None) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        # A flat list is a list of 1-D points unless a dimension says otherwise.
        if dimension is not None and dimension > 1:
            pts = pts.reshape(1, -1)
        else:
            pts = pts[:, None]
    if pts.ndim != 2:
        raise ParameterError(f"points must be a (n, N) array, got shape {pts.shape}")
    return pts


def _point_tuple(point) -> tuple:
    """A point's coordinates as Python floats, for messages: (0.125,)."""
    return tuple(float(c) for c in point)


def _rows_view(points: np.ndarray) -> np.ndarray:
    """1-D void view of the rows, usable for exact row comparisons."""
    pts = np.ascontiguousarray(points)
    return pts.view([("", pts.dtype)] * pts.shape[1]).ravel()


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean lengths of a - b over the last axis, the other axes broadcast.

    The squared coordinate differences are added in coordinate order, so a
    distance has the same bits in whichever array it is computed, and
    |a - b| and |b - a| agree (``np.linalg.norm`` agrees below eight
    dimensions only).  Two arrays of the broadcast shape are the whole
    working memory.
    """
    squares = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    diff = np.empty_like(squares)
    for i in range(a.shape[-1]):
        np.subtract(a[..., i], b[..., i], out=diff)
        squares += np.multiply(diff, diff, out=diff)
    return np.sqrt(squares, out=squares)


def pairwise_distances(points, centers) -> np.ndarray:
    """Euclidean distances from each center (a row) to each point (a row),
    shape (len(centers), len(points)), by the rule of ``_distances``."""
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    return _distances(points[None, :, :], centers[:, None, :])


def _row_ids(*blocks: np.ndarray) -> tuple:
    """Dense int64 ids for the integer index rows of one or more arrays.

    Returns the distinct rows in lexicographic order followed by, for each
    block, the position of each of its rows among them: two rows share an id
    exactly when they are equal, and ids keep lexicographic order.
    """
    rows = np.concatenate([np.asarray(b, dtype=np.int64) for b in blocks])
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    ends = np.cumsum([len(b) for b in blocks[:-1]], dtype=np.int64)
    return (ranked[first], *np.split(ids, ends))


# -- neighbour search -----------------------------------------------------


def _cell_pairs(cells_a: np.ndarray, cells_b: np.ndarray, offset, limit=math.inf):
    """Index pairs (ia, ib) with cells_a[ia] + offset == cells_b[ib], or None
    when there are more than ``limit``.

    The integer rows are matched through ``_row_ids``; pairs come with ia
    ascending, and ib ascending for each ia.
    """
    rows, ids_a, ids_b = _row_ids(np.asarray(cells_a) + offset, cells_b)
    per_id = np.bincount(ids_b, minlength=len(rows))
    counts = per_id[ids_a]
    if counts.sum() > limit:
        return None
    first = (np.cumsum(per_id) - per_id)[ids_a]  # offset of the id in order
    starts = np.cumsum(counts) - counts
    ia = np.repeat(np.arange(len(ids_a)), counts)
    order = np.argsort(ids_b, kind="stable")
    ib = order[np.arange(len(ia)) - np.repeat(starts - first, counts)]
    return ia, ib


def _power_of_two_above(length: float) -> float:
    """The smallest power of two above ``length`` >= 0 (inf past the float
    range), at most 2 * length: coordinates divide by it exactly."""
    if not length < 2.0**1023:
        return math.inf
    return math.ldexp(1.0, math.frexp(length)[1])


def _near_pairs(points: np.ndarray, side: float, limit=math.inf):
    """Pairs i < j of rows in the same or adjacent cubes of a grid of the
    given side, a power of two, with their distances; None when the cube
    joins hold more than ``limit`` index pairs.

    Cube indices are exact, since dividing by a power of two is.  Those
    beyond +-2^62 are clamped: floats there lie 2^9 sides apart or more, so
    clamping splits no two rows within a side and only adds candidates.
    Each unordered pair of adjacent cubes is visited once, by the half of
    the 3^N offsets that is lexicographically >= 0.
    """
    cells = np.clip(np.floor(points / side), -(2.0**62), 2.0**62).astype(np.int64)
    zero = (0,) * points.shape[1]
    found_i, found_j = [], []
    for offset in itertools.product((-1, 0, 1), repeat=points.shape[1]):
        if offset < zero:
            continue
        pairs = _cell_pairs(cells, cells, offset, limit)
        if pairs is None:
            return None
        i, j = pairs
        limit -= len(i)
        keep = i < j if offset == zero else slice(None)
        found_i.append(i[keep])
        found_j.append(j[keep])
    i = np.concatenate(found_i)
    j = np.concatenate(found_j)
    i, j = np.minimum(i, j), np.maximum(i, j)
    return i, j, _distances(points[i], points[j])


def close_pairs(points, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of the pairs of rows of an (n, N) array
    at most ``radius`` apart, in lexicographic order of (i, j).

    The distances are ``pairwise_distances``'s, so the pairs are exactly
    those that table holds at or below ``radius``, though no table is built:
    on a grid of cubes of side s in (radius, 2 radius], a power of two, each
    row meets only the rows of its own and the 3^N - 1 adjacent cubes.
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    i, j, d = _near_pairs(points, _power_of_two_above(radius))
    within = d <= radius
    i, j = i[within], j[within]
    order = np.lexsort((j, i))
    return i[order], j[order]


def closest_gap(points) -> float:
    """The smallest ``pairwise_distances`` entry between two distinct rows
    of an (n, N) array; inf for fewer than two rows.

    A pair closer than a cube side s lies in the same or adjacent cubes of
    a grid of side s, and no pair of other cubes is computed closer than s
    when s is a power of two; so once some pair falls closer than s, the
    closest of the pairs the cubes join is the answer.  s starts near the
    typical spacing (bounding box volume per row) and halves while the
    joins would hold more than 2 * 3^N index pairs per row, but not below
    the smallest positive coordinate gap on any axis, which is at most the
    closest gap; then it doubles until some pair falls closer than s.
    Each doubling follows a side at most the closest gap, so for distinct
    rows packing bounds the rows per cube and the candidates stay O(n).
    This is exact where squared coordinate differences neither overflow
    nor underflow.
    """
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    if n < 2:
        return math.inf
    gaps = np.diff(np.sort(points, axis=0), axis=0)
    if not np.any(gaps > 0):
        return 0.0  # every row is the same point
    floor = _power_of_two_above(float(np.min(gaps[gaps > 0]))) / 2.0
    extents = np.ptp(points, axis=0)
    extents = np.log(extents[extents > 0])
    typical = float(np.exp(np.mean(extents) - np.log(n) / len(extents)))
    side = max(min(_power_of_two_above(typical), 2.0**1023) / 2.0, floor)
    budget = 2 * 3**dim * n
    near = _near_pairs(points, side, budget if side > floor else math.inf)
    while near is None:
        side /= 2.0
        near = _near_pairs(points, side, budget if side > floor else math.inf)
    # at an infinite side every pair is a candidate
    while side < math.inf and not (len(near[2]) and np.min(near[2]) < side):
        side *= 2.0
        near = _near_pairs(points, side)
    return float(np.min(near[2]))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported nonnegative measure on R^N."""

    dimension: int
    points: np.ndarray  # (n, N) float, pairwise distinct rows
    weights: np.ndarray  # (n,) float, strictly positive
    atomic: np.ndarray  # (n,) bool
    cell_size: float | None = None

    def __post_init__(self):
        pts = _as_point_array(self.points, self.dimension)
        w = np.asarray(self.weights, dtype=float).ravel()
        a = np.asarray(self.atomic, dtype=bool).ravel()
        if pts.shape[1] != self.dimension:
            raise ParameterError(
                f"points have dimension {pts.shape[1]}, declared {self.dimension}"
            )
        if len(w) != len(pts) or len(a) != len(pts):
            raise ParameterError("points, weights and atomic must have equal length")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("support points must be finite")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ParameterError("weights must be finite and strictly positive")
        if len(pts) and len(np.unique(_rows_view(pts))) != len(pts):
            raise ParameterError("support points must be pairwise distinct")
        if self.cell_size is not None:
            h = float(self.cell_size)
            if not (h > 0 and np.isfinite(h)):
                raise ParameterError("cell_size must be a positive real")
            grid = pts[~a]
            if len(grid) > 1:
                # All cells must sit on one lattice of spacing h (any offset).
                rel = (grid - grid[0]) / h
                if not np.allclose(rel, np.round(rel), atol=_LATTICE_RTOL):
                    raise ParameterError(
                        "non-atomic points do not lie on a lattice of spacing "
                        f"{h}"
                    )
        for name, arr in (("points", pts), ("weights", w), ("atomic", a)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def distances(self, centers) -> np.ndarray:
        """``pairwise_distances`` from each center to each support point."""
        return pairwise_distances(self.points, centers)

    def mass_in_ball(self, center, radius: float) -> float:
        """Mass of the open Euclidean ball of the given radius."""
        center = np.asarray(center, dtype=float).ravel()
        d = self.distances(center[None, :])[0]
        return float(np.sum(self.weights[d < radius]))

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "dimension": int(self.dimension),
            "points": [[float(c) for c in p] for p in self.points],
            "weights": [float(w) for w in self.weights],
            "atomic": [bool(b) for b in self.atomic],
        }
        if self.cell_size is not None:
            out["cell_size"] = float(self.cell_size)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteMeasure":
        try:
            return cls(
                dimension=int(data["dimension"]),
                points=np.asarray(data["points"], dtype=float).reshape(
                    -1, int(data["dimension"])
                ),
                weights=np.asarray(data["weights"], dtype=float),
                atomic=np.asarray(data["atomic"], dtype=bool),
                cell_size=data.get("cell_size"),
            )
        except KeyError as exc:
            raise SchemaError(f"measure file is missing field {exc}") from exc


@dataclass(frozen=True)
class AtomDecomposition:
    """A measure split into its continuous and atomic parts."""

    continuous: DiscreteMeasure
    atoms: DiscreteMeasure


# -- constructors ---------------------------------------------------------


def from_points(points, weights, atomic=False, cell_size=None) -> DiscreteMeasure:
    """Build a measure from raw arrays; ``atomic`` may be a scalar or array."""
    pts = _as_point_array(points)
    w = np.asarray(weights, dtype=float).ravel()
    if np.isscalar(atomic) or np.asarray(atomic).ndim == 0:
        a = np.full(len(pts), bool(atomic))
    else:
        a = np.asarray(atomic, dtype=bool)
    return DiscreteMeasure(pts.shape[1], pts, w, a, cell_size)


def _grid_centers(corner, side, h, dimension):
    if not (0 < h < np.inf and 0 < side < np.inf):
        raise ParameterError(f"side {side} and spacing h {h} must be finite and positive")
    n_cells = int(round(side / h))
    if not np.isclose(n_cells * h, side, rtol=1e-12):
        raise ParameterError("side must be an integer multiple of the spacing h")
    axes = []
    corner = np.asarray(corner, dtype=float).ravel()
    if len(corner) != dimension:
        raise ParameterError("corner has wrong dimension")
    for k in range(dimension):
        axes.append(corner[k] + (np.arange(n_cells) + 0.5) * h)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def lebesgue_grid(corner, side, h, dimension=1) -> DiscreteMeasure:
    """Discretize Lebesgue measure on [corner, corner+side)^N at spacing h."""
    pts = _grid_centers(corner, side, h, dimension)
    w = np.full(len(pts), float(h) ** dimension)
    return DiscreteMeasure(dimension, pts, w, np.zeros(len(pts), bool), float(h))


def density_grid(density: Callable, corner, side, h, dimension=1) -> DiscreteMeasure:
    """Discretize the measure ``density(x) dx`` on a cube at spacing h."""
    pts = _grid_centers(corner, side, h, dimension)
    w = np.asarray(density(pts), dtype=float).ravel() * float(h) ** dimension
    keep = w > 0
    return DiscreteMeasure(dimension, pts[keep], w[keep], np.zeros(keep.sum(), bool), float(h))


def merge(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Sum of two measures; weights of exactly coincident points add.

    A point is atomic in the sum iff it is atomic in either part.  The
    cell_size survives only when both parts agree on it.
    """
    if mu.dimension != nu.dimension:
        raise ParameterError("cannot merge measures of different dimension")
    pts = np.concatenate([mu.points, nu.points])
    w = np.concatenate([mu.weights, nu.weights])
    a = np.concatenate([mu.atomic, nu.atomic])
    view = _rows_view(pts)
    uniq, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    n = len(uniq)
    w_out = np.zeros(n)
    np.add.at(w_out, inverse, w)
    a_out = np.zeros(n, bool)
    np.logical_or.at(a_out, inverse, a)
    pts_out = pts[first]
    cell = mu.cell_size if (mu.cell_size == nu.cell_size) else None
    if cell is None and (len(mu) == 0 or len(nu) == 0):
        cell = mu.cell_size if len(nu) == 0 else nu.cell_size
    return DiscreteMeasure(mu.dimension, pts_out, w_out, a_out, cell)


# -- operations -----------------------------------------------------------


def decompose(mu: DiscreteMeasure) -> AtomDecomposition:
    """Split into continuous and atomic parts; their masses add to the total."""
    a = mu.atomic
    cont = DiscreteMeasure(
        mu.dimension, mu.points[~a], mu.weights[~a], np.zeros(int((~a).sum()), bool), mu.cell_size
    )
    atoms = DiscreteMeasure(
        mu.dimension, mu.points[a], mu.weights[a], np.ones(int(a.sum()), bool), None
    )
    return AtomDecomposition(cont, atoms)


def common_atoms(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Points tagged atomic in both measures, compared by exact coordinates.

    Returns a (k, N) array.  Exact equality is the policy: discretized data
    either collides exactly (shared grids) or not at all.
    """
    if mu.dimension != nu.dimension:
        raise ParameterError("measures must share a dimension")
    pa = mu.points[mu.atomic]
    pb = nu.points[nu.atomic]
    if len(pa) == 0 or len(pb) == 0:
        return np.empty((0, mu.dimension))
    mask = np.isin(_rows_view(pa), _rows_view(pb))
    out = pa[mask]
    order = np.lexsort(out.T[::-1])
    return out[order]


def reject_common_atoms(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    """Raise CommonAtomsError, carrying the shared atoms, when there are any."""
    shared = common_atoms(mu, nu)
    if len(shared):
        raise CommonAtomsError(
            f"measures share {len(shared)} atom(s), first at "
            f"{_point_tuple(shared[0])}",
            points=shared,
        )


def shared_point_indices(points_a, points_b) -> tuple[np.ndarray, np.ndarray]:
    """Indices (into points_a, into points_b) of the rows both arrays hold.

    This is the one rule for when two support points are the same point:
    coordinates compare as floats, so 0.0 and -0.0 agree.  Each array must
    hold pairwise distinct rows, as a measure's support does; the pairs come
    in the sorted order of the shared rows.
    """
    _, idx_a, idx_b = np.intersect1d(
        _rows_view(points_a), _rows_view(points_b), return_indices=True
    )
    return idx_a, idx_b


def restrict_to_cube(mu: DiscreteMeasure, corner, side: float) -> DiscreteMeasure:
    """Restriction to the half-open cube [corner, corner + side)^N.

    The result may be empty; emptiness is data, not an error.
    """
    corner = np.asarray(corner, dtype=float).ravel()
    if side <= 0:
        raise ParameterError("cube side must be positive")
    inside = np.all((mu.points >= corner) & (mu.points < corner + side), axis=1)
    return DiscreteMeasure(
        mu.dimension,
        mu.points[inside],
        mu.weights[inside],
        mu.atomic[inside],
        mu.cell_size,
    )


# -- file round trip ------------------------------------------------------


def save_measure(mu: DiscreteMeasure, path) -> None:
    Path(path).write_text(json.dumps(mu.to_dict(), sort_keys=True) + "\n")


def load_measure(path) -> DiscreteMeasure:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not a valid measure file: {exc}") from exc
    return DiscreteMeasure.from_dict(data)


def spec_arguments(arg_str: str, what: str) -> dict[str, str]:
    """The ``key=value`` items of an inline ``name:key=value,...`` spec.

    Keys are stripped; values stay raw strings for the caller to convert.
    An item without a value raises ``ParameterError`` naming ``what``.
    """
    args = {}
    if arg_str:
        for item in arg_str.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ParameterError(f"malformed {what} argument {item!r}")
            args[key.strip()] = val
    return args


def integral(value) -> int:
    """``int(value)`` for the integer parameters of specs and configs,
    refusing what ``int`` would truncate: 3, 3.0 and "3" give 3, while 3.5
    (or "3.5") raises ``ValueError`` for the caller to name."""
    number = int(value)
    if not isinstance(value, str) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number
