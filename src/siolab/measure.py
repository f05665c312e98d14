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
    "build",
    "from_spec",
    "integral",
    "generate_measure",
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


def _point_ids(*blocks) -> tuple:
    """``_row_ids`` for the float point rows of one or more arrays: the one
    rule for when two support points are the same point.

    Two rows get one id exactly when they compare equal as floats, so 0.0
    and -0.0 agree, and ids keep lexicographic float order: the rows are
    matched on the int64 key ``bits ^ ((bits >> 63) & (2**63 - 1))`` of each
    coordinate of ``points + 0.0``, which orders as the floats do.  The
    distinct rows come back as floats; when each block's rows are distinct,
    a row of several blocks comes from the earliest, its zeros' signs too.
    """
    keys = [(np.asarray(b, dtype=float) + 0.0).view(np.int64) for b in blocks]
    distinct, *ids = _row_ids(*(k ^ ((k >> 63) & (2**63 - 1)) for k in keys))
    rows = np.empty(distinct.shape)
    for block, block_ids in zip(blocks[::-1], ids[::-1]):
        rows[block_ids] = block
    return (rows, *ids)


def _on_lattice(points: np.ndarray, h: float) -> bool:
    """Whether all rows lie on one lattice of spacing h (any offset)."""
    rel = (points - points[:1]) / h
    return bool(np.allclose(rel, np.round(rel), atol=_LATTICE_RTOL))


# -- neighbour search -----------------------------------------------------


def _find(table: np.ndarray, x: np.ndarray) -> tuple:
    """Where x's entries go in the ascending ``table``, clipped into it, and
    whether they are there."""
    at = np.minimum(np.searchsorted(table, x), len(table) - 1)
    return at, table[at] == x


def _cell_join(cells_a: np.ndarray, cells_b: np.ndarray):
    """``pairs(offset, limit=inf)``: the index pairs (ia, ib) with
    cells_a[ia] + offset == cells_b[ib], ia ascending and ib ascending for
    each ia, or None when there are more than ``limit``.

    Each side's integer rows are sorted once for all offsets.  Column by
    column, the first c + 1 entries of a row of cells_b are ranked as the
    pair (rank of the first c, rank of entry c among the column's values);
    the rows of cells_a + offset follow those ranks by binary search, in
    the lexicographic order that adding an offset keeps.
    """
    cells_b = np.asarray(cells_b, dtype=np.int64)
    if not len(cells_b):
        return lambda offset, limit=math.inf: (np.empty(0, np.int64),) * 2
    columns = []  # per column: its distinct values and distinct pair keys
    ids_b = np.zeros(len(cells_b), np.int64)
    for col in cells_b.T:
        values, ranks = np.unique(col, return_inverse=True)
        keys, ids_b = np.unique(ids_b * len(values) + ranks, return_inverse=True)
        columns.append((values, keys))
    # a miss takes the last id, which counts no row
    per_id = np.append(np.bincount(ids_b), 0)
    first = np.cumsum(per_id) - per_id  # offset of each id in ``order_b``
    order_b = np.argsort(ids_b, kind="stable")
    cells_a = np.asarray(cells_a, dtype=np.int64)
    order_a = np.lexsort(cells_a.T[::-1])
    sorted_a = cells_a[order_a]

    def pairs(offset, limit=math.inf):
        ids = np.zeros(len(cells_a), np.int64)
        hit = np.ones(len(cells_a), bool)
        for col, step, (values, keys) in zip(sorted_a.T, offset, columns):
            rank, found = _find(values, col + step)
            ids, known = _find(keys, ids * len(values) + rank)
            hit &= found & known
        ids[order_a] = np.where(hit, ids, len(per_id) - 1)
        counts = per_id[ids]
        if counts.sum() > limit:
            return None
        starts = np.cumsum(counts) - counts
        ia = np.repeat(np.arange(len(cells_a)), counts)
        ib = order_b[np.arange(len(ia)) - np.repeat(starts - first[ids], counts)]
        return ia, ib

    return pairs


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
    join = _cell_join(cells, cells)
    found_i, found_j = [], []
    for offset in itertools.product((-1, 0, 1), repeat=points.shape[1]):
        if offset < zero:
            continue
        pairs = join(offset, limit)
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
        if len(_point_ids(pts)[0]) != len(pts):
            raise ParameterError("support points must be pairwise distinct")
        if self.cell_size is not None:
            h = float(self.cell_size)
            if not (h > 0 and np.isfinite(h)):
                raise ParameterError("cell_size must be a positive real")
            if not _on_lattice(pts[~a], h):
                raise ParameterError(
                    f"non-atomic points do not lie on a lattice of spacing {h}"
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


def _components(vector: np.ndarray, dimension: int, key: str) -> np.ndarray:
    """A vector parameter with ``dimension`` components; one value repeats."""
    if vector.size == 1:
        vector = np.full(dimension, vector[0])
    if vector.size != dimension:
        raise ParameterError(f"{key} must have {dimension} components")
    return vector


def _lebesgue(corner, side, h, dimension, seed) -> DiscreteMeasure:
    return lebesgue_grid(_components(corner, dimension, "corner"), side, h, dimension)


def _interleaved(corner, side, h, dimension, part, seed):
    """The pair (mu, nu) of half-cell-offset grids sharing no points, or
    part 1 or 2 of it; part 0 means no part was given."""
    if part not in (0, 1, 2):
        raise ParameterError(f"interleaved_grids part must be 1 or 2, got {part}")
    pair = tuple(_lebesgue(c, side, h, dimension, seed) for c in (corner, corner + h / 2.0))
    return pair[part - 1] if part else pair


def _random_atoms(n, low, high, dimension, seed) -> DiscreteMeasure:
    if not (low < high and math.isfinite(high - low)):
        raise ParameterError(
            f"random_atoms needs finite low < high, got low={low}, high={high}"
        )
    rng = np.random.default_rng(seed)
    pts = rng.uniform(low, high, (n, dimension))
    return from_points(pts, rng.uniform(0.5, 1.5, n) / n, atomic=True)


def _ball_uniform(n, radius, center, dimension, seed) -> DiscreteMeasure:
    center = _components(center, dimension, "center")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, dimension))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    rr = radius * rng.random(n) ** (1.0 / dimension)
    return from_points(center + raw * rr[:, None], np.full(n, 1.0 / n))


def density_grid(density: Callable, corner, side, h, dimension=1) -> DiscreteMeasure:
    """Discretize the measure ``density(x) dx`` on a cube at spacing h."""
    pts = _grid_centers(corner, side, h, dimension)
    w = np.asarray(density(pts), dtype=float).ravel() * float(h) ** dimension
    keep = w > 0
    return DiscreteMeasure(dimension, pts[keep], w[keep], np.zeros(keep.sum(), bool), float(h))


def merge(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Sum of two measures; weights of points that ``_point_ids`` finds in
    both add, and such a point keeps mu's coordinates.

    A point is atomic in the sum iff it is atomic in either part.  The
    cell_size survives when both parts agree on it, or when one part is
    empty, and only if the sum's non-atomic points lie on one lattice of
    that spacing: two grids of one spacing on offset lattices sum to a
    measure without one.
    """
    if mu.dimension != nu.dimension:
        raise ParameterError("cannot merge measures of different dimension")
    pts, ids_mu, ids_nu = _point_ids(mu.points, nu.points)
    ids = np.concatenate([ids_mu, ids_nu])
    w = np.bincount(ids, np.concatenate([mu.weights, nu.weights]), len(pts))
    a = np.bincount(ids, np.concatenate([mu.atomic, nu.atomic]), len(pts)) > 0
    cell = mu.cell_size if (mu.cell_size == nu.cell_size) else None
    if cell is None and (len(mu) == 0 or len(nu) == 0):
        cell = mu.cell_size if len(nu) == 0 else nu.cell_size
    if cell is not None and not _on_lattice(pts[~a], float(cell)):
        cell = None
    return DiscreteMeasure(mu.dimension, pts, w, a, cell)


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
    """Points tagged atomic in both measures, matched by
    ``shared_point_indices``, as a (k, N) array in its order.

    Exact equality is the policy: discretized data either collides exactly
    (shared grids) or not at all.
    """
    if mu.dimension != nu.dimension:
        raise ParameterError("measures must share a dimension")
    pa = mu.points[mu.atomic]
    return pa[shared_point_indices(pa, nu.points[nu.atomic])[0]]


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

    Rows are the same point when ``_point_ids`` gives them one id, so 0.0
    and -0.0 agree.  Each array must hold pairwise distinct rows, as a
    measure's support does; the pairs come in lexicographic float order of
    the shared rows.
    """
    _, ids_a, ids_b = _point_ids(points_a, points_b)
    _, idx_a, idx_b = np.intersect1d(ids_a, ids_b, assume_unique=True, return_indices=True)
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


# -- inline specs: one reader for the measure, kernel and mollifier catalogs

REQUIRED = object()  # the default of a catalog key that has none


def _typed(text: str):
    """int, float or text, the first that ``text`` reads as."""
    for cast in (int, float, str):
        try:
            return cast(text)
        except ValueError:
            pass


def spec_arguments(arg_str: str, what: str) -> dict:
    """The ``key=value`` items of an inline ``name:key=value,...`` spec.

    Keys are stripped and lower-cased; values are stripped and typed as int,
    float or text, a value with ``;`` as the list of its typed components.
    An item without a value, or a key given twice, raises ``ParameterError``
    naming ``what``.
    """
    args = {}
    if arg_str:
        for item in arg_str.split(","):
            key, _, val = item.partition("=")
            key, val = key.strip().lower(), val.strip()
            if not val:
                raise ParameterError(f"malformed {what} argument {item!r}")
            if key in args:
                raise ParameterError(f"{what} argument {key!r} given twice")
            parts = [_typed(v) for v in val.split(";")]
            args[key] = parts if len(parts) > 1 else parts[0]
    return args


def build(name: str, params: dict, catalog: dict, what: str, **fixed):
    """``builder(*values, **fixed)`` for the entry ``name -> (builder,
    {key: (default, cast)})`` of a catalog: the values are ``params`` over
    the defaults, cast, in the entry's key order.  An unknown name or key,
    a missing ``REQUIRED`` key or a value the cast refuses raises
    ``ParameterError`` naming ``what``, the name and the key."""
    if name not in catalog:
        raise ParameterError(f"unknown {what} {name!r}; known: {', '.join(catalog)}")
    builder, keys = catalog[name]
    extra = [key for key in params if key not in keys]
    if extra:
        raise ParameterError(f"unknown {what} {name} parameter {extra[0]!r}; known: {list(keys)}")
    values = []
    for key, (default, cast) in keys.items():
        value = params.get(key, default)
        if value is REQUIRED:
            raise ParameterError(f"{what} {name} needs parameter {key}=...")
        try:
            values.append(cast(value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(
                f"{what} {name} parameter {key} has an invalid value {value!r}: {exc}"
            ) from exc
    return builder(*values, **fixed)


def from_spec(spec, catalog: dict, what: str, **fixed):
    """``build`` for the inline spec ``name:key=value,...``."""
    if not isinstance(spec, str):
        raise ParameterError(f"a {what} spec must be a string, got {spec!r}")
    name, _, arg_str = spec.partition(":")
    return build(name, spec_arguments(arg_str, what), catalog, what, **fixed)


def integral(value) -> int:
    """``int(value)`` for the integer parameters of specs and configs,
    refusing what ``int`` would truncate: 3, 3.0 and "3" give 3, while 3.5
    (or "3.5") raises ``ValueError`` for the caller to name."""
    number = int(value)
    if not isinstance(value, str) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _count(value) -> int:
    """``integral(value)``, which must be at least 1."""
    n = integral(value)
    if n < 1:
        raise ValueError(f"{value!r} is less than 1")
    return n


def _vector(value) -> np.ndarray:
    return np.asarray(value, dtype=float).ravel()


_GRID_KEYS = {
    "corner": (0.0, _vector), "side": (1.0, float), "h": (2.0**-6, float),
    "dimension": (1, _count),
}

GENERATORS = {
    "lebesgue_grid": (_lebesgue, _GRID_KEYS),
    "interleaved_grids": (_interleaved, {**_GRID_KEYS, "part": (0, integral)}),
    "random_atoms": (_random_atoms, {
        "n": (8, _count), "low": (0.0, float), "high": (1.0, float),
        "dimension": (1, _count),
    }),
    "ball_uniform": (_ball_uniform, {
        "n": (256, _count), "radius": (1.0, float), "center": (0.0, _vector),
        "dimension": (2, _count),
    }),
}


def generate_measure(kind: str, params: dict, seed: int):
    """``build`` for a ``GENERATORS`` kind: a measure, or the pair (mu, nu)."""
    return build(kind, params, GENERATORS, "measure", seed=seed)
