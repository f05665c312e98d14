"""Finite discrete representations of Radon measures on R^N.

A measure is a finite list of distinct support points with strictly positive
weights.  Points tagged ``atomic`` represent genuine atoms; untagged points
are cells of a discretized continuous measure (a density ``w dx`` sampled on
a grid of spacing ``h`` contributes weight ``w(x_cell) * h**N`` at each cell
center).  The ``cell_size`` field records that spacing when it exists.
"""

from __future__ import annotations

import json
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
    "project_function",
    "restrict_to_cube",
    "save_measure",
    "load_measure",
    "spec_arguments",
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


def pairwise_distances(points, centers) -> np.ndarray:
    """Euclidean distances from each center (a row) to each point (a row),
    shape (len(centers), len(points)).

    The squared coordinate differences are added in coordinate order, so
    one distance has the same bits whatever block of centers it is part of
    (``np.linalg.norm`` agrees below eight dimensions only).  Two (len(centers),
    len(points)) arrays are the whole working memory.
    """
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    squares = np.zeros((len(centers), len(points)))
    diff = np.empty_like(squares)
    for i in range(points.shape[1]):
        np.subtract(points[None, :, i], centers[:, i, None], out=diff)
        squares += np.multiply(diff, diff, out=diff)
    return np.sqrt(squares, out=squares)


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

    def mass_in_cube(self, corner, side: float) -> float:
        """Mass of the half-open cube [corner, corner + side)^N."""
        corner = np.asarray(corner, dtype=float).ravel()
        inside = np.all(
            (self.points >= corner) & (self.points < corner + side), axis=1
        )
        return float(np.sum(self.weights[inside]))

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


def project_function(values, mu: DiscreteMeasure, part: str) -> np.ndarray:
    """Restrict a function on supp(mu) to the continuous or atomic part.

    ``values`` is indexed like ``mu.points``; entries on the other part are
    zeroed, so projections onto the two parts add back to the original.
    """
    if part not in ("continuous", "atomic"):
        raise ParameterError("part must be 'continuous' or 'atomic'")
    vals = np.asarray(values)
    if vals.shape[0] != len(mu):
        raise ParameterError("function values must be indexed like the support")
    keep = mu.atomic if part == "atomic" else ~mu.atomic
    out = np.array(vals, copy=True)
    out[~keep] = 0
    return out


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
