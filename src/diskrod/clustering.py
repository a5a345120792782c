"""Turn repeated stylus measurements of disk centers into an ordered curve.

Density-based clustering collapses the repeated points per disk into
centroids; greedy nearest-neighbor chaining from the base orders the
centroids into a backbone sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve3D
from .errors import ClusterCountMismatch, InvalidParams


@dataclass(frozen=True, eq=False)
class RawPointSet:
    """Unordered measurement points."""

    points: np.ndarray  # (n, 3), mm

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
            raise ValueError("points must be a non-empty (n, 3) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")


@dataclass(frozen=True, eq=False)
class ClusterResult:
    clusters: list[np.ndarray]   # point-index arrays, pairwise disjoint
    noise: np.ndarray            # indices in no cluster
    centroids: np.ndarray        # (k, 3) arithmetic means


# Cells are a hair smaller than eps / sqrt(3), so that any two points of one
# cell are within eps even after rounding: within a run of n points (see
# _grid) the cell arithmetic errs by under 4e-16 * n of a cell, far below the
# 1e-6 margin.
CELL_SIDE = (1.0 - 1e-6) / np.sqrt(3.0)
# A point within eps of another lies at most two cells away along each axis.
# Of that 5 x 5 x 5 block of offsets, AHEAD holds the 62 after (0, 0, 0) in
# key order, and ROWS the 25 (x, y) offsets of its rows of 5 cells along z.
BLOCK = np.stack(np.meshgrid(*[np.arange(-2, 3)] * 3, indexing="ij"), -1).reshape(-1, 3)
AHEAD = BLOCK[len(BLOCK) // 2 + 1:]
ROWS = BLOCK[2::5, :2]
AXES = np.arange(3)


def _sq_norm(d: np.ndarray) -> np.ndarray:
    """Squared length of each row of d, summed in x, y, z order; squares d in place."""
    d *= d
    return (d[:, 0] + d[:, 1]) + d[:, 2]


def _ragged(first: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(k, first[k] + t)`` with ``0 <= t < length[k]``, k ascending."""
    k = np.arange(len(first)).repeat(length)
    return k, np.arange(len(k)) + (first - length.cumsum() + length)[k]


def _grid(pts: np.ndarray, eps: float) -> np.ndarray:
    """Integer cell coordinates, (n, 3), of cells of side ``CELL_SIDE * eps``.

    Each axis is cut into runs wherever consecutive sorted coordinates are more
    than eps apart; no pair within eps straddles such a gap.  Each run is
    gridded from its own lowest value and placed three cells after the one
    before, out of its reach, so coordinates stay below 3n and their
    arithmetic exact however far apart the runs lie.  Coordinates start at 2,
    leaving room for offsets of -2.
    """
    order = pts.argsort(axis=0)
    xs = pts[order, AXES]
    split = (xs[1:] - xs[:-1]) ** 2 > eps * eps
    run_start = np.maximum.accumulate(np.concatenate([xs[:1], np.where(split, xs[1:], -np.inf)]))
    step = np.floor((xs - run_start) / (CELL_SIDE * eps))
    step[1:] = np.where(split, 3.0, step[1:] - step[:-1])
    step[0] = 2.0
    coord = np.empty(xs.shape, dtype=np.intp)
    coord[order, AXES] = step.cumsum(axis=0)
    return coord


def _join(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Roots after linking every ``a[k]`` with ``b[k]``, from fully jumped roots
    with ``root[k] <= k``.

    Hooks each pair's higher root under its lower one and pointer-jumps until
    no pair's roots differ (Shiloach & Vishkin, J. Algorithms 1982).  Roots
    only decrease, so every component ends rooted at its lowest node.
    """
    root = root.copy()
    while True:
        a, b = root[a], root[b]
        if (a == b).all():
            return root
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        jumped = root[root]
        while (jumped != root).any():
            root, jumped = jumped, jumped[jumped]


def dbscan(points: RawPointSet, eps: float, min_pts: int) -> ClusterResult:
    """Density-based clustering with deterministic border assignment.

    A point is core when it has >= min_pts neighbors within eps (itself
    included, distance <= eps).  Clusters are the connected components of
    core points under the eps-neighborhood graph, numbered in order of their
    lowest-indexed core point; non-core points join the cluster of their
    lowest-indexed core neighbor, or become noise (Ester et al., KDD 1996).

    They are found exactly without listing every neighbor pair, on a grid
    (Gan & Tao, SIGMOD 2015): in cells of side just under eps / sqrt(3) any
    two points are neighbors, so a cell of >= min_pts points holds only core
    points, and only the points of sparser cells have their neighbors counted,
    among the 5 x 5 x 5 cells around their own.  Two dense cells are linked
    when some pair of their points is within eps, which their bounding boxes
    mostly decide.  Components come from hooking each link's higher root
    under its lower one and pointer jumping (Shiloach & Vishkin,
    J. Algorithms 1982).  Memory grows with n plus the point pairs in the
    blocks around points of sparse cells.
    """
    if not 0.0 < eps < np.inf or min_pts < 1:  # also rejects NaN
        raise InvalidParams(f"eps={eps}, min_pts={min_pts}")
    pts = points.points
    n = len(pts)
    eps2 = eps * eps

    # cells in key order, their points listed cell by cell in index order;
    # ravel_multi_index raises if the keys outgrow int64 (~700k points at worst)
    coord = _grid(pts, eps)
    dims = coord.max(axis=0) + 3
    stride = np.array([dims[1] * dims[2], dims[2], 1])
    key = np.ravel_multi_index(coord.T, dims)
    by_cell = key.argsort(kind="stable")
    sorted_key = key[by_cell]
    new = np.ones(n + 1, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new[1:n])
    start = new.nonzero()[0]
    keys, count, head = sorted_key[start[:-1]], start[1:] - start[:-1], by_cell[start[:-1]]
    sorted_pts = pts[by_cell]

    # Cells of >= min_pts points hold only core points, each rooted at its
    # cell's lowest point.  Two such cells are linked outright when their
    # bounding boxes are within eps at the far corners, and otherwise by a
    # pair of points, unless other links already join them.
    dense = count >= min_pts
    in_dense = dense.repeat(count)
    root = np.empty(n, dtype=np.intp)
    root[by_cell] = np.where(in_dense, head.repeat(count), by_cell)
    d = dense.nonzero()[0]
    target = keys[d][:, None] + AHEAD @ stride
    hit = np.minimum(keys.searchsorted(target), len(keys) - 1)
    u, v = ((keys[hit] == target) & dense[hit]).nonzero()
    a, b = d[u], hit[u, v]
    box_lo = np.minimum.reduceat(sorted_pts, start[:-1], axis=0)
    box_hi = np.maximum.reduceat(sorted_pts, start[:-1], axis=0)
    surely = _sq_norm(np.maximum(box_hi[a] - box_lo[b], box_hi[b] - box_lo[a])) <= eps2

    # points of the other cells against every point of their block, row by row
    lone = by_cell[~in_dense]
    row = (sorted_key[~in_dense][:, None] + ROWS @ stride[:2]).ravel()
    first = sorted_key.searchsorted(row - 2)
    u, t = _ragged(first, sorted_key.searchsorted(row + 2, side="right") - first)
    i, j = lone[u // len(ROWS)], by_cell[t]
    near = _sq_norm(pts[i] - sorted_pts[t]) <= eps2
    i, j = i[near], j[near]
    core = np.bincount(i, minlength=n) >= min_pts
    core[by_cell[in_dense]] = True
    ci, cj = core[i], core[j]
    lowest = np.full(n, n)  # border points: lowest-indexed core neighbor decides
    np.minimum.at(lowest, i[~ci & cj], j[~ci & cj])

    root = _join(root, np.concatenate([head[a[surely]], i[ci & cj]]),
                 np.concatenate([head[b[surely]], j[ci & cj]]))
    if not surely.all():  # test the point pairs of undecided cell pairs still apart
        a, b = a[~surely], b[~surely]
        apart = root[head[a]] != root[head[b]]
        a, b = a[apart], b[apart]
        u, s = _ragged(start[a], count[a])
        v, t = _ragged(start[b[u]], count[b[u]])
        linked = np.bincount(u[v][_sq_norm(sorted_pts[s[v]] - sorted_pts[t]) <= eps2],
                             minlength=len(a)) > 0
        root = _join(root, head[a[linked]], head[b[linked]])

    # clusters numbered by their lowest-indexed core point, the root of each
    is_root = core & (root == np.arange(n))
    labels = np.where(core, (is_root.cumsum() - 1)[root], -1)
    border = lowest < n
    labels[border] = labels[lowest[border]]

    # members in index order; centroids summed in that order, as a mean is
    n_clusters = np.count_nonzero(is_root)
    order = labels.argsort(kind="stable")
    size = np.bincount(labels + 1, minlength=n_clusters + 1)
    end = size.cumsum().tolist()
    sums = np.zeros((n_clusters + 1, 3))
    np.add.at(sums, labels + 1, pts)
    return ClusterResult(clusters=[order[s:e] for s, e in zip(end, end[1:])],
                         noise=order[:end[0]], centroids=sums[1:] / size[1:, None])


def centers_to_curve(result: ClusterResult, expected_count: int, base_hint) -> Curve3D:
    """Order centroids by greedy nearest-neighbor chaining from the base."""
    centroids = np.asarray(result.centroids, dtype=float)
    if len(centroids) != expected_count:
        raise ClusterCountMismatch(len(centroids), expected_count)
    base_hint = np.asarray(base_hint, dtype=float)
    remaining = list(range(len(centroids)))
    order = []
    current = base_hint
    while remaining:
        dists = [float(np.linalg.norm(centroids[i] - current)) for i in remaining]
        pick = remaining.pop(int(np.argmin(dists)))
        order.append(pick)
        current = centroids[pick]
    return Curve3D(centroids[order])
