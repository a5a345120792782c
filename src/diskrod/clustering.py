"""Turn repeated stylus measurements of disk centers into an ordered curve.

Density-based clustering collapses the repeated points per disk into
centroids; greedy nearest-neighbor chaining from the base orders the
centroids into a backbone sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

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


def dbscan(points: RawPointSet, eps: float, min_pts: int) -> ClusterResult:
    """Density-based clustering with deterministic border assignment.

    A point is core when it has >= min_pts neighbors within eps (itself
    included, distance <= eps).  Clusters are the connected components of
    core points under the eps-neighborhood graph, numbered in order of their
    lowest-indexed core point; non-core points join the cluster of their
    lowest-indexed core neighbor, or become noise.  Neighbors come from a
    KD-tree pair query (Ester et al., KDD 1996), and components from hooking
    each core-core pair's higher root under its lower one and pointer
    jumping (Shiloach & Vishkin, J. Algorithms 1982), so memory grows with n
    plus the number of neighbor pairs.
    """
    if not 0.0 < eps < np.inf or min_pts < 1:  # also rejects NaN
        raise InvalidParams(f"eps={eps}, min_pts={min_pts}")
    pts = points.points
    n = len(pts)
    i, j = cKDTree(pts).query_pairs(eps, output_type="ndarray").T  # each pair once, i < j
    core = 1 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n) >= min_pts

    ci, cj = core[i], core[j]
    linked = ci & cj
    # border points: lowest-indexed core neighbor decides the cluster
    lowest = np.full(n, n)
    to_j, to_i = ci & ~cj, cj & ~ci
    np.minimum.at(lowest, np.concatenate([j[to_j], i[to_i]]), np.concatenate([i[to_j], j[to_i]]))
    a, b = i[linked], j[linked]
    del i, j, ci, cj, linked, to_j, to_i  # kept alive, they add ~10 MB to peak RSS at n=5000

    # root[k] <= k always, so every component ends rooted at its lowest core point
    root = np.arange(n)
    while len(a):  # pairs (a < b) whose roots still differ
        np.minimum.at(root, b, a)
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
        a = root[a]
        b = root[b]
        keep = a != b
        a, b = a[keep], b[keep]
        a, b = np.minimum(a, b), np.maximum(a, b)
    found = np.unique(root[core])  # each cluster's lowest core point, ascending
    labels = np.full(n, -1)
    labels[found] = np.arange(len(found))
    labels = labels[root]  # non-core points are their own roots: -1 for now
    n_clusters = len(found)
    border = lowest < n
    labels[border] = labels[lowest[border]]

    clusters = [np.nonzero(labels == c)[0] for c in range(n_clusters)]
    noise = np.nonzero(labels == -1)[0]
    centroids = np.array([pts[c].mean(axis=0) for c in clusters]).reshape(n_clusters, 3)
    return ClusterResult(clusters=clusters, noise=noise, centroids=centroids)


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
