"""Turn repeated stylus measurements of disk centers into an ordered curve.

Density-based clustering collapses the repeated points per disk into
centroids; greedy nearest-neighbor chaining from the base orders the
centroids into a backbone sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve3D, arc_length_parameterize
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
    included).  Clusters are the connected components of core points under
    the eps-neighborhood graph; non-core points join the cluster of their
    lowest-indexed core neighbor, or become noise.
    """
    if not 0.0 < eps < np.inf or min_pts < 1:  # also rejects NaN
        raise InvalidParams(f"eps={eps}, min_pts={min_pts}")
    pts = points.points
    n = len(pts)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    neighbor = d2 <= eps * eps
    counts = neighbor.sum(axis=1)
    core = counts >= min_pts

    labels = np.full(n, -1, dtype=int)
    n_clusters = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        # breadth-first expansion over core points
        labels[i] = n_clusters
        queue = [i]
        while queue:
            j = queue.pop()
            for k in np.nonzero(neighbor[j] & core)[0]:
                if labels[k] == -1:
                    labels[k] = n_clusters
                    queue.append(int(k))
        n_clusters += 1

    # border points: lowest-indexed core neighbor decides the cluster
    for i in range(n):
        if core[i]:
            continue
        core_nbrs = np.nonzero(neighbor[i] & core)[0]
        if core_nbrs.size:
            labels[i] = labels[core_nbrs[0]]

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
    return arc_length_parameterize(centroids[order])
