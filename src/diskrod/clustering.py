"""Turn repeated stylus measurements of disk centers into an ordered curve.

Density-based clustering collapses the repeated points per disk into
centroids; greedy nearest-neighbor chaining from the base orders the
centroids into a backbone sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

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
    included, distance <= eps).  Clusters are the connected components of
    core points under the eps-neighborhood graph, numbered in order of their
    lowest-indexed core point; non-core points join the cluster of their
    lowest-indexed core neighbor, or become noise.  Neighbors come from a
    KD-tree pair query (Ester et al., KDD 1996), so memory grows with n plus
    the number of neighbor pairs.
    """
    # imported here: only clustering needs csgraph, which adds about 1 MB to
    # every process that imports diskrod
    from scipy.sparse.csgraph import connected_components

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
    del ci, cj, to_j, to_i  # held through the graph build, they add ~2.6 MB to peak RSS at n=5000

    graph = csr_matrix((np.ones(linked.sum(), dtype=np.int8), (i[linked], j[linked])),
                       shape=(n, n))
    n_parts, part = connected_components(graph, directed=False)
    # core indices ascend, so first occurrences give each cluster's lowest core point
    found, first = np.unique(part[core], return_index=True)
    renumber = np.full(n_parts, -1)
    renumber[found[np.argsort(first)]] = np.arange(len(found))
    labels = renumber[part]  # non-core points are lone parts: -1 for now
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
    return arc_length_parameterize(centroids[order])
