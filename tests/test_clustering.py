import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from diskrod import clustering
from diskrod.clustering import RawPointSet, centers_to_curve, dbscan
from diskrod.errors import ClusterCountMismatch, InvalidParams, TooFewPoints


def blob_instance(seed, n_blobs=9, pts_per_blob=8, sigma=1.0, spacing=70.0):
    rng = np.random.default_rng(seed)
    centers = np.column_stack([
        spacing * (np.arange(n_blobs) % 3),
        spacing * (np.arange(n_blobs) // 3),
        rng.uniform(-5, 5, n_blobs),
    ])
    pts = np.vstack([c + rng.normal(0, sigma, (pts_per_blob, 3)) for c in centers])
    return RawPointSet(points=pts), centers


def oracle_labels(points, eps, min_pts):
    """Independent density-reachability oracle via sparse graph components:
    a cluster number per point, in order of each cluster's lowest-indexed core
    point, and -1 for noise."""
    pts = np.asarray(points, float)
    n = len(pts)
    d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, axis=2)
    nbr = d2 <= eps * eps
    core = nbr.sum(axis=1) >= min_pts
    core_idx = np.nonzero(core)[0]
    labels = np.full(n, -1)
    if core_idx.size:
        sub = nbr[np.ix_(core_idx, core_idx)]
        n_comp, comp = connected_components(csr_matrix(sub), directed=False)
        # relabel components by their smallest member for a canonical order
        order = {}
        for local, i in enumerate(core_idx):
            order.setdefault(comp[local], len(order))
        for local, i in enumerate(core_idx):
            labels[i] = order[comp[local]]
        for i in np.nonzero(~core)[0]:
            reach = core_idx[nbr[i, core_idx]]
            if reach.size:
                labels[i] = labels[reach.min()]
    return labels


def oracle_partition(points, eps, min_pts):
    labels = oracle_labels(points, eps, min_pts)
    clusters = [frozenset(np.nonzero(labels == c)[0]) for c in range(labels.max() + 1)]
    noise = frozenset(np.nonzero(labels == -1)[0])
    return set(clusters), noise


def labels_of(result, n):
    """The cluster number of each of n points, -1 for noise."""
    labels = np.full(n, -1)
    for c, members in enumerate(result.clusters):
        labels[members] = c
    return labels


def as_partition(result):
    return set(frozenset(c) for c in result.clusters), frozenset(result.noise)


def test_nine_blobs_recovered():
    raw, centers = blob_instance(seed=11)
    result = dbscan(raw, eps=5.0, min_pts=4)
    assert len(result.clusters) == 9
    assert len(result.noise) == 0
    for got in result.centroids:
        nearest = centers[np.argmin(np.linalg.norm(centers - got, axis=1))]
        assert np.linalg.norm(got - nearest) <= 3.0 / np.sqrt(8)


def test_centroids_are_member_means():
    raw, _ = blob_instance(seed=4)
    result = dbscan(raw, eps=5.0, min_pts=4)
    for members, centroid in zip(result.clusters, result.centroids):
        assert np.linalg.norm(raw.points[members].mean(axis=0) - centroid) <= 1e-9


def test_singleton_core_point():
    result = dbscan(RawPointSet(points=np.array([[1.0, 2.0, 3.0]])), eps=1.0, min_pts=1)
    assert len(result.clusters) == 1
    assert list(result.clusters[0]) == [0]
    assert len(result.noise) == 0
    result = dbscan(RawPointSet(points=np.array([[1.0, 2.0, 3.0]])), eps=1.0, min_pts=2)
    assert result.clusters == [] and result.centroids.shape == (0, 3)
    assert list(result.noise) == [0]


def test_sparse_collinear_points_all_noise():
    pts = np.column_stack([np.arange(5) * 10.0, np.zeros(5), np.zeros(5)])
    result = dbscan(RawPointSet(points=pts), eps=1.0, min_pts=2)
    assert result.clusters == []
    assert len(result.noise) == 5


def test_points_without_neighbors_are_lone_clusters_at_min_pts_1():
    pts = np.column_stack([np.arange(5) * 10.0, np.zeros(5), np.zeros(5)])
    result = dbscan(RawPointSet(points=pts), eps=1.0, min_pts=1)
    assert [c.tolist() for c in result.clusters] == [[i] for i in range(5)]
    np.testing.assert_array_equal(result.centroids, pts)
    assert len(result.noise) == 0


def test_invalid_params():
    raw = RawPointSet(points=np.zeros((3, 3)) + np.arange(3)[:, None])
    with pytest.raises(InvalidParams):
        dbscan(raw, eps=0.0, min_pts=3)
    with pytest.raises(InvalidParams):
        dbscan(raw, eps=1.0, min_pts=0)
    for eps in (float("nan"), float("inf")):
        with pytest.raises(InvalidParams):
            dbscan(raw, eps=eps, min_pts=3)


def test_permutation_invariance():
    raw, _ = blob_instance(seed=2)
    base = dbscan(raw, eps=5.0, min_pts=4)
    base_parts = set(frozenset(raw.points[c][:, 0].round(6).tolist()) for c in base.clusters)
    rng = np.random.default_rng(9)
    for _ in range(5):
        perm = rng.permutation(len(raw.points))
        shuffled = dbscan(RawPointSet(points=raw.points[perm]), eps=5.0, min_pts=4)
        parts = set(frozenset(raw.points[perm][c][:, 0].round(6).tolist())
                    for c in shuffled.clusters)
        assert parts == base_parts


def test_far_outlier_is_noise_and_harmless():
    raw, _ = blob_instance(seed=5)
    base = dbscan(raw, eps=5.0, min_pts=4)
    outlier = np.array([[500.0, 500.0, 500.0]])  # > 10 eps from everything
    extended = dbscan(RawPointSet(points=np.vstack([raw.points, outlier])),
                      eps=5.0, min_pts=4)
    assert as_partition(base)[0] == as_partition(extended)[0]
    assert len(raw.points) in extended.noise


@pytest.mark.parametrize("seed", range(8))
def test_membership_matches_reachability_oracle(seed):
    rng = np.random.default_rng(seed)
    raw, _ = blob_instance(seed=seed, n_blobs=6, pts_per_blob=12, sigma=2.0)
    pts = np.vstack([raw.points, rng.uniform(-50, 250, (12, 3))])
    result = dbscan(RawPointSet(points=pts), eps=6.0, min_pts=4)
    got = as_partition(result)
    want = oracle_partition(pts, eps=6.0, min_pts=4)
    assert got == want


def test_every_member_density_reachable():
    raw, _ = blob_instance(seed=13, pts_per_blob=15, sigma=2.5)
    eps, min_pts = 5.0, 4
    result = dbscan(raw, eps=eps, min_pts=min_pts)
    pts = raw.points
    d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, axis=2)
    nbr = d2 <= eps * eps
    core = nbr.sum(axis=1) >= min_pts
    for members in result.clusters:
        members = set(members.tolist())
        cluster_cores = [i for i in members if core[i]]
        assert cluster_cores
        # BFS over core points only; border points are leaves
        seen = {cluster_cores[0]}
        frontier = [cluster_cores[0]]
        while frontier:
            j = frontier.pop()
            for k in np.nonzero(nbr[j])[0]:
                if k in members and k not in seen:
                    seen.add(int(k))
                    if core[k]:
                        frontier.append(int(k))
        assert seen == members


@st.composite
def clouds(draw):
    """Gaussian blobs, uniform noise and repeated points, with eps and min_pts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [rng.normal(rng.uniform(0.0, 60.0, 3), draw(st.floats(0.3, 4.0)),
                        (draw(st.integers(1, 25)), 3))
             for _ in range(draw(st.integers(0, 4)))]
    parts.append(rng.uniform(0.0, 60.0, (draw(st.integers(0, 30)), 3)))
    pts = np.vstack(parts)
    if len(pts) == 0:
        pts = rng.uniform(0.0, 60.0, (1, 3))
    pts = np.vstack([pts, pts[rng.integers(0, len(pts), draw(st.integers(0, 10)))]])
    return pts, draw(st.floats(0.2, 15.0)), draw(st.integers(1, 8))


@settings(max_examples=200, deadline=None)
@given(clouds())
def test_partition_matches_oracle_on_drawn_clouds(cloud):
    pts, eps, min_pts = cloud
    assert as_partition(dbscan(RawPointSet(points=pts), eps, min_pts)) == \
        oracle_partition(pts, eps, min_pts)


@settings(max_examples=100, deadline=None)
@given(clouds(), st.integers(0, 2**32 - 1))
def test_partition_is_permutation_invariant(cloud, seed):
    # a border point within eps of core points of two clusters joins the one
    # with the lowest-indexed core neighbor, which an order change may switch
    pts, eps, min_pts = cloud
    perm = np.random.default_rng(seed).permutation(len(pts))
    base = dbscan(RawPointSet(points=pts), eps, min_pts)
    shuffled = dbscan(RawPointSet(points=pts[perm]), eps, min_pts)
    nbr = np.sum((pts[:, None] - pts[None, :]) ** 2, axis=2) <= eps * eps
    core = nbr.sum(axis=1) >= min_pts
    label = np.full(len(pts), -1)
    for c, members in enumerate(base.clusters):
        label[members] = c
    reach = [set(label[nbr[i] & core]) for i in range(len(pts))]
    ambiguous = {i for i in range(len(pts)) if not core[i] and len(reach[i]) > 1}
    moved = [set(perm[c].tolist()) for c in shuffled.clusters]
    assert set(frozenset(c) - ambiguous for c in moved) == \
        set(frozenset(c.tolist()) - ambiguous for c in base.clusters)
    assert set(perm[shuffled.noise].tolist()) == set(base.noise.tolist())
    for i in ambiguous:  # still joins the cluster of one of its core neighbors
        home = next(c for c in moved if i in c)
        assert any(core[k] and nbr[i, k] for k in home)


def test_border_point_joins_its_lowest_indexed_core_neighbor():
    # four core points at x ~ -1 and four at x ~ +1; the point at 0 reaches one
    # core point of each side (distance exactly 1) but is not core itself
    side = np.array([1.0, 1.01, 1.02, 1.03])
    line = np.concatenate([-side, side, [0.0]])
    pts = np.column_stack([line, np.zeros(9), np.zeros(9)])
    for order in (np.arange(9), np.r_[4:8, 0:4, 8]):  # either side listed first
        result = dbscan(RawPointSet(points=pts[order]), eps=1.0, min_pts=4)
        assert [c.tolist() for c in result.clusters] == [[0, 1, 2, 3, 8], [4, 5, 6, 7]]


# a 3-4-5 triangle: every pairwise distance is an exact integer
TRIANGLE = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [3.0, 4.0, 0.0]])


@pytest.mark.parametrize("points, eps, min_pts, clusters, noise", [
    (TRIANGLE, 5.0, 3, [[0, 1, 2]], []),
    (TRIANGLE, 5.0, 4, [], [0, 1, 2]),
    (TRIANGLE, 3.0, 2, [[0, 1]], [2]),
    (TRIANGLE, np.nextafter(3.0, 0.0), 2, [], [0, 1, 2]),
    (TRIANGLE[[0, 2]], 5.0, 2, [[0, 1]], []),
    (TRIANGLE[[0, 2]], np.nextafter(5.0, 0.0), 2, [], [0, 1]),
], ids=["all-core", "too-few", "side-3", "below-3", "hypotenuse", "below-hypotenuse"])
def test_neighbors_at_exactly_eps_count(points, eps, min_pts, clusters, noise):
    result = dbscan(RawPointSet(points=points), eps=eps, min_pts=min_pts)
    assert [c.tolist() for c in result.clusters] == clusters
    assert result.noise.tolist() == noise


def zigzag(n):
    """0, n-1, 1, n-2, ...: neighbors along a chain alternate low and high indices."""
    return np.ravel(np.column_stack([np.arange(n), np.arange(n)[::-1]]))[:n]


# point k along the chains gets index order[k]: reversed indices need long
# pointer jumps, zig-zag and permuted ones several hooking rounds
@pytest.mark.parametrize("index_order", [
    lambda n: np.arange(n)[::-1],
    zigzag,
    lambda n: np.random.default_rng(n).permutation(n),
], ids=["reversed", "zigzag", "permuted"])
@pytest.mark.parametrize("min_pts", [1, 2, 3])
def test_chains_in_any_index_order_match_oracle(index_order, min_pts):
    # three straight chains of 150 points 1 mm apart, 10 mm from each other
    along = np.column_stack([np.tile(np.arange(150.0), 3), np.repeat([0.0, 10.0, 20.0], 150),
                             np.zeros(450)])
    pts = np.empty_like(along)
    pts[index_order(450)] = along
    result = dbscan(RawPointSet(points=pts), eps=1.5, min_pts=min_pts)
    assert len(result.clusters) == 3
    np.testing.assert_array_equal(labels_of(result, 450), oracle_labels(pts, 1.5, min_pts))


@pytest.mark.parametrize("center", [0, 60, 120])
def test_star_matches_oracle(center):
    # six arms of 20 points 1 mm apart along +-x, +-y, +-z; arms meet only at
    # the center, and the arms' points are indexed round-robin
    arms = np.vstack([np.eye(3), -np.eye(3)])
    along = np.vstack([np.zeros((1, 3))] + [k * arms for k in range(1, 21)])
    pts = np.roll(along, center, axis=0)
    result = dbscan(RawPointSet(points=pts), eps=1.0, min_pts=2)
    assert [c.tolist() for c in result.clusters] == [list(range(121))]
    np.testing.assert_array_equal(labels_of(result, 121), oracle_labels(pts, 1.0, 2))


def test_isolated_points_are_one_cluster_each_at_min_pts_1():
    # 1000 points on a 10 mm grid in shuffled order, no two within eps
    grid = np.stack(np.meshgrid(*[np.arange(10.0) * 10] * 3, indexing="ij"), -1).reshape(-1, 3)
    pts = grid[np.random.default_rng(3).permutation(1000)]
    result = dbscan(RawPointSet(points=pts), eps=1.0, min_pts=1)
    assert [c.tolist() for c in result.clusters] == [[k] for k in range(1000)]
    np.testing.assert_array_equal(result.centroids, pts)


@pytest.mark.parametrize("min_pts", [2, 4, 5, 6])
def test_duplicate_points_match_oracle(min_pts):
    # four sites repeated 1-5 times, interleaved; sites 0 and 1 are 1 mm apart
    sites = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [5.0, 0.0, 0.0], [9.0, 0.0, 0.0]])
    pts = sites[[3, 0, 2, 1, 0, 2, 3, 0, 2, 1, 0, 2, 0, 3, 2]]
    result = dbscan(RawPointSet(points=pts), eps=1.0, min_pts=min_pts)
    np.testing.assert_array_equal(labels_of(result, len(pts)), oracle_labels(pts, 1.0, min_pts))
    for members, centroid in zip(result.clusters, result.centroids):
        np.testing.assert_array_equal(pts[members].mean(axis=0), centroid)


def test_clusters_ordered_by_lowest_core_point_not_first_member():
    # index 0 is a border point of the cluster at x ~ 100, whose lowest core
    # point (5) comes after the lowest core point of the cluster at x ~ 0 (1)
    line = np.array([100.75, 0.0, 0.1, 0.2, 0.3, 100.0, 100.1, 100.2, 100.3])
    pts = np.column_stack([line, np.zeros(9), np.zeros(9)])
    result = dbscan(RawPointSet(points=pts), eps=0.5, min_pts=3)
    assert [c.tolist() for c in result.clusters] == [[1, 2, 3, 4], [0, 5, 6, 7, 8]]
    np.testing.assert_array_equal(labels_of(result, 9), oracle_labels(pts, 0.5, 3))


@pytest.mark.parametrize("eps", [5.0, np.nextafter(5.0, 0.0)], ids=["at-5", "below-5"])
@pytest.mark.parametrize("min_pts", [2, 3, 5])
def test_lattice_pairs_at_exactly_eps_match_oracle(eps, min_pts):
    # integer points: axis steps of 5 and 3-4-5 steps put many pairs at exactly
    # 5, some of them two cells of side eps / sqrt(3) apart along an axis
    pts = np.random.default_rng(7).integers(0, 17, (150, 3)).astype(float)
    d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, axis=2)
    cells = np.floor(pts / (5.0 / np.sqrt(3.0)))
    two_apart = (np.abs(cells[:, None] - cells[None, :]) == 2).any(axis=2)
    assert (two_apart & (d2 == 25.0)).any()
    result = dbscan(RawPointSet(points=pts), eps=eps, min_pts=min_pts)
    np.testing.assert_array_equal(labels_of(result, len(pts)), oracle_labels(pts, eps, min_pts))


@pytest.mark.parametrize("eps", [1e-3, 0.3, 1.0, 8.0, 1e5])
def test_opposite_corners_of_one_cell_are_within_eps(eps):
    # the two farthest points one cell can hold: a cell of >= min_pts points
    # is taken as all core, so they must be neighbors
    corner = np.nextafter(clustering.CELL_SIDE * eps, 0.0)
    pts = np.array([[0.0, 0.0, 0.0], [corner, corner, corner]])
    assert np.sum((pts[1] - pts[0]) ** 2) <= eps * eps
    result = dbscan(RawPointSet(points=pts), eps=eps, min_pts=2)
    np.testing.assert_array_equal(labels_of(result, 2), oracle_labels(pts, eps, 2))


@pytest.mark.parametrize("eps", [1.0, 8.0])
@pytest.mark.parametrize("min_pts", [1, 2, 4])
def test_points_on_cell_faces_match_oracle(eps, min_pts):
    # every coordinate a multiple of the cell side eps / sqrt(3)
    k = np.random.default_rng(5).integers(0, 9, (200, 3))
    pts = k * (eps / np.sqrt(3.0))
    result = dbscan(RawPointSet(points=pts), eps=eps, min_pts=min_pts)
    np.testing.assert_array_equal(labels_of(result, len(pts)), oracle_labels(pts, eps, min_pts))


@pytest.mark.parametrize("shift", [-1e6, 1e6])
def test_translated_cloud_matches_oracle(shift):
    raw, _ = blob_instance(seed=8, n_blobs=6, pts_per_blob=15, sigma=2.0)
    pts = np.vstack([raw.points, np.random.default_rng(8).uniform(-20, 160, (10, 3))]) + shift
    result = dbscan(RawPointSet(points=pts), eps=5.0, min_pts=4)
    np.testing.assert_array_equal(labels_of(result, len(pts)), oracle_labels(pts, 5.0, 4))


@pytest.mark.parametrize("min_pts", [2, 4, 8])
def test_cloud_far_from_a_lone_point_matches_oracle(min_pts):
    # a lattice 1e15 mm out, where float spacing is 0.125 mm, and one point at
    # the origin: counted from the origin, cells would be numbered past int64
    rng = np.random.default_rng(4)
    steps = rng.integers(0, 4, (300, 3)) + 3 * rng.integers(0, 6, (300, 3))
    pts = np.vstack([[[0.0, 0.0, 0.0]], 1e15 + 0.125 * steps])
    result = dbscan(RawPointSet(points=pts), eps=1.0, min_pts=min_pts)
    np.testing.assert_array_equal(labels_of(result, len(pts)), oracle_labels(pts, 1.0, min_pts))


@pytest.mark.parametrize("copies", [1, 2, 7])
@pytest.mark.parametrize("min_pts", [1, 2, 7, 8])
def test_one_point_alone_or_repeated_matches_oracle(copies, min_pts):
    pts = np.tile([[1.5, -2.0, 1e3]], (copies, 1))
    result = dbscan(RawPointSet(points=pts), eps=0.5, min_pts=min_pts)
    np.testing.assert_array_equal(labels_of(result, copies), oracle_labels(pts, 0.5, min_pts))


@pytest.mark.parametrize("min_pts", [2, 8, 15, 19, 20])
def test_min_pts_above_every_cell_matches_oracle(min_pts):
    # a jittered lattice 0.6 eps apart: each cell of side eps / sqrt(3) < 0.58 eps
    # holds at most one point, while a point has up to 19 neighbors (itself
    # included) at one lattice step along an axis or a face diagonal
    rng = np.random.default_rng(11)
    grid = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    pts = (0.6 * grid + rng.uniform(-0.005, 0.005, grid.shape))[rng.permutation(len(grid))]
    result = dbscan(RawPointSet(points=pts), eps=1.0, min_pts=min_pts)
    np.testing.assert_array_equal(labels_of(result, len(pts)), oracle_labels(pts, 1.0, min_pts))


def test_bench_like_cloud_matches_oracle():
    # about 1500 stylus touches around nine centers, sigma 1 mm, with 1 % of
    # outliers, at the cluster command's defaults
    raw, _ = blob_instance(seed=17, n_blobs=9, pts_per_blob=165, sigma=1.0)
    rng = np.random.default_rng(17)
    pts = np.vstack([raw.points, rng.uniform(-30, 170, (15, 3))])[rng.permutation(1500)]
    result = dbscan(RawPointSet(points=pts), eps=8.0, min_pts=3)
    np.testing.assert_array_equal(labels_of(result, len(pts)), oracle_labels(pts, 8.0, 3))
    for members, centroid in zip(result.clusters, result.centroids):
        np.testing.assert_array_equal(pts[members].mean(axis=0), centroid)


def test_memory_stays_below_one_dense_matrix():
    # 5000 stylus touches around nine disk centers, sigma 1 mm, as the
    # benchmark's measure clouds; a dense n x n float64 matrix would be 200 MB.
    # dbscan allocates only numpy arrays and Python objects, which tracemalloc
    # sees, so this bounds its whole footprint
    n = 5000
    raw, _ = blob_instance(seed=21, n_blobs=9, pts_per_blob=n // 9 + 1, sigma=1.0)
    raw = RawPointSet(points=raw.points[:n])
    tracemalloc.start()
    try:
        result = dbscan(raw, eps=8.0, min_pts=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.clusters) == 9
    assert peak < n * n * 8


# ------------------------------------------------------------ center chaining

def arc_centroids(n=10):
    t = np.linspace(0.0, 1.2, n)
    return np.column_stack([200 * np.sin(t), 40 * t, -500 * np.cos(t) + 500])


def test_centers_to_curve_orders_along_arc():
    centroids = arc_centroids()
    rng = np.random.default_rng(1)
    scrambled = centroids[rng.permutation(10)]
    pts = np.vstack([c + rng.normal(0, 0.5, (6, 3)) for c in scrambled])
    result = dbscan(RawPointSet(points=pts), eps=5.0, min_pts=3)
    curve = centers_to_curve(result, expected_count=10, base_hint=(0.0, 0.0, 0.0))
    # recovered order must match the generating arc order
    for got, want in zip(curve.points, centroids):
        assert np.linalg.norm(got - want) <= 1.0


def test_centers_to_curve_count_mismatch():
    raw, _ = blob_instance(seed=3)
    result = dbscan(raw, eps=5.0, min_pts=4)
    with pytest.raises(ClusterCountMismatch):
        centers_to_curve(result, expected_count=10, base_hint=(0, 0, 0))


def test_centers_to_curve_too_few_for_curve():
    pts = np.vstack([np.random.default_rng(0).normal(c, 0.1, (5, 3))
                     for c in ([0, 0, 0], [100, 0, 0])])
    result = dbscan(RawPointSet(points=pts), eps=2.0, min_pts=3)
    assert len(result.clusters) == 2
    # ordering two centroids is trivial, but a Curve3D needs >= 4 points
    with pytest.raises(TooFewPoints):
        centers_to_curve(result, expected_count=2, base_hint=(0, 0, 0))
