from __future__ import annotations

import numpy as np
import pytest
from cluster_oracle import lloyd_kmeans
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aide import cluster
from aide.affordance import euclidean
from aide.cluster import assign, kmeans


def broadcast_assign(points, centers):
    """The assignment step as it was first written, over one n x k x X
    difference array; the oracle ``assign`` must match label for label."""
    return np.argmin(euclidean(points[:, None, :], centers[None, :, :]), axis=1)


def blobs(rng, centers, per_center, spread=0.3):
    points = []
    for c in centers:
        points.append(rng.normal(0, spread, size=(per_center, len(c))) + np.asarray(c))
    return np.vstack(points)


def test_kmeans_recovers_separated_blobs():
    rng = np.random.Generator(np.random.PCG64(3))
    centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
    points = blobs(rng, centers, 40)
    got_centers, labels = kmeans(points, 3, np.random.Generator(np.random.PCG64(5)))
    # Every blob maps to exactly one cluster.
    for b in range(3):
        blob_labels = labels[b * 40 : (b + 1) * 40]
        assert len(set(blob_labels.tolist())) == 1
    assert len(set(labels.tolist())) == 3
    assert got_centers.shape == (3, 2)


def test_kmeans_deterministic_under_seed():
    rng = np.random.Generator(np.random.PCG64(3))
    points = blobs(rng, [(0, 0), (8, 8)], 30)
    c1, l1 = kmeans(points, 2, np.random.Generator(np.random.PCG64(11)))
    c2, l2 = kmeans(points, 2, np.random.Generator(np.random.PCG64(11)))
    assert np.array_equal(l1, l2)
    assert np.array_equal(c1, c2)


def test_kmeans_is_assignment_fixed_point():
    rng = np.random.Generator(np.random.PCG64(9))
    points = rng.uniform(0, 10, size=(200, 5))
    centers, labels = kmeans(points, 6, np.random.Generator(np.random.PCG64(1)))
    assert np.array_equal(assign(points, centers), labels)


def test_kmeans_identical_points_collapse():
    points = np.tile(np.array([[2.0, 3.0]]), (24, 1))
    centers, labels = kmeans(points, 4, np.random.Generator(np.random.PCG64(2)))
    assert set(labels.tolist()) == {0}  # ties resolve to the lowest index
    assert np.allclose(centers[0], [2.0, 3.0])


def test_kmeans_rejects_k_above_n():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4, np.random.Generator(np.random.PCG64(0)))
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 0, np.random.Generator(np.random.PCG64(0)))


@st.composite
def points_and_centers(draw):
    dims = draw(st.integers(1, 19))
    scores = st.floats(0.0, 10.0)
    points = draw(hnp.arrays(float, (draw(st.integers(1, 24)), dims), elements=scores))
    centers = draw(hnp.arrays(float, (draw(st.integers(1, 8)), dims), elements=scores))
    if draw(st.booleans()):
        # On the integer grid, points often lie exactly as far from two centers.
        points, centers = np.round(points), np.round(centers)
    return points, centers


@settings(max_examples=150, deadline=None)
@given(points_and_centers())
def test_assign_matches_the_broadcast_oracle(drawn):
    points, centers = drawn
    assert np.array_equal(assign(points, centers), broadcast_assign(points, centers))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_point_equidistant_from_two_centers_goes_to_the_lower_index(data):
    dims = data.draw(st.integers(1, 19))
    grid = hnp.arrays(float, dims, elements=st.integers(0, 5).map(float))
    point, offset = data.draw(grid), data.draw(grid)
    k = data.draw(st.integers(2, 8))
    i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
    centers = np.tile(point + 100.0, (k, 1))
    # Integer squares summed in any order are exact, so both centers lie at
    # exactly the same distance from the point.
    centers[i] = point + offset
    centers[j] = point - data.draw(st.permutations(offset.tolist()))
    points = np.vstack([point, data.draw(grid)])
    labels = assign(points, centers)
    assert labels[0] == min(i, j)
    assert np.array_equal(labels, broadcast_assign(points, centers))


def same_bits(got, expected):
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def both_fits(points, k, seed):
    """The bounded fit and the plain Lloyd oracle, each from its own equal generator."""
    got = kmeans(points, k, np.random.Generator(np.random.PCG64(seed)))
    expected = lloyd_kmeans(points, k, np.random.Generator(np.random.PCG64(seed)))
    return got, expected


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kmeans_is_bit_identical_to_a_run_on_the_broadcast_oracle(seed, monkeypatch):
    rng = np.random.Generator(np.random.PCG64(seed))
    points = np.clip(rng.normal(5.0, 2.0, size=(600, 19)), 0.0, 10.0)
    if seed % 2:
        points = np.round(points)  # duplicate points and exact ties
    got = kmeans(points, 8, np.random.Generator(np.random.PCG64(seed)))
    monkeypatch.setattr(cluster, "assign", broadcast_assign)
    expected = lloyd_kmeans(points, 8, np.random.Generator(np.random.PCG64(seed)))
    same_bits(got, expected)


@pytest.mark.parametrize("seed", [0, 1])
def test_blocked_kmeans_is_bit_identical_to_the_broadcast_oracle_across_block_edges(seed, monkeypatch):
    # Two whole blocks and a part: the last block is short.
    n = 2 * cluster.BLOCK + 123
    rng = np.random.Generator(np.random.PCG64(seed))
    points = np.clip(rng.normal(5.0, 2.0, size=(n, 6)), 0.0, 10.0)
    if seed % 2:
        points = np.round(points)  # duplicate points and exact ties
    got = kmeans(points, 5, np.random.Generator(np.random.PCG64(seed)))
    monkeypatch.setattr(cluster, "assign", broadcast_assign)
    expected = lloyd_kmeans(points, 5, np.random.Generator(np.random.PCG64(seed)))
    same_bits(got, expected)


def grid_points(rng, n):
    """Two-dimensional points on a 5 x 5 integer grid: many duplicates, and
    many points exactly as far from two centers."""
    return rng.integers(0, 5, size=(n, 2)).astype(float)


def score_points(rng, n):
    return np.clip(rng.normal(5.0, 2.5, size=(n, 19)), 0.0, 10.0)


@pytest.mark.parametrize("make", [score_points, grid_points], ids=["scores", "grid"])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeans_matches_plain_lloyd(make, k, seed):
    points = make(np.random.Generator(np.random.PCG64(100 + seed)), 40)  # k = 40 is k = n
    same_bits(*both_fits(points, k, seed))


@st.composite
def points_and_k(draw):
    dims = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        elements = st.integers(0, 3).map(float)  # ties and duplicates
    else:
        elements = st.floats(0.0, 10.0)
    points = draw(hnp.arrays(float, (n, dims), elements=elements))
    return points, draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(points_and_k())
def test_kmeans_matches_plain_lloyd_on_drawn_points(drawn):
    points, k, seed = drawn
    same_bits(*both_fits(points, k, seed))


def test_kmeans_matches_plain_lloyd_where_only_the_margin_keeps_a_bound_safe():
    # In one dimension a shift moves a distance by exactly the shift, so the
    # bounds can equal the distances and only rounding tells them apart. On
    # these points a fit without MARGIN skips a point whose label plain Lloyd
    # changes.
    points = np.array([[0.15], [0.04], [0.27], [0.22], [0.11], [0.08], [0.34], [0.06], [0.23], [0.3]])
    same_bits(*both_fits(points, 3, 155))


@pytest.mark.parametrize("distinct", [1, 3])
def test_kmeans_matches_plain_lloyd_when_clusters_go_empty(distinct):
    corners = np.array([[2.0, 3.0, 7.0], [4.0, 4.0, 4.0], [9.0, 0.0, 2.0]])
    points = np.repeat(corners[:distinct], 10, axis=0)
    got, expected = both_fits(points, 5, 4)
    same_bits(got, expected)
    assert len(set(got[1].tolist())) == distinct  # the other clusters ended empty


def subcluster_points(seed):
    """The shape of one subcluster of the 50,000-record space: 6,250 points
    around one class centroid in 19 dimensions, split three ways."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.clip(rng.normal(rng.uniform(2.0, 8.0, 19), 1.5, size=(6250, 19)), 0.0, 10.0)


@pytest.mark.parametrize("cap", [1, 2, 5])
def test_kmeans_matches_plain_lloyd_when_the_iteration_cap_stops_it(cap, monkeypatch):
    points = subcluster_points(5)[:1500]
    uncapped = kmeans(points, 3, np.random.Generator(np.random.PCG64(5)))
    monkeypatch.setattr(cluster, "MAX_ITERATIONS", cap)
    got, expected = both_fits(points, 3, 5)
    same_bits(got, expected)
    assert not np.array_equal(got[1], uncapped[1])  # stopped mid-way


def test_kmeans_matches_plain_lloyd_on_a_subcluster_of_the_50k_space():
    same_bits(*both_fits(subcluster_points(7), 3, 7))


def test_the_bounds_leave_most_distances_unmeasured(monkeypatch):
    measure, product = cluster.euclidean, cluster._squared_distances
    measured = {"product": 0, "exact": 0}

    def counting(kind, kernel):
        def counted(*args):
            out = kernel(*args)
            measured[kind] += out.size
            return out

        return counted

    monkeypatch.setattr(cluster, "euclidean", counting("exact", measure))
    monkeypatch.setattr(cluster, "_squared_distances", counting("product", product))
    points = subcluster_points(7)
    lloyd_kmeans(points, 3, np.random.Generator(np.random.PCG64(7)))
    plain = dict(measured)
    measured.update(product=0, exact=0)
    kmeans(points, 3, np.random.Generator(np.random.PCG64(7)))
    # Pinned: the distances each fit takes through the product and through
    # the exact arithmetic, counting k-means++ and the center shifts. Looser
    # bounds give the same result at a higher count; here the product
    # certifies every label, so the exact arithmetic measures only k-means++
    # and the shifts.
    assert (plain, measured) == ({"product": 0, "exact": 1_200_000}, {"product": 311_064, "exact": 18_936})


def near_ties(rng, n):
    """Points in 19 dimensions at coordinates near 10, on a quarter grid, so
    many sums of squares are exact and many points lie exactly as far from
    two others; a third of them nudged by 2**-40 in one coordinate, so they
    lie only nearly as far. The product cannot order such distances."""
    points = 9.5 + 0.25 * rng.integers(0, 3, size=(n, 19))
    nudged = rng.random(n) < 1 / 3
    points[nudged, rng.integers(0, 19, size=nudged.sum())] -= 2.0**-40
    return points


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeans_matches_plain_lloyd_where_the_product_cannot_certify(k, seed, monkeypatch):
    points = near_ties(np.random.Generator(np.random.PCG64(seed)), 300)
    exact = cluster._distances
    fallback = []

    def counting(block, centers):
        fallback.append(len(block))
        return exact(block, centers)

    # Within a fit only the rows the product does not certify reach _distances.
    monkeypatch.setattr(cluster, "_distances", counting)
    got = kmeans(points, k, np.random.Generator(np.random.PCG64(seed)))
    monkeypatch.setattr(cluster, "_distances", exact)
    same_bits(got, lloyd_kmeans(points, k, np.random.Generator(np.random.PCG64(seed))))
    assert sum(fallback) >= 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_nearest_gives_the_labels_of_assign_and_a_gap_no_larger_than_the_measured_one(data):
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1))))
    points = near_ties(rng, data.draw(st.integers(1, 40)))
    centers = points[rng.integers(0, len(points), size=data.draw(st.integers(2, 6)))]
    if data.draw(st.booleans()):
        centers = centers + rng.normal(0.0, 1e-3, size=centers.shape)
    rows = np.arange(len(points))
    labels, gap = cluster._nearest(points, np.einsum("ij,ij->i", points, points), centers, rows)
    assert np.array_equal(labels, assign(points, centers))
    distances = cluster._distances(points, centers)
    nearest = distances[labels, rows]
    distances[labels, rows] = np.inf
    assert (gap <= distances.min(axis=0) - nearest + 1e-12).all()
