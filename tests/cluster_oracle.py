"""Lloyd's k-means as it was first written: k-means++ measures all points at
once, every iteration measures every point against every center and
recomputes each center through a boolean mask. The bounded, blocked
``aide.cluster.kmeans`` must return the same centers and labels, bit for
bit."""

from __future__ import annotations

import numpy as np

from aide import cluster


def plus_plus_init(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=float)
    centers[0] = points[int(rng.integers(n))]
    d2 = cluster.euclidean(points, centers[0]) ** 2
    for i in range(1, k):
        total = float(d2.sum())
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centers[i] = points[idx]
        d2 = np.minimum(d2, cluster.euclidean(points, centers[i]) ** 2)
    return centers


def lloyd_kmeans(points, k, rng):
    points = np.asarray(points, dtype=float)
    centers = plus_plus_init(points, k, rng)
    labels = cluster.assign(points, centers)
    for _ in range(cluster.MAX_ITERATIONS):
        for j in range(k):
            members = points[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
        new_labels = cluster.assign(points, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels


def brute_force_assignments(space):
    """True when every stored record of ``space`` sits under its nearest
    cluster centroid, measured against every centroid at once."""
    centroids = np.array([c.centroid.scores for c in space.clusters], dtype=float)
    return all(
        (cluster.assign(sub.instruction_at(slice(None)), centroids) == ci).all()
        for ci, c in enumerate(space.clusters)
        for sub in c.subclusters
    )
