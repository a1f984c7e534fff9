"""Lloyd's k-means as it was first written: every iteration measures every
point against every center and recomputes each center through a boolean mask.
The bounded ``aide.cluster.kmeans`` must return the same centers and labels,
bit for bit."""

from __future__ import annotations

import numpy as np

from aide import cluster


def lloyd_kmeans(points, k, rng):
    points = np.asarray(points, dtype=float)
    centers = cluster._plus_plus_init(points, k, rng)
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
