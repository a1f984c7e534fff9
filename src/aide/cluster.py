"""Seeded Lloyd's k-means with k-means++ initialization.

Kept dependency-light on purpose: the retrieval index needs exact, reproducible
assignments (ties resolved to the lowest centroid index) rather than the
fastest possible fit, so this is a direct numpy implementation instead of an
external clustering library. The assignment step measures every point against
one center at a time with the one affordance distance, ``euclidean``: a k x n
distance array and one n x X temporary at a time, never an n x k x X one.
"""

from __future__ import annotations

import numpy as np

from .affordance import euclidean

MAX_ITERATIONS = 100


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = euclidean(points, centers[0]) ** 2
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # All remaining points coincide with a chosen center.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = points[idx]
        d2 = np.minimum(d2, euclidean(points, centers[i]) ** 2)
    return centers


def assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels; equidistant points go to the lowest center index."""
    distances = np.empty((len(centers), len(points)))
    for j, center in enumerate(centers):
        distances[j] = euclidean(points, center)
    return distances.argmin(axis=0)


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster ``points`` into ``k`` groups; returns (centers, labels).

    Runs Lloyd's algorithm until no assignment changes or the iteration cap is
    reached. Empty clusters keep their previous centroid, so the result is
    always a fixed point of the assignment step.
    """
    if k < 1:
        raise ValueError("k must be positive")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    if points.shape[0] < k:
        raise ValueError(f"cannot form {k} clusters from {points.shape[0]} points")

    centers = _plus_plus_init(points, k, rng)
    labels = assign(points, centers)
    for _ in range(MAX_ITERATIONS):
        for j in range(k):
            members = points[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
        new_labels = assign(points, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels
