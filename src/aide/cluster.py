"""Seeded k-means: k-means++ initialization, then Lloyd's iterations with
Hamerly's bounds.

Kept dependency-light on purpose: the retrieval index needs exact, reproducible
assignments (ties resolved to the lowest centroid index) rather than the
fastest possible fit, so this is a direct numpy implementation instead of an
external clustering library. Points are measured ``BLOCK`` rows at a time,
against one center at a time, with the one affordance distance,
``euclidean``: a k x ``BLOCK`` distance array and one ``BLOCK`` x X temporary
at a time, never an n x X one. Each row's distance is computed on its own, so
the blocks change no value.

Lloyd's iterations re-measure only the points whose label can change
(Hamerly 2010). Each point keeps an upper bound on the distance to its own
center and a lower bound on the distance to every other center, stored as
one number, their gap (lower minus upper). When the centers move, the
triangle inequality shrinks the gap by the point's own center's shift plus
the largest shift among the other centers. A point whose gap stays above
``MARGIN`` keeps its label unmeasured; every other point is measured against
all k centers with the row arithmetic of ``assign``. A center is recomputed
only when its cluster's membership changed, since the same members in the
same order give the same mean. So labels, centers, empty clusters and the
iteration count are those of plain Lloyd, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .affordance import euclidean

MAX_ITERATIONS = 100

# A point is left unmeasured only while its bound gap exceeds this. Affordance
# distances are at most about 44, so a measured one is off by about 1e-13 at
# most, and MAX_ITERATIONS bound updates add less than 1e-12: far below it.
MARGIN = 1e-9

# Points measured at a time, so the temporaries of a fit do not grow with
# its points (about 0.6 MB each at 19 dimensions).
BLOCK = 4096


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = np.empty(n)
    for start in range(0, n, BLOCK):
        d2[start : start + BLOCK] = euclidean(points[start : start + BLOCK], centers[0]) ** 2
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # All remaining points coincide with a chosen center.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = points[idx]
        for start in range(0, n, BLOCK):
            block = d2[start : start + BLOCK]
            np.minimum(block, euclidean(points[start : start + BLOCK], centers[i]) ** 2, out=block)
    return centers


def _distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """k x n distances, row j measured against ``centers[j]``."""
    distances = np.empty((len(centers), len(points)))
    for j, center in enumerate(centers):
        distances[j] = euclidean(points, center)
    return distances


def assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels; equidistant points go to the lowest center index."""
    return _distances(points, centers).argmin(axis=0)


def _nearest(points: np.ndarray, centers: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``assign``'s labels of ``points[rows]``, and each one's gap: its
    distance to the second nearest center minus that to the nearest (infinite
    when k is 1). Measured ``BLOCK`` rows at a time."""
    labels = np.empty(len(rows), dtype=np.intp)
    gap = np.empty(len(rows))
    for start in range(0, len(rows), BLOCK):
        at = slice(start, start + BLOCK)
        distances = _distances(points.take(rows[at], axis=0), centers)
        labels[at] = block_labels = distances.argmin(axis=0)
        own = block_labels * distances.shape[1] + np.arange(distances.shape[1])
        flat = distances.ravel()
        nearest = flat[own]
        flat[own] = np.inf
        gap[at] = distances.min(axis=0) - nearest
    return labels, gap


def _gap_shrink(shift: np.ndarray) -> np.ndarray:
    """Per center j, how far the gap of a point labelled j can shrink:
    ``shift[j]`` plus the largest shift of any other center."""
    shifts = shift.tolist()
    largest = max(shifts)
    top = shifts.index(largest)
    shifts[top] = 0.0
    shrink = shift + largest
    shrink[top] = largest + max(shifts)
    return shrink


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster ``points`` into ``k`` groups; returns (centers, labels).

    Runs Lloyd's algorithm until no assignment changes or the iteration cap is
    reached. Empty clusters keep their previous centroid, so the result is
    always a fixed point of the assignment step. The points are read as one
    C-ordered float array.
    """
    if k < 1:
        raise ValueError("k must be positive")
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    if points.shape[0] < k:
        raise ValueError(f"cannot form {k} clusters from {points.shape[0]} points")

    centers = _plus_plus_init(points, k, rng)
    labels, gap = _nearest(points, centers, np.arange(len(points)))
    changed = range(k)
    for _ in range(MAX_ITERATIONS):
        previous = centers.copy()
        for j in changed:
            members = points.compress(labels == j, axis=0)
            if len(members):
                centers[j] = np.add.reduce(members, axis=0) / len(members)
        gap -= _gap_shrink(euclidean(centers, previous))[labels]
        stale = (gap <= MARGIN).nonzero()[0]
        if not stale.size:
            break
        new_labels, gap[stale] = _nearest(points, centers, stale)
        old_labels = labels[stale]
        moved = new_labels != old_labels
        if not moved.any():
            break
        changed = set(old_labels[moved].tolist()) | set(new_labels[moved].tolist())
        labels[stale] = new_labels
    return centers, labels
