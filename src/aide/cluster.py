"""Seeded k-means: k-means++ initialization, then Lloyd's iterations with
Hamerly's bounds.

Kept dependency-light on purpose: the retrieval index needs exact, reproducible
assignments (ties resolved to the lowest centroid index) rather than the
fastest possible fit, so this is a direct numpy implementation instead of an
external clustering library. Points are measured ``BLOCK`` rows at a time, so
the temporaries of a fit are a k x ``BLOCK`` array and one ``BLOCK`` x X
array at a time, never an n x X one. Each row is measured on its own, so the
blocks change no value.

Lloyd's iterations re-measure only the points whose label can change
(Hamerly 2010). Each point keeps an upper bound on the distance to its own
center and a lower bound on the distance to every other center, stored as
one number, their gap (lower minus upper). When the centers move, the
triangle inequality shrinks the gap by the point's own center's shift plus
the largest shift among the other centers. A point whose gap stays above
``MARGIN`` keeps its label unmeasured. A center is recomputed only when its
cluster's membership changed, since the same members in the same order give
the same mean.

A point that is measured is measured first through one inner product,
``d2 = |p|^2 - 2 p.c + |c|^2``, with the squared norms of the points taken
once per fit (``_squared_distances``). Its label is the one ``assign``'s
row arithmetic (``euclidean``, ties to the lower index) would give only
when the product certifies it; every other point is measured with that
arithmetic itself. With ``u = 2**-53`` and X coordinates:

- In any summation order, the product errs on a squared distance by at most
  about ``(X + 2) u (|p| + |c|)^2``. ``_nearest`` allows
  ``err = (X + 3) u (|p| + max |c|)^2`` for every center of a point.
- ``euclidean`` errs on a squared distance ``s`` by at most about
  ``(X + 2) u s`` before its square root.
- A point's nearest and second-nearest product values, ``first`` and
  ``second``, certify its label when ``second - err`` exceeds
  ``(first + err) (1 + RELATIVE)``. Then every other center's sum in
  ``euclidean`` exceeds the label's by a relative ``RELATIVE`` less those
  errors, about ``1e-12``, far more than a square root's rounding: the
  label's distance is strictly the smallest, so no tie can arise. Two
  distinct sums that round to one square root, the tie case, fail the test
  and go to the exact path, as does any non-finite value.
- A certified point's gap is ``sqrt(second - err) (1 - RELATIVE) -
  sqrt(first + err)``, a lower bound on its true gap despite the rounding of
  the square roots and the difference; a point measured exactly keeps its
  measured gap, as ``MARGIN`` allows.

So labels, centers, empty clusters and the iteration count are those of
plain Lloyd, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .affordance import euclidean

MAX_ITERATIONS = 100

# A point is left unmeasured only while its bound gap exceeds this. Affordance
# distances are at most about 44, so a measured one is off by about 1e-13 at
# most, and MAX_ITERATIONS bound updates add less than 1e-12: far below it.
MARGIN = 1e-9

# The relative margin by which a product must separate a point's two nearest
# centers to certify its label (module docstring).
RELATIVE = 1e-12

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


def _squared_distances(
    points: np.ndarray, norms: np.ndarray, centers: np.ndarray, center_norms: np.ndarray
) -> np.ndarray:
    """k x n squared distances through one inner product, ``norms`` and
    ``center_norms`` being the squared norms of ``points`` and ``centers``:
    off by at most ``err`` (module docstring), not exact."""
    d2 = np.einsum("kj,ij->ki", centers, points)
    d2 *= -2.0
    d2 += norms
    d2 += center_norms[:, None]
    return d2


def _two_nearest(distances: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per column of a k x n array: the row of its smallest value (the lowest
    of equal ones), that value, and the smallest of the other rows (infinite
    when k is 1). Overwrites ``distances``."""
    labels = distances.argmin(axis=0)
    own = labels * distances.shape[1] + np.arange(distances.shape[1])
    flat = distances.ravel()
    first = flat[own]
    flat[own] = np.inf
    return labels, first, distances.min(axis=0)


def _nearest(
    points: np.ndarray, norms: np.ndarray, centers: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``assign``'s labels of ``points[rows]``, and for each a lower bound on
    its gap: its distance to the second nearest center minus that to the
    nearest (infinite when k is 1). ``norms`` holds the points' squared
    norms. Measured ``BLOCK`` rows at a time through the product, and the
    rows it does not certify through ``assign``'s arithmetic."""
    labels = np.empty(len(rows), dtype=np.intp)
    gap = np.empty(len(rows))
    center_norms = np.einsum("ij,ij->i", centers, centers)
    scale = (centers.shape[1] + 3) * 2.0**-53
    largest = np.sqrt(center_norms.max())
    for start in range(0, len(rows), BLOCK):
        block_rows = rows[start : start + BLOCK]
        block_norms = norms.take(block_rows)
        d2 = _squared_distances(points.take(block_rows, axis=0), block_norms, centers, center_norms)
        block_labels, first, second = _two_nearest(d2)
        err = (np.sqrt(block_norms) + largest) ** 2 * scale
        upper, lower = first + err, second - err
        unsure = ~(lower > upper * (1.0 + RELATIVE))
        block_gap = np.sqrt(np.maximum(lower, 0.0)) * (1.0 - RELATIVE) - np.sqrt(upper)
        if unsure.any():
            at = unsure.nonzero()[0]
            distances = _distances(points.take(block_rows[at], axis=0), centers)
            block_labels[at], nearest, second_nearest = _two_nearest(distances)
            block_gap[at] = second_nearest - nearest
        labels[start : start + BLOCK] = block_labels
        gap[start : start + BLOCK] = block_gap
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

    norms = np.einsum("ij,ij->i", points, points)
    centers = _plus_plus_init(points, k, rng)
    labels, gap = _nearest(points, norms, centers, np.arange(len(points)))
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
        new_labels, gap[stale] = _nearest(points, norms, centers, stale)
        old_labels = labels[stale]
        moved = new_labels != old_labels
        if not moved.any():
            break
        changed = set(old_labels[moved].tolist()) | set(new_labels[moved].tolist())
        labels[stale] = new_labels
    return centers, labels
