from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from aide.affordance import (
    CLASS_TOOL_LABELS,
    CONTAINER_FOR_CLASS,
    AffordanceVector,
    DimensionMismatchError,
    class_centroid,
    class_names,
    distance,
    euclidean,
    label_class,
    neutral_vector,
    vector,
)


def test_distance_identity():
    v = vector([1.5] * 19)
    assert distance(v, v) == 0.0


def test_distance_full_span():
    zeros = vector([0.0] * 19)
    tens = vector([10.0] * 19)
    assert distance(zeros, tens) == pytest.approx(10 * math.sqrt(19))
    assert distance(zeros, tens) == pytest.approx(43.589, abs=1e-3)


def test_distance_three_four_five():
    u = vector([3.0, 4.0] + [0.0] * 17)
    v = vector([0.0] * 19)
    assert distance(u, v) == pytest.approx(5.0)


@pytest.mark.parametrize(
    ("a_shape", "b_shape"), [((19,), (19,)), ((19,), (72, 19)), ((300, 19), (19,)), ((5, 19), (5, 19))]
)
def test_euclidean_is_the_plain_formula_to_the_last_bit(a_shape, b_shape):
    # Retrieval, inserts and k-means all measure through ``euclidean``: its
    # ufunc form must give each row exactly what the formula gives.
    rng = np.random.Generator(np.random.PCG64(5))
    a, b = rng.uniform(0.0, 10.0, a_shape), rng.uniform(0.0, 10.0, b_shape)
    for first in (a, a.tolist()):
        assert np.array_equal(euclidean(first, b), np.sqrt(((np.asarray(first, dtype=float) - b) ** 2).sum(axis=-1)))
    assert euclidean([0, 0], np.array([3, 4])).dtype == np.float64


def test_distance_symmetry_and_dimension_error():
    u = vector([1, 2, 3])
    v = vector([4, 5, 6])
    assert distance(u, v) == distance(v, u)
    with pytest.raises(DimensionMismatchError):
        distance(u, vector([1, 2]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 10.1])
def test_vector_rejects_bad_scores(bad):
    message = "outside" if math.isfinite(bad) else "non-finite"
    with pytest.raises(ValueError, match=message):
        AffordanceVector((1.0, bad))


def test_vector_rejects_empty():
    with pytest.raises(ValueError):
        AffordanceVector(())


def test_class_catalog_consistency():
    names = class_names()
    assert len(names) == 8
    for cls in names:
        assert cls in CLASS_TOOL_LABELS
        assert CONTAINER_FOR_CLASS[cls] in ("fridge", "drawer", "cabinet")
    assert label_class("hammer") == "strike"
    assert label_class("unknown-gadget") is None


def test_centroids_separated_and_stable():
    names = class_names()
    centroids = [class_centroid(n) for n in names]
    for a, b in itertools.combinations(centroids, 2):
        assert distance(a, b) >= 12.0
    neutral = neutral_vector()
    for c in centroids:
        assert distance(neutral, c) >= 14.0
    # Deterministic across calls.
    assert class_centroid("drink") == class_centroid("drink")


def test_extended_class_names():
    names = class_names(10)
    assert len(names) == 10
    assert names[:8] == class_names()
    assert names[8].startswith("class")


def test_centroids_refuse_a_dimension_count_too_small_to_clear_the_neutral_vector():
    # At X = 5 no point of [0, 10]^5 lies 14 from the all-fives vector (the
    # corners lie 5 * sqrt(5) ~ 11.2 away), so the draw could never succeed.
    with pytest.raises(ValueError, match="X >= 8"):
        class_centroid("drink", 5)


def test_centroids_give_up_where_only_the_corners_clear_the_neutral_vector():
    # At X = 9 the corners lie 15 from the all-fives vector, but a uniform
    # draw almost never lands 14 away; the capped redraw raises in about a
    # second instead of spinning.
    with pytest.raises(ValueError, match="X = 9"):
        class_centroid("drink", 9, known=class_names(8))
