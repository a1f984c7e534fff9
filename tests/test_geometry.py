from __future__ import annotations

import pytest
from geometry_oracle import region_clip, region_from_floats, region_intersection, region_iou, region_pad
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aide.geometry import Region, bounding_region, iou, pixel_bounds, vertical_halves


def outcome(fn, *args):
    """``fn``'s value, or the type of the error it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def boxes(max_coord=500):
    coords = st.integers(min_value=0, max_value=max_coord)
    return st.builds(
        lambda x0, y0, w, h: Region(x0, y0, x0 + w, y0 + h),
        coords,
        coords,
        st.integers(min_value=0, max_value=max_coord),
        st.integers(min_value=0, max_value=max_coord),
    )


def test_region_validation():
    with pytest.raises(ValueError):
        Region(-1, 0, 5, 5)
    with pytest.raises(ValueError):
        Region(5, 0, 3, 5)
    r = Region(1, 2, 5, 10)
    assert r.width == 4 and r.height == 8 and r.area == 32
    assert r.center == (3.0, 6.0)


def test_contains_and_intersects():
    outer = Region(0, 0, 100, 100)
    inner = Region(10, 10, 20, 20)
    assert outer.contains(inner) and not inner.contains(outer)
    assert outer.intersects(inner)
    assert Region(0, 0, 10, 10).intersects(Region(10, 10, 20, 20))  # touching edges
    assert not Region(0, 0, 10, 10).intersects(Region(11, 11, 20, 20))


def test_iou_basics():
    a = Region(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, Region(20, 20, 30, 30)) == 0.0
    b = Region(5, 0, 15, 10)
    assert iou(a, b) == pytest.approx(50 / 150)
    degenerate = Region(3, 3, 3, 3)
    assert iou(degenerate, degenerate) == 1.0
    assert iou(degenerate, Region(3, 3, 4, 4)) == 0.0


@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    left, right = iou(a, b), iou(b, a)
    assert left == right
    assert 0.0 <= left <= 1.0


def test_clip_and_pad():
    r = Region(90, 90, 120, 130)
    assert r.clip(100, 100) == Region(90, 90, 100, 100)
    padded = Region(10, 10, 30, 30).pad(0.05, 100, 100)
    assert padded == Region(9, 9, 31, 31)
    assert Region(0, 0, 100, 100).pad(0.5, 100, 100) == Region(0, 0, 100, 100)


def test_pixel_bounds_orders_rounds_and_clamps():
    assert pixel_bounds(5.6, -2.0, 1.2, 3.4, 800, 800) == (1, 0, 6, 3)
    assert pixel_bounds(790.2, 10.5, 812.7, -3.0, 800, 600) == (790, 0, 800, 10)


# Small coordinates make equal, degenerate and edge-touching boxes common;
# frames as small as the boxes put them on the frame border.
small_boxes = boxes(max_coord=12)
frames = st.integers(min_value=0, max_value=30)


@settings(max_examples=400, deadline=None)
@given(small_boxes, small_boxes)
@example(Region(2, 2, 6, 6), Region(2, 2, 6, 6))  # equal
@example(Region(3, 3, 3, 3), Region(3, 3, 3, 3))  # equal and degenerate
@example(Region(3, 3, 3, 8), Region(0, 0, 9, 9))  # zero-width inside another
@example(Region(0, 0, 4, 4), Region(4, 0, 8, 4))  # touching edges
@example(Region(0, 0, 4, 4), Region(4, 4, 8, 8))  # touching corners
@example(Region(0, 0, 4, 4), Region(5, 0, 8, 4))  # apart
def test_iou_matches_the_region_oracle(a, b):
    assert iou(a, b) == region_iou(a, b)
    assert iou(b, a) == region_iou(b, a)
    assert a.intersection(b) == region_intersection(a, b)
    assert b.intersection(a) == region_intersection(b, a)


@settings(max_examples=400, deadline=None)
@given(
    small_boxes,
    st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, -0.05, -0.5, -1.0]),
    frames,
    frames,
)
@example(Region(0, 0, 10, 10), 0.05, 10, 10)  # on the frame border
@example(Region(10, 10, 12, 12), 0.5, 10, 10)  # outside the frame
@example(Region(4, 4, 4, 4), 0.05, 20, 20)  # degenerate
@example(Region(4, 4, 8, 8), -1.0, 20, 20)  # shrunk past itself
def test_pad_matches_the_region_oracle(box, fraction, width, height):
    assert outcome(box.pad, fraction, width, height) == outcome(
        region_pad, box, fraction, width, height
    )
    assert box.clip(width, height) == region_clip(box, width, height)


coordinates = st.floats(min_value=-40.0, max_value=60.0, allow_nan=False) | st.sampled_from(
    [-0.5, 0.5, 1.5, 2.5, 49.5, 50.0, 50.5]
)


@settings(max_examples=400, deadline=None)
@given(coordinates, coordinates, coordinates, coordinates, st.integers(1, 50), st.integers(1, 50))
@example(-0.5, 0.5, 50.5, 49.5, 50, 50)  # half-pixel ties at both borders
@example(60.0, 60.0, 55.0, 70.0, 50, 50)  # beyond the far border
def test_pixel_bounds_match_region_from_floats_then_clip(x0, y0, x1, y1, width, height):
    expected = region_clip(region_from_floats(x0, y0, x1, y1), width, height)
    assert Region(*pixel_bounds(x0, y0, x1, y1, width, height)) == expected


def test_bounding_region():
    rect = bounding_region([Region(5, 5, 10, 10), Region(0, 8, 7, 20)])
    assert rect == Region(0, 5, 10, 20)
    with pytest.raises(ValueError):
        bounding_region([])


def test_vertical_halves():
    lower, upper = vertical_halves(Region(0, 0, 100, 200))
    assert lower == Region(0, 100, 100, 200)
    assert upper == Region(0, 0, 100, 100)
    tiny = Region(4, 4, 5, 5)
    assert vertical_halves(tiny) == (tiny, tiny)


@given(boxes())
def test_halves_contained(box):
    lower, upper = vertical_halves(box)
    assert box.contains(lower) and box.contains(upper)
